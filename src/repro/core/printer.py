"""The CuLi printer (paper §III-B-d).

"During the evaluation phase a node tree is generated that only consists
of primitives. The tree's nodes are passed ... to the printer that
generates the output string. For each node it appends the corresponding
string representation to the output string."

All characters flow through :class:`~repro.gpu.memory.OutputBuffer`
(``CHAR_STORE`` + ``PRINT_STEP`` each); numbers are formatted by the
device-side itoa/ftoa in ``repro.strlib`` (IDIV per digit — expensive on
Fermi). Like parsing, printing runs serially on the master thread. A
list of ints is printed as one run (``OutputBuffer.append_run``) with
the per-node charges totalled (DESIGN.md, "Host-side charge folding").
"""

from __future__ import annotations

from ..context import ExecContext
from ..gpu.memory import OutputBuffer
from ..ops import Op
from ..strlib import format_float, format_int
from .nodes import Node, NodeType

__all__ = ["Printer"]


class Printer:
    def __init__(self, ctx: ExecContext) -> None:
        self.ctx = ctx

    def print_node(self, node: Node, out: OutputBuffer, readable: bool = True) -> None:
        """Append ``node``'s representation to ``out``.

        ``readable=True`` prints strings with quotes (REPL results);
        ``readable=False`` is the ``princ`` behaviour (raw strings).
        """
        ctx = self.ctx
        stack: list[object] = [node]
        while stack:
            item = stack.pop()
            if isinstance(item, str):  # queued punctuation
                out.append(item)
                continue
            ctx.charge(Op.NODE_READ)  # load type + value
            ntype = item.ntype
            if ntype == NodeType.N_NIL:
                out.append("nil")
            elif ntype == NodeType.N_TRUE:
                out.append("T")
            elif ntype == NodeType.N_INT:
                out.append(format_int(item.ival, ctx))
            elif ntype == NodeType.N_FLOAT:
                out.append(format_float(item.fval, ctx))
            elif ntype == NodeType.N_STRING:
                if readable:
                    out.append('"' + item.sval + '"')
                else:
                    out.append(item.sval)
            elif ntype == NodeType.N_SYMBOL:
                out.append(item.sval)
            elif ntype == NodeType.N_FUNCTION:
                out.append(f"#<builtin {item.sval or (item.fn.name if item.fn else '?')}>")
            elif ntype == NodeType.N_FORM:
                out.append(f"#<form {item.sval or 'lambda'}>")
            elif ntype == NodeType.N_MACRO:
                out.append(f"#<macro {item.sval or 'macro'}>")
            else:  # N_LIST / N_EXPRESSION
                children = list(item.children())
                if all(child.ntype == NodeType.N_INT for child in children) and (
                    self._print_int_run(children, out)
                ):
                    continue
                out.append("(")
                stack.append(")")
                ctx.charge(Op.NODE_READ, len(children))
                for i, child in enumerate(reversed(children)):
                    stack.append(child)
                    if i != len(children) - 1:
                        stack.append(" ")

    def _print_int_run(self, children: list[Node], out: OutputBuffer) -> bool:
        """Print a list whose children are all ints as one run.

        The charges are the per-node path's, totalled: a ``NODE_READ``
        per link and per child, and ``format_int``'s ``IDIV`` + ``ALU``
        per digit plus an ``ALU`` per negative. Returns False, having
        charged nothing, if the list does not fit in ``out``: the
        per-node path then overflows at the same piece.
        """
        texts = [str(child.ival) for child in children]
        chars = sum(map(len, texts))
        pieces = ["("]
        for text in texts:
            pieces.append(text)
            pieces.append(" ")
        if texts:
            pieces[-1] = ")"
        else:
            pieces.append(")")
        if len(out) + chars + len(pieces) - len(texts) > out.capacity:
            return False
        if texts:
            ctx = self.ctx
            negatives = sum(1 for child in children if child.ival < 0)
            ctx.charge(Op.NODE_READ, 2 * len(texts))
            ctx.charge(Op.IDIV, chars - negatives)
            ctx.charge(Op.ALU, chars)
        out.append_run(pieces)
        return True
