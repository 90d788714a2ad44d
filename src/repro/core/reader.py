"""The CuLi parser (paper §III-B-b, Fig. 4).

"The parser builds the parse tree, a tree of nodes describing the input
string. For this it reads the string character by character. An opening
parenthesis builds a new list ... The parser walks the string until it
sees a whitespace character, or an opening or closing parenthesis. These
characters are markers for the parser. The substring between the last
marker and the current marker is the input to generate a new node."

The tokenizer is a single-pass cursor: every character is loaded from
:class:`~repro.gpu.memory.SourceBuffer` exactly once (one ``CHAR_LOAD`` +
``PARSE_STEP``, cache-modelled), like the C scanner it stands in for.
Parsing is therefore a serial, latency-bound scan on the master thread —
exactly the behaviour the paper identifies as CuLi's bottleneck.

The host pays that scan as one run per parse. The cursor is a plain int
over the text: whitespace, comments and atoms advance by one regex match,
strings by one ``str.find``. When the parse ends, normally or on an
error, :meth:`~repro.gpu.memory.SourceBuffer.load_run` charges positions
``0 .. min(pos, n)`` (the terminator included). Those are the same op
counts, and the same cache addresses in the same order, as one load per
character, since no other cache access happens inside a parse.

The parse itself is one loop over an explicit stack, not a recursive
descent: an open list is a frame holding its node, its template and the
position of its ``(``, a pending ``'`` quote is a frame too, and the
stack height is the nesting depth. Every node the parse takes is made
from a :class:`~repro.core.nodes.TemplateNode` built in the same step
(:meth:`~repro.core.arena.NodeArena.instantiate`), and a child joins its
parent node and its parent template together, so one scan yields both
the arena tree and the detached copy the parse cache keeps. Unsigned
decimal ints, plain symbols and a lone ``+``/``-`` skip
``classify_atom``. The parse tallies its ``PARSE_STEP``, digit,
``NODE_ALLOC``, ``NODE_WRITE`` and intern-hit ``HASH_PROBE`` charges and
adds them beside the scan run, so a parse makes the same few charge
calls however long its input is. The counts are the ones a per-node
builder charges; only the number of calls differs.

Note on environments: the paper creates an environment per list at parse
time; we charge that allocation here but materialize environments lazily
during evaluation (see DESIGN.md deviations).
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

from ..context import ExecContext
from ..errors import ParseError
from ..gpu.memory import SourceBuffer
from ..ops import Op
from ..strlib import AtomClass, classify_atom
from .nodes import Node, NodeType, TemplateNode

if TYPE_CHECKING:  # pragma: no cover
    from .interpreter import Interpreter

__all__ = ["Parser"]

_WHITESPACE = " \t\n\r\v\f"
_QUOTE_SUGAR = "'"
#: Characters that start a run of whitespace and ';' line comments.
_SKIP_START = _WHITESPACE + ";"
#: One run of whitespace and comments; a comment ends before its newline.
_SKIP = re.compile(f"(?:[{_WHITESPACE}]+|;[^\n]*)*")
#: An atom runs up to whitespace or a parenthesis.
_ATOM = re.compile(f"[^{_WHITESPACE}()]*")
_MAX_NESTING = 512
#: First characters that send an atom through ``classify_atom`` (numbers,
#: strings), unless the atom is a lone sign.
_CLASSIFY_START = frozenset("0123456789+-.E\"")
_SIGNS = ("+", "-")
#: Atoms ``classify_atom`` maps to nil and T.
_RESERVED = ("nil", "T", "t")
#: Digits an int atom may have to skip ``classify_atom``: Python's ``int()``
#: refuses strings past its configured digit limit, which is at least 640.
_FAST_INT_DIGITS = 640
#: Per digit of an int atom, beside its PARSE_STEP.
_DIGIT_OPS = (Op.IMUL, Op.ALU)
_LIST, _SYMBOL, _INT, _TRUE = (
    NodeType.N_LIST, NodeType.N_SYMBOL, NodeType.N_INT, NodeType.N_TRUE)
#: Per ``classify_atom`` class: the node type, and the field its value
#: fills (nil and T carry none, so their node is a bare allocation).
_ATOM_FIELDS = {
    AtomClass.STRING: (NodeType.N_STRING, "sval"),
    AtomClass.NIL: (NodeType.N_NIL, None),
    AtomClass.TRUE: (_TRUE, None),
    AtomClass.INT: (_INT, "ival"),
    AtomClass.FLOAT: (NodeType.N_FLOAT, "fval"),
    AtomClass.SYMBOL: (_SYMBOL, "sval"),
}


class Parser:
    """Char-by-char parser with an explicit cursor (no re-reads)."""

    def __init__(self, interp: "Interpreter", ctx: ExecContext) -> None:
        self.interp = interp
        self.ctx = ctx

    def parse(self, source: SourceBuffer | str, base_addr: int = 0) -> list[Node]:
        """Parse the whole input; returns the top-level forms in order."""
        return self.read(source, base_addr)[0]

    def read(
        self, source: SourceBuffer | str, base_addr: int = 0
    ) -> tuple[list[Node], list[TemplateNode]]:
        """Parse the whole input; returns the top-level forms in order and
        their templates."""
        if isinstance(source, str):
            source = SourceBuffer(source, base=base_addr)
        ctx = self.ctx
        source.bind(ctx)
        text = source.text
        n = len(text)
        arena = self.interp.arena
        instantiate = arena.instantiate
        symtab = arena.symtab
        # One frame per open list, (node, template, position of its '('),
        # and per pending quote, (None, None, position after the quote
        # character). The stack height is the nesting depth.
        stack: list[tuple] = []
        top: list[Node] = []
        templates: list[TemplateNode] = []
        pos = 0
        # The parse's node charges, tallied and charged once on every way out.
        steps = digits = allocs = writes = probes = 0
        try:
            while True:
                if pos < n and text[pos] in _SKIP_START:
                    pos = _SKIP.match(text, pos).end()
                if pos >= n:
                    if not stack:
                        break
                    if stack[-1][0] is None:
                        raise ParseError("dangling quote", position=pos)
                    raise ParseError("missing ')'", position=stack[-1][2])
                ch = text[pos]
                if ch == ")" and stack and stack[-1][0] is not None:
                    pos += 1  # consume ')'
                    writes += 1  # close the list: store its last pointer
                    node, template, _ = stack.pop()
                    node.sealed = True
                else:
                    if len(stack) > _MAX_NESTING:
                        raise ParseError(
                            "nesting too deep for the device parser stack", position=pos
                        )
                    if ch == "(":
                        pos += 1  # consume '(' before the node is taken
                        allocs += 1
                        template = TemplateNode(_LIST)
                        stack.append((instantiate(template, ctx), template, pos - 1))
                        # The paper allocates a fresh environment per parsed
                        # list; we charge that cost here (materialized
                        # lazily at eval time).
                        allocs += 1
                        continue
                    if ch == ")":
                        raise ParseError("unexpected ')'", position=pos)
                    if ch == _QUOTE_SUGAR:
                        pos += 1  # consume the quote character
                        stack.append((None, None, pos))
                        continue
                    start = pos
                    if ch == '"':
                        # No escape sequences (like the paper).
                        close = text.find('"', start + 1)
                        if close < 0:
                            pos = n
                            raise ParseError("unterminated string", position=start)
                        pos = close + 1  # consume the closing quote
                    else:
                        # An atom runs up to the next marker.
                        pos = _ATOM.match(text, start).end()
                    token = text[start:pos]
                    if token.isdigit() and token.isascii() and len(token) <= _FAST_INT_DIGITS:
                        # classify_atom's dispatch step, then one
                        # PARSE_STEP + IMUL + ALU per digit.
                        steps += 1 + len(token)
                        digits += len(token)
                        template = TemplateNode(_INT, int(token))
                    elif ch in _CLASSIFY_START and token not in _SIGNS or token in _RESERVED:
                        cls, value = classify_atom(token, ctx)
                        ntype, field = _ATOM_FIELDS[cls]
                        template = TemplateNode(ntype)
                        if field is not None:
                            setattr(template, field, value)
                    else:
                        # A symbol: the dispatch step, plus the sign
                        # step of a lone sign's failed number parse.
                        steps += 2 if ch in _SIGNS else 1
                        template = TemplateNode(_SYMBOL, sval=token)
                    allocs += 1
                    node = instantiate(template, ctx)
                    node.sealed = True
                    if template.ntype > _TRUE:
                        writes += 1  # the value, once the take succeeded
                    if template.ntype == _SYMBOL and symtab is not None:
                        sym_id = symtab.id_of(token)
                        if sym_id is None:
                            sym_id = symtab.intern(token, ctx)
                        else:
                            probes += 1
                        node.sym_id = template.sym_id = sym_id
                # Hand the finished node to its frame: wrap it for each
                # pending quote, then link it into the open list.
                while stack:
                    parent, parent_template, _ = stack[-1]
                    if parent is None:
                        # Reader sugar: 'x -> (quote x). An extension over
                        # the paper.
                        stack.pop()
                        allocs += 1
                        wrapper = TemplateNode(_LIST)
                        quoted = instantiate(wrapper, ctx)
                        allocs += 1
                        quote = TemplateNode(_SYMBOL, sval="quote")
                        quote_sym = instantiate(quote, ctx)
                        quote_sym.sealed = True
                        writes += 5  # the symbol's value and four link writes
                        if symtab is not None:
                            quote_sym.sym_id = quote.sym_id = symtab.intern("quote", ctx)
                        quoted.append_child(quote_sym)
                        quoted.append_child(node)
                        wrapper.children = [quote, template]
                        node = quoted.seal()
                        template = wrapper
                        continue
                    # Two writes per linked child (first/last chain). The
                    # nodes of one parse share a region, so no write
                    # barrier can fire.
                    writes += 2
                    if parent.first is None:
                        parent.first = node
                    else:
                        parent.last.nxt = node
                    parent.last = node
                    node.linked = True
                    parent_template.children.append(template)
                    break
                else:
                    top.append(node)
                    templates.append(template)
            if not top:
                raise ParseError("empty input", position=0)
            return top, templates
        finally:
            # Every character the cursor reached, the terminator at n
            # included, was loaded exactly once: charge them as one run,
            # also when the parse stops early on an error, beside the
            # node tallies.
            source.load_run(0, min(pos, n) + 1)
            if steps:
                ctx.charge(Op.PARSE_STEP, steps)
            if digits:
                ctx.charge_many(_DIGIT_OPS, digits)
            if allocs:
                ctx.charge(Op.NODE_ALLOC, allocs)
            if writes:
                ctx.charge(Op.NODE_WRITE, writes)
            if probes:
                ctx.charge(Op.HASH_PROBE, probes)
