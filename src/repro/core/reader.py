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
descent: an open list is a frame holding its node and the position of its
``(``, a pending ``'`` quote is a frame too, and the stack height is the
nesting depth. Unsigned decimal ints, plain symbols and a lone ``+``/``-``
are built inline with :meth:`~repro.core.arena.NodeArena.take`; every
other atom goes through ``classify_atom``. The inline builders tally
their ``PARSE_STEP``, digit, ``NODE_ALLOC``, ``NODE_WRITE`` and intern-hit
``HASH_PROBE`` charges and add them beside the scan run, so a parse makes
the same few charge calls however long its input is. The counts are the
ones a per-node builder charges; only the number of calls differs.

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
from .nodes import Node, NodeType

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
#: Digits an int atom may have to be built inline: Python's ``int()``
#: refuses strings past its configured digit limit, which is at least 640.
_FAST_INT_DIGITS = 640
#: Per digit of an int atom, beside its PARSE_STEP.
_DIGIT_OPS = (Op.IMUL, Op.ALU)


class Parser:
    """Char-by-char parser with an explicit cursor (no re-reads)."""

    def __init__(self, interp: "Interpreter", ctx: ExecContext) -> None:
        self.interp = interp
        self.ctx = ctx

    def parse(self, source: SourceBuffer | str, base_addr: int = 0) -> list[Node]:
        """Parse the whole input; returns the top-level forms in order."""
        if isinstance(source, str):
            source = SourceBuffer(source, base=base_addr)
        ctx = self.ctx
        source.bind(ctx)
        text = source.text
        n = len(text)
        interp = self.interp
        arena = interp.arena
        take = arena.take
        cursor = arena.cursor if arena.atomic_cursor else None
        symtab = arena.symtab
        # One frame per open list, (node, position of its '('), and per
        # pending quote, (None, position after the quote character). The
        # stack height is the nesting depth.
        stack: list[tuple] = []
        top: list[Node] = []
        pos = 0
        # Tallies of the inline builders, charged once on every way out.
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
                    raise ParseError("missing ')'", position=stack[-1][1])
                ch = text[pos]
                if ch == ")" and stack and stack[-1][0] is not None:
                    pos += 1  # consume ')'
                    writes += 1  # close the list: store its last pointer
                    node = stack.pop()[0]
                    node.sealed = True
                else:
                    if len(stack) > _MAX_NESTING:
                        raise ParseError(
                            "nesting too deep for the device parser stack", position=pos
                        )
                    if ch == "(":
                        pos += 1  # consume '(' before the node is taken
                        allocs += 1
                        if cursor is not None:
                            cursor.fetch_add_contended(1, ctx, arena.contention_width)
                        stack.append((take(NodeType.N_LIST), pos - 1))
                        # The paper allocates a fresh environment per parsed
                        # list; we charge that cost here (materialized
                        # lazily at eval time).
                        allocs += 1
                        continue
                    if ch == ")":
                        raise ParseError("unexpected ')'", position=pos)
                    if ch == _QUOTE_SUGAR:
                        pos += 1  # consume the quote character
                        stack.append((None, pos))
                        continue
                    start = pos
                    if ch == '"':
                        # No escape sequences (like the paper).
                        close = text.find('"', start + 1)
                        if close < 0:
                            pos = n
                            raise ParseError("unterminated string", position=start)
                        pos = close + 1  # consume the closing quote
                        node = self._make_atom(text[start:pos], start)
                    else:
                        # An atom runs up to the next marker.
                        pos = _ATOM.match(text, start).end()
                        token = text[start:pos]
                        if token.isdigit() and token.isascii() and len(token) <= _FAST_INT_DIGITS:
                            # classify_atom's dispatch step, then one
                            # PARSE_STEP + IMUL + ALU per digit.
                            steps += 1 + len(token)
                            digits += len(token)
                            allocs += 1
                            if cursor is not None:
                                cursor.fetch_add_contended(1, ctx, arena.contention_width)
                            node = take(NodeType.N_INT)
                            writes += 1
                            node.ival = int(token)
                            node.sealed = True
                        elif ch in _CLASSIFY_START and token not in _SIGNS or token in _RESERVED:
                            node = self._make_atom(token, start)
                        else:
                            # A symbol: the dispatch step, plus the sign
                            # step of a lone sign's failed number parse.
                            steps += 2 if ch in _SIGNS else 1
                            allocs += 1
                            if cursor is not None:
                                cursor.fetch_add_contended(1, ctx, arena.contention_width)
                            node = take(NodeType.N_SYMBOL)
                            writes += 1
                            node.sval = token
                            if symtab is not None:
                                sym_id = symtab.id_of(token)
                                if sym_id is None:
                                    sym_id = symtab.intern(token, ctx)
                                else:
                                    probes += 1
                                node.sym_id = sym_id
                            node.sealed = True
                # Hand the finished node to its frame: wrap it for each
                # pending quote, then link it into the open list.
                while stack:
                    parent = stack[-1][0]
                    if parent is None:
                        # Reader sugar: 'x -> (quote x). An extension over
                        # the paper.
                        stack.pop()
                        quoted = arena.alloc(NodeType.N_LIST, ctx)
                        quote_sym = arena.new_symbol("quote", ctx)
                        writes += 4
                        quoted.append_child(quote_sym)
                        quoted.append_child(node)
                        node = quoted.seal()
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
                    break
                else:
                    top.append(node)
            if not top:
                raise ParseError("empty input", position=0)
            return top
        finally:
            # Every character the cursor reached, the terminator at n
            # included, was loaded exactly once: charge them as one run,
            # also when the parse stops early on an error, beside the
            # builders' tallies.
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

    def _make_atom(self, token: str, position: int) -> Node:
        ctx = self.ctx
        arena = self.interp.arena
        cls, value = classify_atom(token, ctx)
        if cls is AtomClass.STRING:
            return arena.new_string(str(value), ctx)
        if cls is AtomClass.NIL:
            return arena.new_nil(ctx)
        if cls is AtomClass.TRUE:
            return arena.new_true(ctx)
        if cls is AtomClass.INT:
            return arena.new_int(int(value), ctx)  # type: ignore[arg-type]
        if cls is AtomClass.FLOAT:
            return arena.new_float(float(value), ctx)  # type: ignore[arg-type]
        return arena.new_symbol(token, ctx)
