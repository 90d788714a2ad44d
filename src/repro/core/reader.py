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


class Parser:
    """Char-by-char parser with an explicit cursor (no re-reads)."""

    def __init__(self, interp: "Interpreter", ctx: ExecContext) -> None:
        self.interp = interp
        self.ctx = ctx
        self._text = ""
        self._n = 0
        self._pos = 0

    # -- public -----------------------------------------------------------------

    def parse(self, source: SourceBuffer | str, base_addr: int = 0) -> list[Node]:
        """Parse the whole input; returns the top-level forms in order."""
        if isinstance(source, str):
            source = SourceBuffer(source, base=base_addr)
        source.bind(self.ctx)
        self._text = text = source.text
        self._n = n = len(text)
        self._pos = 0
        try:
            top: list[Node] = []
            while True:
                self._skip_whitespace()
                if self._pos >= n:
                    break
                top.append(self._parse_one(depth=0))
            if not top:
                raise ParseError("empty input", position=0)
            return top
        finally:
            # Every character the cursor reached, the terminator at n
            # included, was loaded exactly once: charge them as one run,
            # also when the parse stops early on an error.
            source.load_run(0, min(self._pos, n) + 1)

    # -- cursor -------------------------------------------------------------------

    def _skip_whitespace(self) -> None:
        """Skip whitespace and ';' line comments (an extension — the
        paper has no comments; files pulled in via ``load`` keep their
        newlines, so comments terminate correctly there)."""
        pos = self._pos
        if pos < self._n and self._text[pos] in _SKIP_START:
            self._pos = _SKIP.match(self._text, pos).end()

    # -- grammar -------------------------------------------------------------------

    def _parse_one(self, depth: int) -> Node:
        if depth > _MAX_NESTING:
            raise ParseError(
                "nesting too deep for the device parser stack", position=self._pos
            )
        ch = self._text[self._pos]
        if ch == "(":
            return self._parse_list(depth)
        if ch == ")":
            raise ParseError("unexpected ')'", position=self._pos)
        if ch == _QUOTE_SUGAR and self.interp.options.quote_sugar:
            return self._parse_quoted(depth)
        if ch == '"':
            return self._parse_string()
        # An atom runs up to the next marker.
        start = self._pos
        self._pos = end = _ATOM.match(self._text, start).end()
        if end == start:
            raise ParseError("empty atom", position=start)
        return self._make_atom(self._text[start:end], start)

    def _parse_list(self, depth: int) -> Node:
        ctx = self.ctx
        arena = self.interp.arena
        text = self._text
        n = self._n
        open_pos = self._pos
        self._pos += 1  # consume '('
        lst = arena.alloc(NodeType.N_LIST, ctx)
        # The list's own writes are tallied and charged once, when it
        # closes or when the parse fails inside it: two per linked child
        # (first/last chain) and one to close it (store last pointer).
        writes = 0
        try:
            while True:
                pos = self._pos
                if pos < n and text[pos] in _SKIP_START:  # _skip_whitespace, inlined
                    pos = self._pos = _SKIP.match(text, pos).end()
                if pos >= n:
                    raise ParseError("missing ')'", position=open_pos)
                if text[pos] == ")":
                    self._pos = pos + 1  # consume ')'
                    writes += 1
                    return lst.seal()
                child = self._parse_one(depth + 1)
                writes += 2
                lst.append_child(child)
        finally:
            # The paper allocates a fresh environment per parsed list; we
            # charge that cost here (materialized lazily at eval time).
            ctx.charge(Op.NODE_ALLOC)
            ctx.charge(Op.NODE_WRITE, writes)

    def _parse_quoted(self, depth: int) -> Node:
        """Reader sugar: 'x -> (quote x). An extension over the paper."""
        ctx = self.ctx
        arena = self.interp.arena
        self._pos += 1  # consume the quote character
        self._skip_whitespace()
        if self._pos >= self._n:
            raise ParseError("dangling quote", position=self._pos)
        inner = self._parse_one(depth + 1)
        lst = arena.alloc(NodeType.N_LIST, ctx)
        quote_sym = arena.new_symbol("quote", ctx)
        ctx.charge(Op.NODE_WRITE, 4)
        lst.append_child(quote_sym)
        lst.append_child(inner)
        return lst.seal()

    def _parse_string(self) -> Node:
        """Scan a double-quoted string. No escape sequences (like the paper)."""
        start = self._pos
        close = self._text.find('"', start + 1)
        if close < 0:
            self._pos = self._n
            raise ParseError("unterminated string", position=start)
        self._pos = close + 1  # consume the closing quote
        return self._make_atom(self._text[start : self._pos], start)

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
