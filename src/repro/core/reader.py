"""The CuLi parser (paper §III-B-b, Fig. 4).

"The parser builds the parse tree, a tree of nodes describing the input
string. For this it reads the string character by character. An opening
parenthesis builds a new list ... The parser walks the string until it
sees a whitespace character, or an opening or closing parenthesis. These
characters are markers for the parser. The substring between the last
marker and the current marker is the input to generate a new node."

The modeled tokenizer is a single-pass cursor: every character is loaded
from :class:`~repro.gpu.memory.SourceBuffer` exactly once (one
``CHAR_LOAD`` + ``PARSE_STEP``, cache-modelled), like the C scanner it
stands in for. Parsing is therefore a serial, latency-bound scan on the
master thread — exactly the behaviour the paper identifies as CuLi's
bottleneck.

The host pays that scan as one run per parse. It first cuts the text
into the tokens the scan would read (:func:`_tokens`): a text of
whitespace and printable ASCII without a quote, string or comment mark
by spacing out its parentheses and splitting it, any other text by one
``findall`` of :data:`_TOKEN`. When the parse ends, normally or on an error,
:meth:`~repro.gpu.memory.SourceBuffer.load_run` charges positions
``0 .. stop`` (the terminator included at the end of the text), where
``stop`` is where the cursor would have stopped: the end of the text,
the start of a token that raised, or the end of the token whose node
could not be taken. Those are the same op counts, and the same cache
addresses in the same order, as one load per character, since no other
cache access happens inside a parse. Positions are worked out only on
the way out of a stopped parse (:func:`_span`).

The parse itself is one loop over the tokens, not a recursive descent:
the open list, its template and the quotes pending in it are locals, the
levels around it wait on a stack, and open lists plus pending quotes are
the nesting depth. Every node is one
:meth:`~repro.core.arena.NodeArena.take` whose value field the loop
writes; under the atomic arena cursor the take makes its own contended
fetch-add. A symbol's intern hit is found by one lookup in
:attr:`~repro.core.symtab.SymbolTable.ids`. :meth:`Parser.read`, whose
templates the parse cache keeps, also makes each node's
:class:`~repro.core.nodes.TemplateNode` in the same step, and a child
joins its parent node and its parent template together, so one scan
yields both the arena tree and the detached copy; :meth:`Parser.parse`
makes no template. Unsigned decimal ints, plain symbols and a lone
``+``/``-`` skip ``classify_atom``. The parse tallies its
``PARSE_STEP``, digit, ``NODE_ALLOC``, ``NODE_WRITE`` and intern-hit
``HASH_PROBE`` charges and adds them beside the scan run, so a parse
makes the same few charge calls however long its input is. The counts
are the ones a per-node builder charges; only the number of calls
differs.

Note on environments: the paper creates an environment per list at parse
time; we charge that allocation here but materialize environments lazily
during evaluation (see DESIGN.md deviations).
"""

from __future__ import annotations

import re
from itertools import islice
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
#: One token per match: the whitespace and ';' comments before it, then a
#: parenthesis or quote, a string (unclosed only at the end of the text),
#: an atom, or the end of the text as an empty token. A match cannot fail,
#: so the skip never backtracks.
_TOKEN = re.compile(
    f'(?:[{_WHITESPACE}]+|;[^\\n]*)*([()\']|"[^"]*"?|[^{_WHITESPACE}()]+|\\Z)'
)
#: A character other than the reader's whitespace and printable ASCII, or
#: a quote, string or comment mark. A text without one is tokenized by
#: spacing out its parentheses and splitting it at whitespace.
_NOT_PLAIN = re.compile(r"[^\t-\r !#-&(-:<-~]")
_MAX_NESTING = 512
_DIGITS = frozenset("0123456789")
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
_LIST, _SYMBOL, _INT, _FLOAT = (
    NodeType.N_LIST, NodeType.N_SYMBOL, NodeType.N_INT, NodeType.N_FLOAT)
#: The node type of each ``classify_atom`` class.
_ATOM_TYPES = {
    AtomClass.STRING: NodeType.N_STRING,
    AtomClass.NIL: NodeType.N_NIL,
    AtomClass.TRUE: NodeType.N_TRUE,
    AtomClass.INT: _INT,
    AtomClass.FLOAT: _FLOAT,
    AtomClass.SYMBOL: _SYMBOL,
}


def _tokens(text: str) -> tuple[list[str], bool]:
    """The tokens the character scan reads in ``text``, and whether the
    text is all ASCII.

    A plain text (no match of :data:`_NOT_PLAIN`) is cut by spacing out
    its parentheses and splitting it at whitespace: three string calls,
    where a regex pays one match per token. Any other text takes one
    ``findall`` of :data:`_TOKEN`. :func:`_span` re-finds a token's
    position with :data:`_TOKEN`, so on a plain text both cuts must give
    the same tokens.
    """
    if _NOT_PLAIN.search(text) is None:
        return text.replace("(", " ( ").replace(")", " ) ").split(), True
    tokens = _TOKEN.findall(text)
    del tokens[tokens.index(""):]
    return tokens, text.isascii()


def _span(text: str, index: int) -> tuple[int, int]:
    """Where token ``index`` of ``text`` starts and ends: the cursor
    positions an error or a failed take stops at."""
    return next(islice(_TOKEN.finditer(text), index, None)).span(1)


class Parser:
    """Char-by-char parser with an explicit cursor (no re-reads)."""

    def __init__(self, interp: "Interpreter", ctx: ExecContext) -> None:
        self.interp = interp
        self.ctx = ctx

    def parse(self, source: SourceBuffer | str, base_addr: int = 0) -> list[Node]:
        """Parse the whole input; returns the top-level forms in order."""
        return self._read(source, base_addr, False)[0]

    def read(
        self, source: SourceBuffer | str, base_addr: int = 0
    ) -> tuple[list[Node], list[TemplateNode]]:
        """Parse the whole input; returns the top-level forms in order and
        their templates."""
        return self._read(source, base_addr, True)

    def _read(
        self, source: SourceBuffer | str, base_addr: int, keep: bool
    ) -> tuple[list[Node], list[TemplateNode]]:
        """The one reader loop; it builds the templates too if ``keep``."""
        if isinstance(source, str):
            source = SourceBuffer(source, base=base_addr)
        ctx = self.ctx
        source.bind(ctx)
        text = source.text
        n = len(text)
        tokens, ascii_text = _tokens(text)
        arena = self.interp.arena
        take = arena.take
        symtab = arena.symtab
        interned = None if symtab is None else symtab.ids
        # The open list, its template, its '(' token and the quotes pending
        # in it; the levels around it wait on the stack.
        parent = parent_template = None
        opened = quotes = 0
        stack: list[tuple] = []
        # Open lists plus pending quotes: the device parser stack's height.
        depth = 0
        top: list[Node] = []
        templates: list[TemplateNode] = []
        i = 0
        # Where the cursor stopped, if not at the end of token i.
        stop = -1
        # The parse's node charges, tallied and charged once on every way out.
        steps = digits = allocs = writes = probes = 0
        try:
            for i, token in enumerate(tokens):
                ch = token[0]
                if ch == ")" and parent is not None and not quotes:
                    writes += 1  # close the list: store its last pointer
                    node = parent
                    node.sealed = True
                    template = parent_template
                    parent, parent_template, opened, quotes = stack.pop()
                    depth -= 1
                else:
                    if depth > _MAX_NESTING:
                        stop = _span(text, i)[0]
                        raise ParseError(
                            "nesting too deep for the device parser stack", position=stop
                        )
                    if ch == "(":
                        allocs += 1
                        node = take(_LIST, ctx)
                        # The paper allocates a fresh environment per parsed
                        # list; we charge that cost here (materialized
                        # lazily at eval time).
                        allocs += 1
                        stack.append((parent, parent_template, opened, quotes))
                        parent = node
                        parent_template = TemplateNode(_LIST) if keep else None
                        opened = i
                        quotes = 0
                        depth += 1
                        continue
                    if ch in _DIGITS and token.isdigit() and (ascii_text or token.isascii()) \
                            and (size := len(token)) <= _FAST_INT_DIGITS:
                        # classify_atom's dispatch step, then one
                        # PARSE_STEP + IMUL + ALU per digit.
                        steps += 1 + size
                        digits += size
                        ntype = _INT
                        value = int(token)
                    elif ch == ")":
                        stop = _span(text, i)[0]
                        raise ParseError("unexpected ')'", position=stop)
                    elif ch == _QUOTE_SUGAR:
                        quotes += 1
                        depth += 1
                        continue
                    elif ch in _CLASSIFY_START and token not in _SIGNS or token in _RESERVED:
                        if ch == '"' and (len(token) == 1 or token[-1] != '"'):
                            # No escape sequences (like the paper).
                            stop = n
                            raise ParseError("unterminated string", position=_span(text, i)[0])
                        cls, value = classify_atom(token, ctx)
                        ntype = _ATOM_TYPES[cls]
                    else:
                        # A symbol: the dispatch step, plus the sign
                        # step of a lone sign's failed number parse.
                        steps += 2 if ch in _SIGNS else 1
                        ntype = _SYMBOL
                        value = token
                    allocs += 1
                    node = take(ntype, ctx)
                    node.sealed = True
                    # The value, once the take succeeded (nil and T have none).
                    if ntype == _INT:
                        writes += 1
                        node.ival = value
                    elif ntype > _INT:
                        writes += 1
                        if ntype == _FLOAT:
                            node.fval = value
                        else:
                            node.sval = value
                            if ntype == _SYMBOL and interned is not None:
                                sym_id = interned.get(value)
                                if sym_id is None:
                                    sym_id = symtab.intern(value, ctx)
                                else:
                                    probes += 1
                                node.sym_id = sym_id
                    if keep:
                        template = TemplateNode(ntype, node.ival, node.fval, node.sval, node.sym_id)
                # Hand the finished node to its level: wrap it once per
                # pending quote, then link it into the open list.
                while quotes:
                    # Reader sugar: 'x -> (quote x). An extension over the
                    # paper.
                    quotes -= 1
                    depth -= 1
                    allocs += 1
                    quoted = take(_LIST, ctx)
                    allocs += 1
                    quote_sym = take(_SYMBOL, ctx)
                    quote_sym.sval = "quote"
                    quote_sym.sealed = True
                    writes += 5  # the symbol's value and four link writes
                    if symtab is not None:
                        quote_sym.sym_id = symtab.intern("quote", ctx)
                    quoted.append_child(quote_sym)
                    quoted.append_child(node)
                    node = quoted.seal()
                    if keep:
                        wrapper = TemplateNode(_LIST)
                        wrapper.children = [
                            TemplateNode(_SYMBOL, sval="quote", sym_id=quote_sym.sym_id), template
                        ]
                        template = wrapper
                if parent is None:
                    top.append(node)
                    if keep:
                        templates.append(template)
                    continue
                # Two writes per linked child (first/last chain). The nodes
                # of one parse share a region, so no write barrier can fire.
                writes += 2
                last = parent.last
                if last is None:
                    parent.first = node
                else:
                    last.nxt = node
                parent.last = node
                node.linked = True
                if keep:
                    parent_template.children.append(template)
            stop = n
            if quotes:
                raise ParseError("dangling quote", position=n)
            if parent is not None:
                raise ParseError("missing ')'", position=_span(text, opened)[0])
            if not top:
                raise ParseError("empty input", position=0)
            return top, templates
        finally:
            # Every character the cursor reached, the terminator at n
            # included, was loaded exactly once: charge them as one run,
            # also when the parse stops early on an error, beside the
            # node tallies.
            if stop < 0:
                stop = _span(text, i)[1]
            source.load_run(0, stop + 1)
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
