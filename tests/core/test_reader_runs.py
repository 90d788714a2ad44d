"""Differential pin: the run-charging parser against a per-character scan.

The parser charges its character loads as one run per parse
(:meth:`~repro.gpu.memory.SourceBuffer.load_run`) and builds its common
atoms inline, charging their tallies beside that run. The reference below
is the literal per-character recursive-descent parser: a cursor that
loads one character per step, charging ``CHAR_LOAD`` + ``PARSE_STEP`` and
touching the cache at that character's address, and a per-node builder
that allocates every node through ``NodeArena.alloc`` and the arena's
value constructors after ``classify_atom``. Both run the same seeded
corpus on twin interpreters and twin caches, and must agree exactly on op
counts, cache hits and misses, miss-penalty cycles, the parse tree with
every node's fields and arena index (so allocation order too), and every
error (type, message and position). The caches are every registry GPU
spec's L2, a tiny 2-way cache that thrashes, and none.
"""

from __future__ import annotations

import random

import pytest

from repro.context import CountingContext
from repro.core.interpreter import Interpreter, InterpreterOptions
from repro.core.nodes import NodeType
from repro.core.reader import _MAX_NESTING, _QUOTE_SUGAR, _WHITESPACE, Parser
from repro.errors import ParseError
from repro.gpu.cache import SetAssociativeCache
from repro.gpu.memory import SourceBuffer
from repro.gpu.specs import ALL_GPUS, FUTURE_GPUS
from repro.ops import Op, Phase
from repro.strlib import AtomClass, classify_atom

_SCAN_OPS = (Op.CHAR_LOAD, Op.PARSE_STEP)


class CharScanParser:
    """The per-character scanner: one charged load per cursor step, and
    one charged allocation per node."""

    def __init__(self, interp, ctx):
        self.interp = interp
        self.ctx = ctx

    def parse(self, source, base_addr=0):
        if isinstance(source, str):
            source = SourceBuffer(source, base=base_addr)
        source.bind(self.ctx)
        self._src = source
        self._text = source.text
        self._n = len(source.text)
        self._pos = -1
        self._next()  # load the first character
        top = []
        while True:
            self._skip_whitespace()
            if self._at_end:
                break
            top.append(self._parse_one(depth=0))
        if not top:
            raise ParseError("empty input", position=0)
        return top

    @property
    def _at_end(self):
        return self._pos >= self._n

    def _next(self):
        self._pos += 1
        if self._pos <= self._n:
            # One charged, cache-modelled load per character.
            self.ctx.charge_many(_SCAN_OPS)
            self.ctx.touch_memory(self._src.base + self._pos)
            self._ch = self._text[self._pos] if self._pos < self._n else "\0"
        else:
            self._ch = "\0"

    def _skip_whitespace(self):
        while not self._at_end:
            if self._ch in _WHITESPACE:
                self._next()
            elif self._ch == ";":
                while not self._at_end and self._ch != "\n":
                    self._next()
            else:
                return

    def _parse_one(self, depth):
        if depth > _MAX_NESTING:
            raise ParseError(
                "nesting too deep for the device parser stack", position=self._pos
            )
        ch = self._ch
        if ch == "(":
            return self._parse_list(depth)
        if ch == ")":
            raise ParseError("unexpected ')'", position=self._pos)
        if ch == _QUOTE_SUGAR and self.interp.options.quote_sugar:
            return self._parse_quoted(depth)
        if ch == '"':
            return self._parse_string()
        return self._parse_atom()

    def _parse_list(self, depth):
        ctx = self.ctx
        open_pos = self._pos
        self._next()
        lst = self.interp.arena.alloc(NodeType.N_LIST, ctx)
        ctx.charge(Op.NODE_ALLOC)
        while True:
            self._skip_whitespace()
            if self._at_end:
                raise ParseError("missing ')'", position=open_pos)
            if self._ch == ")":
                self._next()
                ctx.charge(Op.NODE_WRITE)
                return lst.seal()
            child = self._parse_one(depth + 1)
            ctx.charge(Op.NODE_WRITE, 2)
            lst.append_child(child)

    def _parse_quoted(self, depth):
        ctx = self.ctx
        arena = self.interp.arena
        self._next()
        self._skip_whitespace()
        if self._at_end:
            raise ParseError("dangling quote", position=self._pos)
        inner = self._parse_one(depth + 1)
        lst = arena.alloc(NodeType.N_LIST, ctx)
        quote_sym = arena.new_symbol("quote", ctx)
        ctx.charge(Op.NODE_WRITE, 4)
        lst.append_child(quote_sym)
        lst.append_child(inner)
        return lst.seal()

    def _parse_string(self):
        start = self._pos
        self._next()
        while not self._at_end and self._ch != '"':
            self._next()
        if self._at_end:
            raise ParseError("unterminated string", position=start)
        self._next()
        return self._make_atom(self._text[start : self._pos], start)

    def _parse_atom(self):
        start = self._pos
        while not self._at_end and self._ch not in _WHITESPACE and self._ch not in "()":
            self._next()
        token = self._text[start : self._pos]
        if not token:
            raise ParseError("empty atom", position=start)
        return self._make_atom(token, start)

    def _make_atom(self, token, position):
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
            return arena.new_int(int(value), ctx)
        if cls is AtomClass.FLOAT:
            return arena.new_float(float(value), ctx)
        return arena.new_symbol(token, ctx)


# -- corpus ---------------------------------------------------------------------

_ATOMS = (
    "0", "7", "42", "-17", "+5", "2.5", "-0.25", ".5", "5.", "2E3", "1e-3",
    "6.02E+23", "1e", "1.2.3", "+", "-", ".", "E", "12abc", "nil", "T", "t",
    "x", "foo-bar", "car", "setq", "|||", "a\0b", "\"\"", "\"a b (c) ; d\"",
    "-0", "007", "9" * 30, "E5", "1.", "NIL", "\u0661\u0662\u0663", "\u00b2", "a\"b",
)
_SPACE = (" ", "  ", "\t", "\n", "\r\n", "\v", "\f", " ; note\n", ";\n", "\n;;x\n ")


def _form(rng: random.Random, depth: int) -> str:
    roll = rng.random()
    if depth > 4 or roll < 0.45:
        return rng.choice(_ATOMS)
    if roll < 0.52:
        return "'" + rng.choice(("", " ")) + _form(rng, depth + 1)
    items = [_form(rng, depth + 1) for _ in range(rng.randint(0, 5))]
    inner = "".join(rng.choice(_SPACE) + item for item in items)
    return "(" + inner + rng.choice(("", " ", "\n")) + ")"


def _corpus() -> list[str]:
    rng = random.Random(16)
    texts = [
        "",
        "   ",
        "; only a comment",
        "; comment then form\n(+ 1 2)",
        "(a ; inner comment\n b)",
        '"unterminated',
        '(print "unterminated',
        ")",
        ") (a)",
        "(a))",
        "'",
        "(a ')",
        "' ",
        "(1 2",
        "(" * 513 + ")" * 513,
        "(" * 514 + ")" * 514,
        "(" * 513,
        "\0",
        "(a\0 \0b)",
        "x" * 300,
        "(" + "y" * 300 + " " + "7" * 300 + ")",
        '"' + "s" * 300 + '"',
        "(a) (b) (c)",
        "(list 1 2.5 \"s\" nil T 'q)",
        "'x",
        "+ - +5 -0 007 " + "1" * 30,
        "E E5 .5 1. nil T t NIL \u0661\u0662\u0663 \u00b2 a\"b",
        "(" + "1234567890" * 70 + ")",
    ]
    for _ in range(60):
        text = " ".join(_form(rng, 0) for _ in range(rng.randint(1, 3)))
        texts.append(rng.choice(("", " ", "\n")) + text + rng.choice(("", " ", ";c")))
    return texts


CORPUS = _corpus()


def _caches():
    geometries = [
        (f"l2-{spec.name}", (spec.l2_kib, spec.l2_line_bytes, spec.l2_assoc))
        for spec in (*ALL_GPUS, *FUTURE_GPUS)
    ]
    return [*geometries, ("thrash-1k-2way", (1, 128, 2)), ("no-cache", None)]


# -- the differential -------------------------------------------------------------


def _shape(node):
    return (
        node.idx,
        node.ntype,
        node.ival,
        node.fval,
        node.sval,
        node.sym_id,
        node.sealed,
        node.linked,
        node.region,
        tuple(_shape(child) for child in node.children()),
    )


class _Side:
    """One interpreter, one context and one cache: parses in sequence, so
    the cache state carries over between parses exactly as on a device."""

    def __init__(self, parser_cls, geometry, options):
        self.parser_cls = parser_cls
        self.cache = None if geometry is None else SetAssociativeCache(*geometry)
        # An irrational-ish penalty: a product of misses would round
        # differently from the repeated adds both sides must make.
        self.ctx = CountingContext(cache=self.cache, miss_penalty=0.1 * 3.7)
        self.ctx.set_phase(Phase.PARSE)
        self.interp = Interpreter(options=options)

    def parse(self, text, base):
        try:
            forms = self.parser_cls(self.interp, self.ctx).parse(
                SourceBuffer(text, base=base)
            )
        except Exception as exc:  # compared below, type and all
            outcome = (type(exc).__name__, str(exc), getattr(exc, "position", None))
        else:
            outcome = tuple(_shape(form) for form in forms)
        stats = None if self.cache is None else (self.cache.stats.hits, self.cache.stats.misses)
        return (
            outcome,
            [row[:] for row in self.ctx.counts.rows],
            list(self.ctx.extra_cycles),
            stats,
            self.interp.arena.used,
        )


def _run_differential(geometry, options, texts, seed):
    rng = random.Random(seed)
    ref = _Side(CharScanParser, geometry, options)
    run = _Side(Parser, geometry, options)
    for text in texts:
        base = rng.choice((0, 1, 127, 128, rng.randrange(0, 1 << 16)))
        expected = ref.parse(text, base)
        got = run.parse(text, base)
        assert got == expected, f"diverged on {text[:40]!r} at base {base}"


@pytest.mark.parametrize("name,geometry", _caches(), ids=[n for n, _ in _caches()])
def test_run_parser_matches_per_char_scan(name, geometry):
    _run_differential(geometry, InterpreterOptions(), CORPUS, seed=1)


@pytest.mark.parametrize(
    "options",
    [
        InterpreterOptions(quote_sugar=False),
        InterpreterOptions(intern_symbols=True, indexed_roots=True),
        InterpreterOptions(atomic_arena_cursor=True),
    ],
    ids=["no-quote-sugar", "interned", "atomic-cursor"],
)
def test_run_parser_matches_under_options(options):
    _run_differential((1, 128, 2), options, CORPUS, seed=2)


def test_arena_exhaustion_mid_parse_charges_the_same():
    # An arena too small for the tree fails part-way through the parse:
    # both scanners must have charged exactly the characters reached.
    used = Interpreter().arena.used
    text = "(a (b c) (d e f) (g h i j k))"
    for spare in range(1, 12):
        options = InterpreterOptions(arena_capacity=used + spare)
        _run_differential((1, 128, 2), options, [text, "(1 2 3)"], seed=spare)


def test_corpus_covers_every_outcome():
    # Guard the corpus itself: it must reach each error path and succeed.
    side = _Side(Parser, None, InterpreterOptions())
    outcomes = set()
    for text in CORPUS:
        outcome = side.parse(text, 0)[0]
        outcomes.add(outcome[1] if outcome and isinstance(outcome[0], str) else "ok")
    assert {
        "ok",
        "empty input",
        "unterminated string",
        "unexpected ')'",
        "dangling quote",
        "missing ')'",
        "nesting too deep for the device parser stack",
    } <= outcomes
