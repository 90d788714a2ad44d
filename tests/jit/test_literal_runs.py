"""Literal runs on the JIT path: exactness against the per-node charges.

A traced form's literals are built (``ParseCache.materialize_chain``),
copied (``build_list``), folded (``+``/``-``/``*``) and printed
(``OutputBuffer.append_run``) as one charged run each, and must charge
what the per-node code charged (DESIGN.md, "Host-side charge folding"):
``PINS`` were recorded on the per-node implementation; the programs run
through :func:`tests.spec.runner.check_spec` and the builders' arena
exhaustion is checked unit by unit against :mod:`tests.spec.reference`;
the doubling tests hold every work counter to at most 2.2x per doubling.
"""

from __future__ import annotations

import sys

import pytest

from repro.context import CountingContext, NullContext
from repro.core.arena import NodeArena
from repro.core.builtins.helpers import build_list
from repro.core.interpreter import Interpreter, InterpreterOptions
from repro.core.nodes import NodeType
from repro.core.printer import Printer
from repro.core.reader import Parser
from repro.errors import ArenaExhaustedError, MemoryFaultError
from repro.gpu.cache import SetAssociativeCache
from repro.gpu.memory import OutputBuffer
from repro.jit import compile_form
from repro.ops import Op, Phase
from repro.runtime.parse_cache import ParseCache
from tests.core.test_host_work import TallyContext
from tests.spec import corpus
from tests.spec.corpus import EDGE_COMMANDS, hot_repl_commands
from tests.spec.reference import new_value, ref_append_run, ref_build_list, ref_chain
from tests.spec.runner import GTX1080_L2, PENALTY, check_spec, op_matrix, run_program

#: 32 B lines, 2 ways: most printed pieces meet a cold line.
SMALL_CACHE = (1, 32, 2)


# -- the hot-repl pins -----------------------------------------------------------------


_PARSE = {"ALU": 2208.0, "IMUL": 2208.0, "NODE_READ": 909.0, "NODE_WRITE": 4286.0,
          "NODE_ALLOC": 1765.0, "CHAR_LOAD": 3149.0, "PARSE_STEP": 6167.0,
          "HASH_PROBE": 38.0}
_EVAL = {"ALU": 1684.0, "IMUL": 80.0, "BRANCH": 3990.0, "CALL": 1988.0,
         "NODE_READ": 6996.0, "NODE_WRITE": 10488.0, "NODE_ALLOC": 3160.0,
         "ENV_STEP": 264.0, "SYM_CMP": 264.0, "HASH_PROBE": 264.0,
         "TRACE_STEP": 1584.0, "GUARD_CHECK": 52.0}
_PRINT = {"ALU": 4196.0, "IDIV": 4196.0, "NODE_READ": 2864.0,
          "CHAR_STORE": 5644.0, "PRINT_STEP": 5644.0}

#: Recorded on the per-node implementation: each literal built, copied
#: and printed with one call per charge.
PINS = {
    "gtx1080": ({}, {
        "ops": {"PARSE": _PARSE, "EVAL": _EVAL, "PRINT": _PRINT},
        "extra_cycles": [5222.75, 0.0, 3214.0, 0.0],
        "cache": [6016, 21],
        "materialized": 2441,
    }),
    "gtx1080-atomic-cursor": ({"atomic_arena_cursor": True}, {
        "ops": {"PARSE": {**_PARSE, "ATOMIC_RMW": 1740.0},
                "EVAL": {**_EVAL, "ATOMIC_RMW": 3044.0}, "PRINT": _PRINT},
        "extra_cycles": [5222.75, 0.0, 3214.0, 0.0],
        "cache": [6016, 21],
        "materialized": 2441,
    }),
    "literal-gc": ({"gc_policy": "literal"}, {
        "ops": {"PARSE": _PARSE, "EVAL": {**_EVAL, "NODE_WRITE": 10356.0},
                "PRINT": _PRINT},
        "extra_cycles": [5222.75, 0.0, 3214.0, 0.0],
        "cache": [6016, 21],
        "materialized": 2441,
    }),
    "small-cache": ({}, {
        "ops": {"PARSE": _PARSE, "EVAL": _EVAL, "PRINT": _PRINT},
        "extra_cycles": [31738.25, 0.0, 30131.25, 0.0],
        "cache": [5939, 154],
        "materialized": 2441,
    }),
}


#: The cache each pin ran on (the GTX 1080's L2 unless named here).
PIN_CACHES = {"small-cache": SMALL_CACHE}


@pytest.mark.parametrize("name", sorted(PINS))
def test_hot_repl_charges_match_the_per_node_pins(name):
    """Four rounds in one session of a JIT interpreter (threshold 3: the
    third sighting of a text runs traced)."""
    options, pin = PINS[name]
    run = run_program(hot_repl_commands(), InterpreterOptions.fast(jit=True, **options),
                      repeats=4, cache=PIN_CACHES.get(name, GTX1080_L2))
    assert run.jit["trace_hits"] == 26
    assert {key: getattr(run, key) for key in pin} == pin


# -- edge cases against the per-node reference ----------------------------------------

EDGE_OPTIONS = {
    "generational": ({}, GTX1080_L2),
    "atomic-cursor": ({"atomic_arena_cursor": True}, GTX1080_L2),
    "literal-gc": ({"gc_policy": "literal"}, GTX1080_L2),
    "small-cache": ({}, SMALL_CACHE),
}


@pytest.mark.parametrize("name", sorted(EDGE_OPTIONS))
def test_edge_programs_match_the_per_node_reference(name):
    """``(list x x)``, negative ints, nested and empty int lists, mixed
    int/float lists, type errors mid-fold and quoted structure, traced."""
    options, cache = EDGE_OPTIONS[name]
    run = check_spec(EDGE_COMMANDS, InterpreterOptions.fast(jit=True, **options),
                     repeats=4, cache=cache)
    assert run.jit["trace_hits"] >= 2 * (len(EDGE_COMMANDS) - 2)
    assert "(3 3)" in run.outputs and "((1 2) (3 -4) ())" in run.outputs


def test_output_overflow_mid_run_matches_the_per_node_reference():
    """An int list that overflows the output buffer falls back to the
    per-node path, which stores and charges the pieces that fit."""
    for capacity in corpus.OVERFLOW_CAPACITIES:
        check_spec(corpus.OVERFLOW_COMMANDS, InterpreterOptions.fast(jit=True), repeats=4,
                   cache=SMALL_CACHE, out_capacity=capacity)


def test_append_run_is_the_appends_it_replaces():
    """Same text, charges, cache accesses and penalties as one append per
    piece, also when the run overflows part way."""
    pieces = ["(", "12", " ", "", "-7", " ", "300000", ")"] * 9
    for capacity in (0, 1, 5, 40, 71, 1 << 10):
        observed = []
        for fill in (OutputBuffer.append_run, ref_append_run):
            ctx = CountingContext(cache=SetAssociativeCache(*SMALL_CACHE), miss_penalty=PENALTY)
            ctx.set_phase(Phase.PRINT)
            out = OutputBuffer(base=1000, capacity=capacity).bind(ctx)
            out.append("x" * min(capacity, 3))
            try:
                fill(out, pieces)
                error = None
            except MemoryFaultError as exc:
                error = str(exc)
            cache = ctx.cache
            observed.append((out.getvalue(), len(out), error, op_matrix(ctx.counts.rows),
                             list(ctx.extra_cycles), cache.stats.hits, cache.stats.misses))
        assert observed[0] == observed[1], capacity


def _template_args(text: str):
    """The argument templates of ``text``'s one form, as a trace holds them."""
    interp = Interpreter(InterpreterOptions.fast())
    cache = interp.parse_cache
    cache.put(text, Parser(interp, NullContext()).parse(text))
    return cache, tuple(cache.get_entry(text, NullContext()).templates[0].children[1:])


def _chain_outcome(build, text, room, atomic, starts) -> tuple:
    cache, args = _template_args(text)
    arena = NodeArena(capacity=room, atomic_cursor=atomic)
    arena.contention_width = 3  # fractional ATOMIC_RMW charges
    arena.begin_region()
    mark = arena.region_watermark()
    ctx = CountingContext()
    memo: dict = {}
    error = None
    shapes = []
    try:
        for start in starts:
            node = build(cache, args, start, arena, ctx, memo)
            chain = []
            while node is not None:
                chain.append((node.ntype, node.ival, node.linked, node.sealed))
                node = node.nxt
            shapes.append(chain)
    except ArenaExhaustedError as exc:
        error = str(exc)
    used = arena.used
    rollback = arena.rollback_region(mark)
    return (shapes, error, op_matrix(ctx.counts.rows), used, rollback, arena.used,
            arena.stats.as_dict(), arena.cursor.rmw_count,
            cache.stats.nodes_materialized)


@pytest.mark.parametrize("atomic", [False, True], ids=["bump", "atomic-cursor"])
def test_arena_exhaustion_mid_chain_matches_the_per_node_reference(atomic):
    """Same charges, error and rollback at every point a chain can run
    out, with list siblings and chains that meet an earlier one."""
    text = "(f 1 (g 2 (h 3) 4) -5 (quote (6 7)) 8 9)"
    for starts in ((0,), (3, 0), (1, 2, 5)):
        for room in range(1, 18):
            new = _chain_outcome(ParseCache.materialize_chain, text, room, atomic, starts)
            ref = _chain_outcome(ref_chain, text, room, atomic, starts)
            assert new == ref, (starts, room)


def _list_copy_outcome(build, room, atomic) -> tuple:
    interp = Interpreter(InterpreterOptions.fast())
    linked_parent = interp.arena.alloc(NodeType.N_LIST, NullContext())
    fresh = [interp.arena.new_int(i, NullContext()) for i in range(6)]
    for node in fresh[:3]:
        linked_parent.append_child(node)
    arena = interp.arena = NodeArena(capacity=room, atomic_cursor=atomic)
    arena.contention_width = 5
    arena.begin_region()
    mark = arena.region_watermark()
    ctx = CountingContext()
    values = [fresh[3], fresh[0], fresh[3], fresh[4], fresh[1], fresh[4], fresh[2]]
    error = None
    try:
        build(interp, values, ctx)
    except ArenaExhaustedError as exc:
        error = str(exc)
    flags = [(node.linked, node.nxt.idx if node.nxt else None) for node in fresh]
    used = arena.used
    return (error, flags, op_matrix(ctx.counts.rows), used, arena.rollback_region(mark),
            arena.stats.as_dict(), arena.cursor.rmw_count)


@pytest.mark.parametrize("atomic", [False, True], ids=["bump", "atomic-cursor"])
def test_arena_exhaustion_mid_list_copy_matches_the_per_node_reference(atomic):
    """``build_list`` over linked values and repeats (``(list x x)``):
    same charges, error, link state and rollback at every room size."""
    for room in range(1, 9):
        new = _list_copy_outcome(build_list, room, atomic)
        ref = _list_copy_outcome(ref_build_list, room, atomic)
        assert new == ref, room


@pytest.mark.parametrize("atomic", [False, True], ids=["bump", "atomic-cursor"])
def test_value_nodes_charge_what_alloc_and_write_charged(atomic):
    """A value node is one charge; running out charges the NODE_ALLOC
    (and the contended fetch-add) alone, as ``alloc`` did."""
    values = [(NodeType.N_INT, -7), (NodeType.N_FLOAT, 2.5),
              (NodeType.N_STRING, "s"), (NodeType.N_SYMBOL, "x")] * 2
    observed = []
    for make in (lambda arena, ntype, value, ctx:  # arena.new_int etc.
                 getattr(arena, "new_" + ntype.name[2:].lower())(value, ctx), new_value):
        arena = NodeArena(capacity=5, atomic_cursor=atomic)
        arena.contention_width = 4
        ctx = CountingContext()
        nodes = []
        with pytest.raises(ArenaExhaustedError) as failure:
            for ntype, value in values:
                nodes.append(make(arena, ntype, value, ctx))
        observed.append((
            [(n.ntype, n.ival, n.fval, n.sval, n.sealed) for n in nodes],
            str(failure.value), op_matrix(ctx.counts.rows), arena.stats.as_dict(),
            arena.cursor.rmw_count,
        ))
    assert observed[0] == observed[1]


# -- doubling: list width and output length ---------------------------------------------


def _trace_references(trace) -> int:
    """References a trace holds: its instructions plus the entries of
    every distinct sibling tuple they point at."""
    tuples = {id(ins.sibs): len(ins.sibs) for ins in trace.instrs}
    return len(trace.instrs) + sum(tuples.values())


def _compile_counters(n: int) -> dict:
    interp = Interpreter(InterpreterOptions.fast(jit=True))
    text = "(+ " + " ".join(str(i) for i in range(n)) + ")"
    cache = interp.parse_cache
    cache.put(text, Parser(interp, NullContext()).parse(text))
    template = cache.get_entry(text, NullContext()).templates[0]
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(count)
    try:
        trace = compile_form(template, interp)
    finally:
        sys.setprofile(None)
    return {"calls": calls, "instrs": len(trace), "references": _trace_references(trace)}


def _print_counters(n: int) -> dict:
    interp = Interpreter(InterpreterOptions.fast())
    arena, null = interp.arena, NullContext()
    lst = arena.alloc(NodeType.N_LIST, null)
    for i in range(n):
        lst.append_child(arena.new_int((-1) ** i * (i * 37 % 100_000), null))
    cache = SetAssociativeCache(*SMALL_CACHE)
    ctx = TallyContext(cache=cache, miss_penalty=PENALTY)
    out = OutputBuffer(base=1 << 20).bind(ctx)
    Printer(ctx).print_node(lst, out)
    return {"charge": ctx.calls["charge"] + ctx.calls["charge_many"],
            "touch": ctx.calls["touch"], "accesses": cache.stats.accesses,
            "chars": int(ctx.counts.count_of(Op.CHAR_STORE)), "length": len(out)}


@pytest.mark.parametrize("counters", [_compile_counters, _print_counters],
                         ids=["compile-n-literals", "print-n-ints"])
def test_work_grows_at_most_2_2x_per_doubling(counters):
    """Compile work and trace size of an n-literal form (each instruction
    once held a tuple of its following siblings: n(n-1)/2 references),
    and the print of n ints."""
    previous = counters(1000)
    for n in (2000, 4000):
        current = counters(n)
        for key, value in current.items():
            assert value <= 2.2 * previous[key], (key, n)
        previous = current


def test_an_8000_literal_trace_holds_linear_references():
    counters = _compile_counters(8000)
    assert counters["references"] <= 3 * 8000


def test_tallies_are_charged_before_a_user_form_runs(monkeypatch):
    """A user form's body can read the cycle counters (a nested |||), so
    the trace charges its tallies before calling one: the counts it sees
    are the per-instruction charges made so far."""
    interp = Interpreter(InterpreterOptions.fast(jit=True, jit_threshold=1))
    ctx = CountingContext()
    interp.process("(defun f (a b) (+ a b))", ctx)
    interp.process("(f 1 (+ 2 3))", ctx)
    seen = []
    original = interp.evaluator.apply_form_prevaluated

    def observe(*args, **kwargs):
        seen.append((ctx.counts.count_of(Op.TRACE_STEP, Phase.EVAL),
                     ctx.counts.count_of(Op.GUARD_CHECK, Phase.EVAL),
                     ctx.counts.count_of(Op.CALL, Phase.EVAL)))
        return original(*args, **kwargs)

    monkeypatch.setattr(interp.evaluator, "apply_form_prevaluated", observe)
    ctx.reset()
    assert interp.process("(f 1 (+ 2 3))", ctx) == "6"
    assert interp.jit_stats.trace_hits == 1
    # CONST 1, CONST 2, CONST 3, APPLY +, APPLY f; two preflight guards
    # and two apply guards; the + call.
    assert seen == [(5.0, 4.0, 1.0)]
