"""Literal runs on the JIT path: exactness against the per-node charges.

The trace executor builds a literal and the unbuilt rest of its sibling
chain in one charged run (``ParseCache.materialize_chain``),
``build_list`` copies linked values in one run, ``+``/``-``/``*`` charge
their steps in one run, and the printer prints a list of ints in one run
(``OutputBuffer.append_run``). Every op count, cache access and miss
penalty must stay what the per-node code charged (DESIGN.md, "Host-side
charge folding"):

* ``PINS`` hold the per-phase op matrix, ``extra_cycles`` and cache
  hits/misses of the hot-repl command set, traced on a cached context;
  they were recorded on the per-node implementation;
* the edge cases run each program, or each builder, twice: as it is, and
  with the per-node reference below (the replaced code) swapped in. The
  charges, errors, outputs and arena state must be equal;
* the doubling tests hold every work counter of the list-width and
  output-length axes to at most 2.2x per doubling.
"""

from __future__ import annotations

import contextlib
import random
import sys

import pytest

from repro.context import CountingContext, NullContext
from repro.core.arena import NodeArena
from repro.core.builtins import arithmetic, lists
from repro.core.builtins.helpers import build_list
from repro.core.interpreter import Interpreter, InterpreterOptions
from repro.core.nodes import REGION_TENURED, NodeType, promote_subgraph
from repro.core.printer import Printer
from repro.core.reader import Parser
from repro.errors import ArenaExhaustedError, LispError, MemoryFaultError
from repro.gpu.cache import SetAssociativeCache
from repro.gpu.memory import OutputBuffer, SourceBuffer
from repro.gpu.specs import GTX1080
from repro.jit import compile_form
from repro.ops import N_OPS, Op, Phase
from repro.runtime.parse_cache import ParseCache
from tests.core.test_host_work import TallyContext

# -- the per-node reference: the code the runs replaced -------------------------


def _ref_copy(cache, template, arena, ctx, memo):
    """The recursive copier: one call per charge, per node."""
    if memo is not None:
        done = memo.get(template)
        if done is not None:
            return done
    node = arena.alloc(template.ntype, ctx)
    ctx.charge(Op.NODE_READ)
    ctx.charge(Op.NODE_WRITE, 2)
    node.ival = template.ival
    node.fval = template.fval
    node.sval = template.sval
    node.sym_id = template.sym_id
    cache.stats.nodes_materialized += 1
    if memo is not None:
        memo[template] = node
    for child in template.children:
        node.append_child(_ref_copy(cache, child, arena, ctx, memo))
    return node.seal()


def _ref_chain(cache, sibs, index, arena, ctx, memo):
    """A literal, then its following siblings one copy at a time."""
    node = _ref_copy(cache, sibs[index], arena, ctx, memo)
    node.linked = True
    prev = node
    for sibling in sibs[index + 1:]:
        sib = _ref_copy(cache, sibling, arena, ctx, memo)
        sib.linked = True
        if prev.nxt is sib:
            break
        barrier_source = prev.region
        prev.nxt = sib
        if barrier_source == REGION_TENURED and sib.region > REGION_TENURED:
            promote_subgraph(sib)
        prev = sib
    return node


def _ref_build_list(interp, values, ctx):
    lst = interp.arena.alloc(NodeType.N_LIST, ctx)
    for value in values:
        ctx.charge(Op.NODE_WRITE, 2)
        lst.append_child(interp.linkable(value, ctx))
    return lst.seal()


def _ref_fold(values, who, total, step, int_op, float_op, ctx):
    for node in values:
        v = arithmetic.as_number(node, who)
        arithmetic._charge_binop(ctx, total, v, int_op, float_op)
        total = step(total, v)
    return total


def _ref_append_run(out, pieces):
    for piece in pieces:
        out.append(piece)


@contextlib.contextmanager
def per_node_reference(monkeypatch):
    """Run everything inside with the per-node reference swapped in."""
    with monkeypatch.context() as patch:
        patch.setattr(ParseCache, "materialize_chain",
                      lambda self, sibs, index, arena, ctx, memo:
                      _ref_chain(self, sibs, index, arena, ctx, memo))
        patch.setattr(ParseCache, "materialize",
                      lambda self, templates, arena, ctx:
                      [_ref_copy(self, t, arena, ctx, None) for t in templates])
        patch.setattr(ParseCache, "materialize_one",
                      lambda self, template, arena, ctx:
                      _ref_copy(self, template, arena, ctx, None))
        patch.setattr(lists, "build_list", _ref_build_list)
        patch.setattr(arithmetic, "_fold", _ref_fold)
        patch.setattr(Printer, "_print_int_run", lambda self, children, out: False)
        yield


# -- whole-program runs -------------------------------------------------------------


def _gtx1080_cache() -> SetAssociativeCache:
    return SetAssociativeCache(
        GTX1080.l2_kib, line_bytes=GTX1080.l2_line_bytes, assoc=GTX1080.l2_assoc
    )


def _small_cache() -> SetAssociativeCache:
    """32 B lines, 2 ways: most printed pieces meet a cold line."""
    return SetAssociativeCache(1, line_bytes=32, assoc=2)


#: DRAM penalty of a Pascal L2 miss in core cycles (as GPUDevice sets it).
PENALTY = 250.0 * GTX1080.core_clock_ghz


def _matrix(ctx: CountingContext) -> dict:
    matrix = {}
    for phase in Phase:
        row = ctx.counts.rows[phase]
        entries = {Op(i).name: row[i] for i in range(N_OPS) if row[i]}
        if entries:
            matrix[phase.name] = entries
    return matrix


def run_commands(commands, repeats=4, small_cache=False, out_capacity=1 << 20,
                 **options) -> dict:
    """Every observable of ``commands`` run ``repeats`` times in one session
    of a fresh JIT interpreter (threshold 3: the third sighting of a text
    runs traced), on a context with a GTX 1080-shaped L2."""
    interp = Interpreter(InterpreterOptions.fast(jit=True, **options))
    env = interp.create_session_env("pin")
    cache = _small_cache() if small_cache else _gtx1080_cache()
    ctx = CountingContext(cache=cache, miss_penalty=PENALTY)
    outputs = []
    for _ in range(repeats):
        for command in commands:
            out = OutputBuffer(base=1 << 20, capacity=out_capacity)
            try:
                result = interp.process(SourceBuffer(command, base=4096), ctx, out, env=env)
            except (LispError, MemoryFaultError) as exc:
                result = f"error: {type(exc).__name__}: {exc} | {out.getvalue()}"
                interp.abort_command()
            outputs.append(result)
            interp.collect_garbage()
    arena = interp.arena
    return {
        "ops": _matrix(ctx),
        "extra_cycles": list(ctx.extra_cycles),
        "cache": [cache.stats.hits, cache.stats.misses],
        "materialized": interp.parse_cache.stats.nodes_materialized,
        "outputs": outputs,
        "arena": [arena.used, arena.stats.allocs, arena.stats.frees,
                  arena.stats.peak_used, arena.cursor.rmw_count],
        "jit": interp.jit_stats.as_dict(),
    }


def _assert_same(runs: dict, reference: dict) -> None:
    for key in reference:
        assert runs[key] == reference[key], key


# -- the hot-repl pins -----------------------------------------------------------------


def hot_repl_commands(seed: int = 1) -> list[str]:
    """The hot-repl command set as perfbench draws it: three defuns, ten
    small calls and the 100/250/400-literal wide forms."""
    rng = random.Random(seed)
    commands = [
        "(defun sq (x) (* x x))",
        "(defun poly (x) (+ (* x x) (* 3 x) 7))",
        "(defun add3 (a b c) (+ a (+ b c)))",
    ]
    commands += [f"(sq {rng.randint(2, 60)})" for _ in range(4)]
    commands += [f"(poly {rng.randint(2, 60)})" for _ in range(3)]
    for _ in range(3):
        a, b, c = (rng.randint(1, 500) for _ in range(3))
        commands.append(f"(add3 {a} {b} {c})")
    for n in (100, 250):
        commands.append("(list " + " ".join(str(rng.randint(1, 999)) for _ in range(n)) + ")")
    commands.append("(+ " + " ".join(str(rng.randint(1, 999)) for _ in range(400)) + ")")
    return commands


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
    "small-cache": ({"small_cache": True}, {
        "ops": {"PARSE": _PARSE, "EVAL": _EVAL, "PRINT": _PRINT},
        "extra_cycles": [31738.25, 0.0, 30131.25, 0.0],
        "cache": [5939, 154],
        "materialized": 2441,
    }),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_hot_repl_charges_match_the_per_node_pins(name):
    options, pin = PINS[name]
    run = run_commands(hot_repl_commands(), **options)
    assert run["jit"]["trace_hits"] == 26
    assert {key: run[key] for key in pin} == pin


# -- edge cases against the per-node reference ----------------------------------------

EDGE_COMMANDS = [
    "(defun sq (x) (* x x))",
    "(setq x (+ 1 2))",
    "(list x x)",
    "(list -5 0 17 -300 -1)",
    "(quote ((1 2) (3 -4) ()))",
    "(list (list 1 2) (list) (list -3))",
    "(list 1 2.5 -3 4.0)",
    "(list 1 (quote (2 3)) 4)",
    "(+ 1 2 3.5 -4)",
    "(- 10 2 0.5)",
    "(* 2 3 4 1.5)",
    "(+ 1 2 (quote a) 4)",
    "(and 1 (or nil 2) 3)",
    "(if (< 1 2) (list 5 6 7) 8)",
    "(progn (setq y (list 4 5)) (list y y))",
    "(sq 7)",
    "(car (quote ()))",
]

EDGE_OPTIONS = {
    "generational": {},
    "atomic-cursor": {"atomic_arena_cursor": True},
    "literal-gc": {"gc_policy": "literal"},
    "small-cache": {"small_cache": True},
}


@pytest.mark.parametrize("name", sorted(EDGE_OPTIONS))
def test_edge_programs_match_the_per_node_reference(monkeypatch, name):
    """``(list x x)``, negative ints, nested and empty int lists, mixed
    int/float lists, type errors mid-fold and quoted structure, traced."""
    options = EDGE_OPTIONS[name]
    runs = run_commands(EDGE_COMMANDS, **options)
    with per_node_reference(monkeypatch):
        reference = run_commands(EDGE_COMMANDS, **options)
    _assert_same(runs, reference)
    assert runs["jit"]["trace_hits"] >= 2 * (len(EDGE_COMMANDS) - 2)
    assert "(3 3)" in runs["outputs"] and "((1 2) (3 -4) ())" in runs["outputs"]


def test_output_overflow_mid_run_matches_the_per_node_reference(monkeypatch):
    """An int list that overflows the output buffer falls back to the
    per-node path, which stores and charges the pieces that fit."""
    commands = ["(list 1 -22 333 -4444 55555 -666666)"]
    for capacity in range(0, 42, 3):
        runs = run_commands(commands, out_capacity=capacity, small_cache=True)
        with per_node_reference(monkeypatch):
            reference = run_commands(commands, out_capacity=capacity, small_cache=True)
        _assert_same(runs, reference)


def test_append_run_is_the_appends_it_replaces():
    """Same text, charges, cache accesses and penalties as one append per
    piece, also when the run overflows part way."""
    pieces = ["(", "12", " ", "", "-7", " ", "300000", ")"] * 9
    for capacity in (0, 1, 5, 40, 71, 1 << 10):
        observed = []
        for fill in (OutputBuffer.append_run, _ref_append_run):
            ctx = CountingContext(cache=_small_cache(), miss_penalty=PENALTY)
            ctx.set_phase(Phase.PRINT)
            out = OutputBuffer(base=1000, capacity=capacity).bind(ctx)
            out.append("x" * min(capacity, 3))
            try:
                fill(out, pieces)
                error = None
            except MemoryFaultError as exc:
                error = str(exc)
            cache = ctx.cache
            observed.append((out.getvalue(), len(out), error, _matrix(ctx),
                             list(ctx.extra_cycles), cache.stats.hits, cache.stats.misses))
        assert observed[0] == observed[1], capacity


def _template_args(text: str):
    """The argument templates of ``text``'s one form, as a trace holds them."""
    interp = Interpreter(InterpreterOptions.fast())
    cache = interp.parse_cache
    cache.put(text, Parser(interp, NullContext()).parse(text))
    return cache, tuple(cache.get(text, NullContext())[0].children[1:])


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
    return (shapes, error, _matrix(ctx), used, rollback, arena.used,
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
            ref = _chain_outcome(_ref_chain, text, room, atomic, starts)
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
    return (error, flags, _matrix(ctx), used, arena.rollback_region(mark),
            arena.stats.as_dict(), arena.cursor.rmw_count)


@pytest.mark.parametrize("atomic", [False, True], ids=["bump", "atomic-cursor"])
def test_arena_exhaustion_mid_list_copy_matches_the_per_node_reference(atomic):
    """``build_list`` over linked values and repeats (``(list x x)``):
    same charges, error, link state and rollback at every room size."""
    for room in range(1, 9):
        new = _list_copy_outcome(build_list, room, atomic)
        ref = _list_copy_outcome(_ref_build_list, room, atomic)
        assert new == ref, room


def _ref_new_value(arena, ntype, value, ctx):
    node = arena.alloc(ntype, ctx)
    ctx.charge(Op.NODE_WRITE)
    if ntype == NodeType.N_INT:
        node.set_int(value)
    elif ntype == NodeType.N_FLOAT:
        node.set_float(value)
    else:
        node.set_str(value)
    return node.seal()


_NEW_VALUE = {
    NodeType.N_INT: NodeArena.new_int,
    NodeType.N_FLOAT: NodeArena.new_float,
    NodeType.N_STRING: NodeArena.new_string,
    NodeType.N_SYMBOL: NodeArena.new_symbol,
}


@pytest.mark.parametrize("atomic", [False, True], ids=["bump", "atomic-cursor"])
def test_value_nodes_charge_what_alloc_and_write_charged(atomic):
    """A value node is one charge; running out charges the NODE_ALLOC
    (and the contended fetch-add) alone, as ``alloc`` did."""
    values = [(NodeType.N_INT, -7), (NodeType.N_FLOAT, 2.5),
              (NodeType.N_STRING, "s"), (NodeType.N_SYMBOL, "x")] * 2
    observed = []
    for make in (lambda arena, ntype, value, ctx: _NEW_VALUE[ntype](arena, value, ctx),
                 _ref_new_value):
        arena = NodeArena(capacity=5, atomic_cursor=atomic)
        arena.contention_width = 4
        ctx = CountingContext()
        nodes = []
        with pytest.raises(ArenaExhaustedError) as failure:
            for ntype, value in values:
                nodes.append(make(arena, ntype, value, ctx))
        observed.append((
            [(n.ntype, n.ival, n.fval, n.sval, n.sealed) for n in nodes],
            str(failure.value), _matrix(ctx), arena.stats.as_dict(),
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
    template = cache.get(text, NullContext())[0]
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
    cache = _small_cache()
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
