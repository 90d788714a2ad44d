"""Property: generational region reclamation is observationally
identical to the full mark-sweep oracle.

On randomized programs (defuns, setqs, lets, nested arithmetic, repeated
commands) the generational policy must print the same results as the
literal policy — the paper's uncharged full mark-sweep, the oracle — *and*
leave a bit-identical reachable heap after every between-command
collection: same structure, same values, same sharing. Literal mode must
never touch the region machinery at all.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.context import NullContext
from repro.core.gc import gather_roots
from repro.core.interpreter import Interpreter, InterpreterOptions
from repro.core.nodes import REGION_TENURED
from repro.errors import LispError
from tests.conftest import allocated_nodes

NAMES = ("alpha", "beta", "gamma-value", "delta")
FNAMES = ("combine", "triangle-step", "mix-values")
OPS = ("+", "-", "*", "max", "min")

ints = st.integers(min_value=-50, max_value=50)


@st.composite
def exprs(draw, bound: tuple, depth: int = 0):
    choices = ["int", "int", "list"]
    if bound:
        choices.append("var")
    if depth < 3:
        choices.extend(["arith", "let", "if"])
    kind = draw(st.sampled_from(choices))
    if kind == "int":
        return str(draw(ints))
    if kind == "list":
        items = " ".join(str(draw(ints)) for _ in range(draw(st.integers(1, 4))))
        return f"(list {items})"
    if kind == "var":
        return draw(st.sampled_from(bound))
    if kind == "arith":
        op = draw(st.sampled_from(OPS))
        a = draw(exprs(bound, depth + 1))
        b = draw(exprs(bound, depth + 1))
        return f"({op} {a} {b})"
    if kind == "let":
        var = draw(st.sampled_from(NAMES))
        init = draw(exprs(bound, depth + 1))
        body = draw(exprs(tuple(set(bound) | {var}), depth + 1))
        return f"(let (({var} {init})) {body})"
    test = draw(exprs(bound, depth + 1))
    then = draw(exprs(bound, depth + 1))
    els = draw(exprs(bound, depth + 1))
    return f"(if {test} {then} {els})"


@st.composite
def programs(draw):
    commands = []
    fname = draw(st.sampled_from(FNAMES))
    params = draw(
        st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True)
    )
    commands.append(f"(defun {fname} ({' '.join(params)}) "
                    f"{draw(exprs(tuple(params)))})")
    args = " ".join(str(draw(ints)) for _ in params)
    commands.append(f"({fname} {args})")
    var = draw(st.sampled_from(NAMES))
    commands.append(f"(setq {var} {draw(exprs(()))})")
    commands.append(var)
    # Structure-sharing escape: cons a *tenured* head onto a fresh
    # nursery tail (the chain-rewiring write barrier's hardest case),
    # and share a tenured tail via cdr/append views.
    other = draw(st.sampled_from([n for n in NAMES if n != var]))
    commands.append(f"(setq {other} (cons {var} (list {draw(ints)} {draw(ints)})))")
    commands.append(other)
    commands.append(f"(cdr {other})")
    # Re-bind: the old tenured value becomes tenure garbage.
    commands.append(f"(setq {var} {draw(exprs(()))})")
    commands.append(draw(exprs((var,))))
    commands.append(other)
    return commands


def heap_fingerprint(interp: Interpreter) -> str:
    """Canonical serialization of the reachable heap: type/value/link
    structure including sharing, independent of arena slot numbers."""
    seen: dict[int, int] = {}

    def ser(node) -> str:
        if node is None:
            return "-"
        if id(node) in seen:
            return f"@{seen[id(node)]}"
        seen[id(node)] = len(seen)
        fn = node.fn.name if node.fn is not None else "-"
        return (
            f"({node.ntype.name} {node.ival} {node.fval!r} {node.sval!r} {fn} "
            f"{ser(node.params)} {ser(node.first)} {ser(node.nxt)})"
        )

    return " ".join(ser(root) for root in gather_roots(interp))


def run_collected(commands: list, options: InterpreterOptions):
    """Run the program, collecting between commands; returns the outputs
    and the heap fingerprint after every collection."""
    interp = Interpreter(options=options)
    ctx = NullContext(max_depth=4096)
    outputs, heaps = [], []
    for command in commands:
        # Lisp-level errors are observable output too; collection must
        # reclaim the failed command's partial trees either way.
        try:
            outputs.append(interp.process(command, ctx))
        except LispError as exc:
            outputs.append(f"error: {exc}")
        interp.collect_garbage()
        heaps.append(heap_fingerprint(interp))
    return outputs, heaps, interp


@settings(max_examples=50, deadline=None)
@given(programs())
def test_generational_matches_full_sweep(commands):
    full_out, full_heaps, _ = run_collected(commands, InterpreterOptions())
    gen_out, gen_heaps, gen = run_collected(
        commands, InterpreterOptions(gc_policy="generational")
    )
    assert gen_out == full_out
    assert gen_heaps == full_heaps  # bit-identical reachable heaps
    # and the generational run really did take the region path:
    assert gen.gc_stats.minor_collections == len(commands)


@settings(max_examples=25, deadline=None)
@given(programs())
def test_minor_collection_leaves_no_live_nursery_nodes(commands):
    """Every node a minor collection leaves alive is tenured: the write
    barriers promoted the whole escaping set, so nothing reachable still
    carries a nursery tag (a region-tagged survivor would dangle on the
    next reset). Tenure garbage (e.g. a rebound setq's old value) may
    float until the major fallback — after it runs, the generational
    heap is *exactly* the eagerly-swept heap, node for node."""
    _, _, full = run_collected(commands, InterpreterOptions())
    _, _, gen = run_collected(commands, InterpreterOptions(gc_policy="generational"))
    assert all(node.region == REGION_TENURED for node in allocated_nodes(gen.arena))
    gen.collect_major()
    assert gen.arena.used == full.arena.used
    assert heap_fingerprint(gen) == heap_fingerprint(full)


@settings(max_examples=25, deadline=None)
@given(programs())
def test_literal_mode_never_resets_a_region(commands):
    _, _, literal = run_collected(commands, InterpreterOptions())
    assert literal.gc_stats.minor_collections == 0
    assert literal.gc_stats.pure_resets == 0
    assert not literal.arena.region_active
