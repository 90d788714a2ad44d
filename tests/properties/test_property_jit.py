"""Property: the JIT trace tier is observationally identical to
tree-walking — the differential pin that lets the trace executor exist.

Randomized programs cover the surface the ISSUE names: defines,
recursion, macros, higher-order functions, and strings. Every program
runs through :func:`tests.spec.runner.differential_check`, which
demands

* byte-identical outputs *and* retained-heap snapshots when traces run
  (hot JIT vs jit-off),
* a byte-identical op-charge matrix when the JIT is enabled but cold,
* zero ``TRACE_STEP``/``GUARD_CHECK`` charges from the tree-walker,

under both ``gc_policy`` modes. Macro calls and node-level heads
(``mapcar``, ``funcall``) compile-bail or guard-bail by design; the pin
holds regardless of which tier actually ran a given form.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.context import CountingContext
from repro.core.interpreter import Interpreter, InterpreterOptions
from repro.errors import LispError
from repro.ops import Op
from tests.spec.runner import differential_check, run_program

NAMES = ("alpha", "beta", "gamma-value", "delta", "accumulator-total")
FNAMES = ("combine", "triangle-step", "mix-values")
MNAMES = ("twice-of", "pick-larger")
OPS = ("+", "-", "*", "max", "min")
STRINGS = ("spam", "ham and eggs", "", "Norwegian Blue")
GC_POLICIES = ("literal", "generational")

ints = st.integers(min_value=-50, max_value=50)


@st.composite
def exprs(draw, bound: tuple, depth: int = 0):
    choices = ["int", "int"]
    if bound:
        choices.append("var")
    if depth < 3:
        choices.extend(["arith", "let", "if", "logic", "quote"])
    kind = draw(st.sampled_from(choices))
    if kind == "int":
        return str(draw(ints))
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
    if kind == "logic":
        op = draw(st.sampled_from(("and", "or")))
        a = draw(exprs(bound, depth + 1))
        b = draw(exprs(bound, depth + 1))
        return f"({op} {a} {b})"
    if kind == "quote":
        a = draw(ints)
        b = draw(ints)
        return f"(quote ({a} {b} inner-sym))"
    test = draw(exprs(bound, depth + 1))
    then = draw(exprs(bound, depth + 1))
    els = draw(exprs(bound, depth + 1))
    return f"(if {test} {then} {els})"


@st.composite
def string_commands(draw):
    a = draw(st.sampled_from(STRINGS))
    b = draw(st.sampled_from(STRINGS))
    kind = draw(st.sampled_from(("append", "upcase", "length", "compare")))
    if kind == "append":
        return f'(string-append "{a}" (string-downcase "{b}"))'
    if kind == "upcase":
        return f'(string-upcase (string-append "{a}" "{b}"))'
    if kind == "length":
        return f'(+ (string-length "{a}") (string-length "{b}"))'
    return f'(if (string= "{a}" "{b}") 1 0)'


@st.composite
def programs(draw):
    """A command sequence covering defines, recursion, macros,
    higher-order functions, and strings — plus plain traceable forms."""
    commands = []
    # A (possibly recursive) defun, then calls to it.
    fname = draw(st.sampled_from(FNAMES))
    params = draw(
        st.lists(st.sampled_from(NAMES), min_size=1, max_size=2, unique=True)
    )
    if draw(st.booleans()):
        n = params[0]
        step = draw(exprs(tuple(params), depth=2))
        commands.append(
            f"(defun {fname} ({' '.join(params)}) "
            f"(if (< {n} 1) 0 (+ {step} ({fname} (- {n} 1)"
            + " ".join(" " + p for p in params[1:])
            + "))))"
        )
        args = " ".join(str(draw(st.integers(0, 8))) for _ in params)
    else:
        body = draw(exprs(tuple(params)))
        commands.append(f"(defun {fname} ({' '.join(params)}) {body})")
        args = " ".join(str(draw(ints)) for _ in params)
    commands.append(f"({fname} {args})")
    # A macro definition and a call through it (macro heads bail the
    # trace tier at preflight; the fallback must stay byte-identical).
    mname = draw(st.sampled_from(MNAMES))
    if mname == "twice-of":
        commands.append(f"(defmacro {mname} (e) (list (quote +) e e))")
    else:
        commands.append(
            f"(defmacro {mname} (a b) (list (quote max) a b))"
        )
        commands.append(f"({mname} {draw(ints)} {draw(ints)})")
    commands.append(f"({mname} {draw(exprs(()))})" if mname == "twice-of"
                    else f"({mname} {draw(ints)} (+ 1 2))")
    # Higher-order: node-level heads the compiler refuses to trace.
    commands.append(
        f"(mapcar (lambda (x) (* x {draw(st.integers(1, 5))})) "
        f"(list {draw(ints)} {draw(ints)} {draw(ints)}))"
    )
    commands.append(f"(funcall (quote {draw(st.sampled_from(OPS))}) "
                    f"{draw(st.integers(1, 9))} {draw(st.integers(1, 9))})")
    # Strings.
    commands.append(draw(string_commands()))
    # Session state plus reads over it — the traced bread and butter.
    var = draw(st.sampled_from(NAMES))
    commands.append(f"(setq {var} {draw(exprs(()))})")
    commands.append(var)
    commands.append(draw(exprs((var,))))
    return commands


@pytest.mark.parametrize("gc_policy", GC_POLICIES)
@settings(max_examples=20, deadline=None)
@given(commands=programs())
def test_jit_pinned_to_treewalk(gc_policy, commands):
    """The full three-way pin, per gc policy: hot traces match outputs
    and retained heap; cold JIT matches the op matrix bit-for-bit."""
    differential_check(commands, repeats=3, gc_policy=gc_policy)


@settings(max_examples=25, deadline=None)
@given(commands=programs())
def test_hot_traces_actually_run(commands):
    """Guard against a vacuous pin: with threshold 1 and three replays,
    random programs must actually compile and execute traces."""
    record = differential_check(commands, repeats=3)
    assert record.jit["traces_compiled"] >= 1
    assert record.jit["trace_hits"] >= 1


@settings(max_examples=25, deadline=None)
@given(commands=programs())
def test_treewalk_never_charges_trace_ops(commands):
    """Cost-model fidelity: with the JIT off — whether literal-mode or
    full fast path — no TRACE_STEP or GUARD_CHECK may ever be charged."""
    for options in (InterpreterOptions(), InterpreterOptions.fast()):
        interp = Interpreter(options=options)
        ctx = CountingContext(max_depth=4096)
        for command in commands:
            try:
                interp.process(command, ctx)
            except LispError:
                interp.abort_command()
        assert ctx.counts.count_of(Op.TRACE_STEP) == 0
        assert ctx.counts.count_of(Op.GUARD_CHECK) == 0


@pytest.mark.parametrize("gc_policy", GC_POLICIES)
def test_retained_structure_survives_tracing(gc_policy):
    """Deterministic heap-parity case: traced commands that *retain*
    structure (setq of quoted lists, cons onto session state) must leave
    the same nodes, links, and flags as tree-walking, under every GC."""
    commands = [
        "(setq alpha (quote (1 2 3)))",
        "(setq beta (cons 0 alpha))",
        "(setq gamma-value (append beta (list 9 8)))",
        "(length gamma-value)",
        "(car (cdr beta))",
    ]
    differential_check(commands, repeats=4, gc_policy=gc_policy)


def test_error_outputs_are_pinned_too():
    """Lisp-level errors are observable outputs; the trace tier must
    produce the identical error text and leave the identical heap."""
    commands = [
        "(setq alpha 5)",
        "(+ alpha (quote (1 2)))",   # type error, hot or cold
        "(/ alpha 0)",               # division error
        "(+ alpha 1)",               # and the session still works
    ]
    record = differential_check(commands, repeats=3)
    assert any(out.startswith("error:") for out in record.outputs)


def test_run_sequence_jit_counters_off_mode():
    """jit=False runs report all-zero counters (the RunRecord contract)."""
    record = run_program(
        ["(+ 1 2)"],
        InterpreterOptions(parse_cache_capacity=64),
        repeats=2,
    )
    assert record.jit == {
        "traces_compiled": 0, "trace_hits": 0, "guard_bails": 0
    }
