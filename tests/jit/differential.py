"""The differential-testing harness that pins the JIT to the tree-walker.

The trace tier forks the evaluator, so correctness is defined *by
diff*: run the same command sequence through two interpreter
configurations and demand byte-identical observables. Three observables
cover the contract:

* **outputs** — the printed result of every command,
* **retained heap** — the session environment serialized with
  :func:`~repro.runtime.snapshot.snapshot_env` after the sequence (node
  kinds, values, links, *and* linked/sealed flags, so copy-on-link
  behaviour stays pinned too),
* **charged ops** — the full per-phase op-count matrix.

Op identity across the tiers is asserted where it must hold exactly:
with the JIT *enabled but cold* (promotion threshold never reached) the
charge stream must match a jit-off run bit-for-bit, and a jit-off run
must never charge ``TRACE_STEP``/``GUARD_CHECK`` at all. When traces
actually run, outputs and retained heap must still match while the op
mix is allowed to differ — that difference *is* the modeled speedup,
and DESIGN.md deviation #10 carries the fidelity argument.

Used by ``tests/properties/test_property_jit.py`` (hypothesis-random
programs) and importable as ``tests.jit.differential`` from the repo
root for bug repros.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.context import CountingContext
from repro.core.interpreter import Interpreter, InterpreterOptions
from repro.errors import LispError
from repro.ops import N_OPS, Op, Phase
from repro.runtime.snapshot import snapshot_env

__all__ = ["RunRecord", "run_sequence", "assert_equivalent", "differential_check"]

#: Depth budget for harness runs (matches the property-suite contexts).
MAX_DEPTH = 4096


@dataclass
class RunRecord:
    """Everything observable about one configuration's run."""

    outputs: list[str] = field(default_factory=list)
    #: phase name -> op name -> charge count (zero rows omitted)
    op_counts: dict = field(default_factory=dict)
    #: snapshot_env(...).to_dict() of the session scope after the run
    heap: Optional[dict] = None
    #: jit counters observed (all zero when the option is off)
    jit: dict = field(default_factory=dict)


def _count_matrix(ctx: CountingContext) -> dict:
    matrix: dict = {}
    for phase in Phase:
        row = ctx.counts.rows[phase]
        entries = {
            Op(i).name: int(row[i]) for i in range(N_OPS) if row[i]
        }
        if entries:
            matrix[phase.name] = entries
    return matrix


def run_sequence(
    commands: Sequence[str],
    options: InterpreterOptions,
    repeats: int = 1,
) -> RunRecord:
    """Run ``commands`` through a fresh interpreter + session scope.

    ``repeats`` replays the whole sequence that many times (same
    interpreter, same session), which is how a test heats the parse
    cache past the JIT promotion threshold while keeping the command
    list itself small. Lisp-level errors are part of the observable
    behaviour: they are captured as ``error: ...`` outputs, exactly as
    the serving layer reports them, and the run continues.
    """
    interp = Interpreter(options)
    env = interp.create_session_env("difftest")
    ctx = CountingContext(max_depth=MAX_DEPTH)
    record = RunRecord()
    for _ in range(repeats):
        for command in commands:
            try:
                record.outputs.append(interp.process(command, ctx, env=env))
            except LispError as exc:
                record.outputs.append(f"error: {exc}")
                interp.abort_command()
            else:
                if interp.options.gc_after_command:
                    interp.collect_garbage()
    record.op_counts = _count_matrix(ctx)
    record.heap = snapshot_env(env, "difftest").to_dict()
    record.jit = interp.jit_stats.as_dict()
    return record


def assert_equivalent(
    a: RunRecord,
    b: RunRecord,
    label_a: str = "a",
    label_b: str = "b",
    compare_ops: bool = False,
    compare_heap: bool = True,
) -> None:
    """Demand byte-identical observables between two runs."""
    if a.outputs != b.outputs:
        for i, (out_a, out_b) in enumerate(zip(a.outputs, b.outputs)):
            if out_a != out_b:
                raise AssertionError(
                    f"output diverged at command {i}: "
                    f"{label_a}={out_a!r} {label_b}={out_b!r}"
                )
        raise AssertionError(
            f"output count diverged: {label_a}={len(a.outputs)} "
            f"{label_b}={len(b.outputs)}"
        )
    if compare_heap and a.heap != b.heap:
        raise AssertionError(
            f"retained heap diverged between {label_a} and {label_b}: "
            f"{_heap_delta(a.heap, b.heap)}"
        )
    if compare_ops and a.op_counts != b.op_counts:
        raise AssertionError(
            f"charged ops diverged between {label_a} and {label_b}: "
            f"{_ops_delta(a.op_counts, b.op_counts)}"
        )


def _heap_delta(heap_a: Optional[dict], heap_b: Optional[dict]) -> str:
    if heap_a is None or heap_b is None:
        return "one run has no heap snapshot"
    nodes_a, nodes_b = heap_a.get("nodes", []), heap_b.get("nodes", [])
    if len(nodes_a) != len(nodes_b):
        return f"node counts {len(nodes_a)} vs {len(nodes_b)}"
    for i, (row_a, row_b) in enumerate(zip(nodes_a, nodes_b)):
        if row_a != row_b:
            return f"node {i}: {row_a!r} vs {row_b!r}"
    return f"bindings {heap_a.get('bindings')!r} vs {heap_b.get('bindings')!r}"


def _ops_delta(ops_a: dict, ops_b: dict) -> str:
    for phase in sorted(set(ops_a) | set(ops_b)):
        row_a, row_b = ops_a.get(phase, {}), ops_b.get(phase, {})
        if row_a != row_b:
            diffs = [
                f"{op}: {row_a.get(op, 0)} vs {row_b.get(op, 0)}"
                for op in sorted(set(row_a) | set(row_b))
                if row_a.get(op, 0) != row_b.get(op, 0)
            ]
            return f"phase {phase}: " + ", ".join(diffs)
    return "identical (bug in comparison?)"


def differential_check(
    commands: Sequence[str],
    repeats: int = 4,
    **common_options,
) -> RunRecord:
    """The standard three-way pin for one command sequence.

    1. *hot JIT* (low threshold, ``repeats`` replays) vs the identical
       configuration with ``jit=False``: outputs and retained heap must
       be byte-identical (op mix may differ — that is the speedup);
    2. *cold JIT* (threshold never reached) vs ``jit=False``: the whole
       op matrix must additionally be byte-identical;
    3. the jit-off run must charge zero ``TRACE_STEP``/``GUARD_CHECK``.

    ``common_options`` are forwarded to every configuration (e.g.
    ``gc_policy="generational"``). Returns the hot-JIT record so tests
    can make further assertions (e.g. that traces actually ran).
    """
    common_options.setdefault("parse_cache_capacity", 256)
    jit_hot = run_sequence(
        commands,
        InterpreterOptions(jit=True, jit_threshold=1, **common_options),
        repeats=repeats,
    )
    walk = run_sequence(
        commands,
        InterpreterOptions(jit=False, **common_options),
        repeats=repeats,
    )
    assert_equivalent(jit_hot, walk, "jit-hot", "tree-walk")
    jit_cold = run_sequence(
        commands,
        InterpreterOptions(jit=True, jit_threshold=10**9, **common_options),
        repeats=repeats,
    )
    assert_equivalent(
        jit_cold, walk, "jit-cold", "tree-walk", compare_ops=True
    )
    for phase_row in walk.op_counts.values():
        assert "TRACE_STEP" not in phase_row and "GUARD_CHECK" not in phase_row, (
            "tree-walk run charged trace-tier ops"
        )
    return jit_hot
