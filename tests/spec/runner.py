"""The one differential runner: a command sequence through one interpreter,
every observable recorded.

:func:`check_spec` runs texts as they are and under the per-unit
reference (:func:`tests.spec.reference.installed`) and demands every
observable equal. :func:`differential_check` is the trace tier's
three-way contract on the same runner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.context import CountingContext
from repro.core.interpreter import Interpreter, InterpreterOptions
from repro.core.printer import Printer
from repro.cpu.specs import INTEL_E5_2620
from repro.errors import CuLiError
from repro.gpu.cache import SetAssociativeCache
from repro.gpu.memory import OutputBuffer, SourceBuffer
from repro.gpu.specs import GTX1080
from repro.ops import N_OPS, Op, Phase
from repro.runtime.snapshot import snapshot_env
from tests.conftest import counters
from tests.spec.reference import installed

#: The GTX 1080's L2: (KiB, line bytes, ways).
GTX1080_L2 = (GTX1080.l2_kib, GTX1080.l2_line_bytes, GTX1080.l2_assoc)
#: DRAM penalty of a Pascal L2 miss in core cycles (as GPUDevice sets it).
PENALTY = 250.0 * GTX1080.core_clock_ghz


@dataclass
class RunRecord:
    """Everything observable about one run. Per command: its text, output
    (or error), prepared forms, the templates a parse-cache miss stored
    and a trail entry of op rows, ``extra_cycles``, cache hits and misses
    and arena counters. At the end: every trail row in cycles, the
    retained heap (``snapshot_env``) and the JIT and parse-cache
    counters."""

    commands: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    forms: list = field(default_factory=list)
    templates: list = field(default_factory=list)
    trail: list = field(default_factory=list)
    cycles: list = field(default_factory=list)
    heap: Optional[dict] = None
    jit: dict = field(default_factory=dict)
    parse_cache: dict = field(default_factory=dict)

    @property
    def ops(self) -> dict:
        return op_matrix(self.trail[-1][0])

    @property
    def extra_cycles(self) -> list:
        return self.trail[-1][1]

    @property
    def cache(self) -> list:
        return list(self.trail[-1][2] or ())

    @property
    def materialized(self) -> int:
        return self.parse_cache.get("nodes_materialized", 0)


def op_matrix(rows) -> dict:
    """Phase name -> op name -> count, zero entries omitted."""
    matrix = {}
    for phase in Phase:
        row = rows[phase]
        entries = {Op(i).name: row[i] for i in range(N_OPS) if row[i]}
        if entries:
            matrix[phase.name] = entries
    return matrix


def _shape(form) -> list:
    """Every node of ``form`` in preorder: arena index, fields, flags,
    region and number of children."""
    shape = []
    stack = [form]
    while stack:
        node = stack.pop()
        children = []
        child = node.first
        while child is not None:
            children.append(child)
            child = child.nxt
        shape.append((node.idx, node.ntype, node.ival, node.fval, node.sval, node.sym_id,
                      node.sealed, node.linked, node.region, len(children)))
        stack.extend(reversed(children))
    return shape


def _template_shape(template) -> list:
    """Every template of ``template`` in preorder: type, values, interned
    id and number of children."""
    shape = []
    stack = [template]
    while stack:
        t = stack.pop()
        shape.append((t.ntype, t.ival, t.fval, t.sval, t.sym_id, len(t.children)))
        stack.extend(reversed(t.children))
    return shape


def _process(interp: Interpreter, source: SourceBuffer, ctx: CountingContext,
             out: OutputBuffer, env) -> str:
    """``Interpreter.process`` printing into ``out``, the run's own output
    buffer: parse, eval and print one command, each in its phase."""
    out.bind(ctx)
    interp.begin_command_region()
    ctx.set_phase(Phase.PARSE)
    plan = interp.prepare_command(source, ctx)
    ctx.set_phase(Phase.EVAL)
    interp.push_output(out)
    try:
        results = interp.run_plan(plan, env, ctx)
    finally:
        interp.pop_output()
    ctx.set_phase(Phase.PRINT)
    printer = Printer(ctx)
    for i, result in enumerate(results):
        if i:
            out.append(" ")
        printer.print_node(result, out, readable=True)
    ctx.set_phase(Phase.OTHER)
    return out.getvalue()


def run_program(
    commands: Sequence[str],
    options: InterpreterOptions,
    *,
    repeats: int = 1,
    cache: Optional[tuple] = None,
    penalty: float = PENALTY,
    max_depth: int = 1024,
    out_capacity: int = 1 << 20,
    bases: Sequence[int] = (4096,),
    charge_gc: bool = False,
) -> RunRecord:
    """Run ``commands`` ``repeats`` times in one session of a fresh
    interpreter.

    ``cache`` is an L2 geometry (KiB, line bytes, ways) whose misses add
    ``penalty`` each. The n-th command's source sits at
    ``bases[n % len(bases)]``, its output at 1 MiB in a buffer of
    ``out_capacity`` bytes. A command that raises is recorded as an
    ``error: ...`` output and aborted, as the serving layer does.
    ``charge_gc`` charges each collection after a command to the run's
    context, as a device charges its collector's.
    """
    interp = Interpreter(options)
    env = interp.create_session_env("spec")
    l2 = None if cache is None else SetAssociativeCache(*cache)
    ctx = CountingContext(max_depth=max_depth, cache=l2, miss_penalty=penalty)
    arena = interp.arena
    record = RunRecord()
    prepare = interp.prepare_command

    def prepare_and_record(source, ctx):
        plan = prepare(source, ctx)
        record.forms[-1] = ["trace" if s.traced else _shape(s.form) for s in plan.steps]
        return plan

    interp.prepare_command = prepare_and_record
    if interp.parse_cache is not None:
        put = interp.parse_cache.put

        def put_and_record(text, templates):
            record.templates[-1] = [_template_shape(t) for t in templates]
            put(text, templates)

        interp.parse_cache.put = put_and_record
    for n, command in enumerate(list(commands) * repeats):
        record.commands.append(command)
        record.forms.append(None)
        record.templates.append(None)
        out = OutputBuffer(base=1 << 20, capacity=out_capacity)
        try:
            output = _process(interp, SourceBuffer(command, base=bases[n % len(bases)]),
                              ctx, out, env)
        except CuLiError as exc:
            position = getattr(exc, "position", None)
            output = f"error: {type(exc).__name__}: {exc} @{position} | {out.getvalue()}"
            interp.abort_command()
        else:
            interp.collect_garbage(ctx if charge_gc else None)
        record.outputs.append(output)
        record.trail.append((
            [list(row) for row in ctx.counts.rows],
            list(ctx.extra_cycles),
            None if l2 is None else (l2.stats.hits, l2.stats.misses),
            [arena.used, arena.stats.allocs, arena.stats.frees, arena.stats.peak_used],
        ))
    # Every command's rows in one conversion per table, as a device
    # converts a batch's rows.
    rows = [row for entry in record.trail for row in entry[0]]
    record.cycles = [table.row_cycles(rows) for table in (GTX1080.costs, INTEL_E5_2620.costs)]
    record.heap = snapshot_env(env, "spec").to_dict()
    record.jit = counters(interp.jit_stats)
    if interp.parse_cache is not None:
        record.parse_cache = counters(interp.parse_cache.stats)
    return record


_FIELDS = ("outputs", "templates", "forms", "trail", "cycles", "heap", "jit", "parse_cache")


def assert_same(a: RunRecord, b: RunRecord, labels: str = "a/b",
                fields: Sequence[str] = _FIELDS) -> None:
    """Demand ``fields`` equal between two runs of the same commands; a
    per-command field names the first command that differs."""
    for name in fields:
        left, right = getattr(a, name), getattr(b, name)
        if left == right:
            continue
        where = ""
        if name in ("outputs", "forms", "templates", "trail"):
            i = next((i for i, pair in enumerate(zip(left, right)) if pair[0] != pair[1]),
                     min(len(left), len(right)))
            where = f" at command {i} {a.commands[min(i, len(a.commands) - 1)][:60]!r}"
            if i < min(len(left), len(right)):
                where += f": {left[i]!r:.300} vs {right[i]!r:.300}"
        raise AssertionError(f"{name} diverged between {labels}{where}")


def check_spec(commands: Sequence[str], options: InterpreterOptions, **run) -> RunRecord:
    """Run ``commands`` as they are and under the per-unit reference, with
    the same :func:`run_program` arguments; every observable must be
    equal. Returns the production run."""
    production = run_program(commands, options, **run)
    with installed():
        spec = run_program(commands, options, **run)
    assert_same(production, spec, "production/spec")
    return production


def outcomes(outputs: Sequence[str]) -> set:
    """The outcome kinds a run reached: ``"ok"`` for every success, the
    message of a parse error, the type of any other error."""
    kinds = set()
    for out in outputs:
        if out.startswith("error: ParseError: "):
            kinds.add(out[len("error: ParseError: "):].split(" @")[0])
        elif out.startswith("error: "):
            kinds.add(out.split(":")[1].strip())
        else:
            kinds.add("ok")
    return kinds


def differential_check(commands: Sequence[str], repeats: int = 4,
                       **common_options) -> RunRecord:
    """The trace tier's three-way contract for one command sequence.

    1. *hot JIT* (threshold 1, ``repeats`` replays) vs the same options
       with ``jit=False``: outputs and retained heap must be identical
       (the op mix may differ: that is the speedup);
    2. *cold JIT* (threshold never reached) vs ``jit=False``: every
       observable must be identical, op rows after each command included;
    3. the jit-off run must charge no ``TRACE_STEP`` or ``GUARD_CHECK``.

    ``common_options`` go to every configuration. Returns the hot-JIT
    record, so a test can check that traces actually ran.
    """
    common_options.setdefault("parse_cache_capacity", 256)
    run = {"repeats": repeats, "max_depth": 4096}
    walk = run_program(commands, InterpreterOptions(jit=False, **common_options), **run)
    hot = run_program(
        commands, InterpreterOptions(jit=True, jit_threshold=1, **common_options), **run
    )
    assert_same(hot, walk, "jit-hot/tree-walk", fields=("outputs", "heap"))
    cold = run_program(
        commands, InterpreterOptions(jit=True, jit_threshold=10**9, **common_options), **run
    )
    assert_same(cold, walk, "jit-cold/tree-walk")
    for phase_row in walk.ops.values():
        assert "TRACE_STEP" not in phase_row and "GUARD_CHECK" not in phase_row, (
            "tree-walk run charged trace-tier ops"
        )
    return hot
