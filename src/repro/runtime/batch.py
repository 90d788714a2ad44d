"""Batched multi-tenant submission: the request/result types shared by
the device back-ends and the serving layer.

A :class:`BatchRequest` is one tenant's REPL command plus the persistent
environment it must run in (``None`` means the device's true global
environment, i.e. classic single-tenant behaviour). Devices accept a
whole batch at once through ``submit_batch`` and amortize the
per-command costs the paper charges once per REPL input — the mapped
memory handshake, the PCIe transfer latency, and (on the GPU) the
master's distribute/collect work, which is shared across tenants inside
``|||``-style service rounds.

:class:`BatchDevice` is the host layer both device kinds share around
their kernels. Its ``submit`` runs a single REPL command as a
one-request transaction that the master evaluates, so a device has one
command path. :func:`run_contained` is the one per-job containment
clause every batched parse or eval runs through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence, TypeVar

from ..context import CountingContext, ExecContext
from ..core.environment import Environment
from ..core.gc import collect_with_accounting
from ..errors import (
    DeviceError,
    DeviceLostError,
    DeviceShutdownError,
    LispError,
    is_containable_fault,
)
from ..ops import Op, Phase, RowCycles
from ..timing import CommandStats, PhaseBreakdown

__all__ = [
    "BatchRequest",
    "BatchItem",
    "BatchResult",
    "BatchDevice",
    "run_contained",
]

T = TypeVar("T")


@dataclass
class BatchRequest:
    """One tenant command queued for batched execution."""

    text: str
    env: Optional[Environment] = None  #: tenant scope; None = device global env


@dataclass
class BatchItem:
    """Outcome of one request within a batch.

    Lisp-level failures (parse errors, evaluation errors) *and*
    containable device faults (arena exhaustion, a livelock confined to
    one job — see :class:`~repro.errors.DeviceError`) are isolated per
    request: ``error`` carries the exception and ``stats.output`` the
    rendered message, while the rest of the batch completes normally.
    Only device-fatal failures abort the whole batch.
    """

    stats: CommandStats
    error: Optional[Exception] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def faulted(self) -> bool:
        """True when this request was killed by a contained device fault
        (as opposed to an ordinary Lisp-level error)."""
        return isinstance(self.error, DeviceError)


@dataclass
class BatchResult:
    """All outcomes of one ``submit_batch`` call plus the true batch totals.

    ``times`` counts every shared cost exactly once, so ``times.total_ms``
    is the simulated wall time of the whole batch. Each item's
    ``stats.times`` carries that item's own work plus a 1/n share of the
    shared overheads; summing item evals generally *exceeds* the batch
    eval wall time because tenants evaluated concurrently on workers.
    """

    items: list[BatchItem] = field(default_factory=list)
    times: PhaseBreakdown = field(default_factory=PhaseBreakdown)
    jobs: int = 0          #: worker jobs executed (service + nested |||)
    rounds: int = 0        #: shared distribution rounds used
    # Direction-split command-buffer transfer (continuous-batching PR):
    # the async scheduler's event timeline needs to know which part of
    # ``times.transfer_ms`` is the host->device payload upload (can
    # overlap the *previous* batch's kernel occupancy under double
    # buffering) and which is the device->host result download (serial
    # after this batch's kernel). Mid-eval file-service transfers stay
    # inside kernel occupancy and are in neither. Zero on CPU devices
    # (shared memory).
    upload_ms: float = 0.0
    download_ms: float = 0.0
    nodes_freed: int = 0   #: nodes reclaimed by end-of-batch collection
    # GC work performed by the end-of-batch collection (satellite of the
    # generational-GC PR). ``times.gc_ms`` carries the *modeled* device
    # cost; ``gc_wall_ms`` is simulator host wall time.
    regions_reset: int = 0       #: nursery regions reclaimed (minor GCs)
    major_collections: int = 0   #: full mark-sweep passes triggered
    gc_wall_ms: float = 0.0      #: host wall time spent collecting
    # JIT trace-tier work performed by this batch (trace-tier PR): how
    # many cache-hot texts were compiled, how many forms ran as traces,
    # and how many trace executions bailed to the tree-walker on a
    # stale guard. All zero when ``InterpreterOptions.jit`` is off.
    traces_compiled: int = 0
    trace_hits: int = 0
    guard_bails: int = 0
    #: Parallel forms a worker reached in this batch, each run
    #: sequentially in that worker's lane (``engine.nested_fallbacks``).
    nested_fallbacks: int = 0

    @property
    def size(self) -> int:
        return len(self.items)

    @property
    def outputs(self) -> list[str]:
        return [item.stats.output for item in self.items]

    @property
    def errors(self) -> list[Exception]:
        return [item.error for item in self.items if item.error is not None]

    @property
    def faults(self) -> list[Exception]:
        """Contained device faults only (a subset of :attr:`errors`)."""
        return [item.error for item in self.items if item.faulted]


def run_contained(
    interp, ctx: ExecContext, work: Callable[..., T], *args: Any
) -> tuple[Optional[T], Optional[Exception]]:
    """Run one batched job's parse or eval, ``work(*args)``, with failure
    containment.

    Returns ``(value, None)``, or ``(None, error)`` when the job died on
    a Lisp error or a containable device fault (arena exhaustion, a
    livelock confined to the job — see :class:`~repro.errors.DeviceError`).
    A contained fault's nursery allocations past the job's entry
    watermark are rolled back, so the rest of the batch can reuse the
    space (write-barrier promotions already rescued escaped survivors);
    the rollback is charged to ``ctx``, the master, worker or request
    context that ran the job. Anything else is device-fatal and
    propagates to abort the batch.

    Only per-job work goes through here: checks that fail for the whole
    batch, such as the service round's Fig. 12/13 livelocks, run outside
    it and stay batch-fatal (DESIGN.md deviation #8).
    """
    checkpoint = interp.arena.region_watermark()
    try:
        return work(*args), None
    except LispError as exc:
        return None, exc
    except Exception as exc:
        if not is_containable_fault(exc):
            raise
        freed, _ = interp.arena.rollback_region(checkpoint)
        ctx.charge(Op.NODE_WRITE, freed)
        return None, exc


class BatchDevice:
    """The host layer the GPU and CPU builds of CuLi share.

    Both run the same interpreter behind the same REPL protocol and
    differ only in the parallel back-end and the host link, so the
    lifecycle and device-loss surface, the tenant scopes, the
    single-command entry, the end-of-command collection, the abort path
    and the batch result assembly live here once. Subclasses build
    ``interp``, ``engine`` and ``master_ctx`` and define ``kind``,
    ``close``, ``base_latency_ms`` and ``submit_batch``.
    """

    #: Host-side work per command (prompt handling, fgets, puts) in ms.
    _HOST_LOOP_MS = 0.001

    def __init__(self, spec, config) -> None:
        self.spec = spec
        self.config = config
        self.fidelity = config.fidelity
        self._closed = False
        self._lost_reason: Optional[str] = None
        #: ``cycles_to_ms`` divides by it: a division written in place
        #: is the same float without the call.
        self._cycles_per_ms = spec.cycles_per_ms
        #: Row -> cycles readers, one per master phase.
        self._master_rows = [RowCycles(spec.costs) for _ in Phase]
        #: The end-of-command collector's context, reused by every
        #: collection, and its row -> cycles reader.
        self._gc_ctx = CountingContext()
        self._gc_rows = RowCycles(spec.costs)

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def closed(self) -> bool:
        return self._closed

    # -- device loss (failover support) -------------------------------------------

    def mark_lost(self, reason: str = "device lost") -> None:
        """Simulate a whole-device crash (a GPU falling off the bus, or a
        pthread pool's host dying): every subsequent command or batch
        raises :class:`~repro.errors.DeviceLostError` until the serving
        layer force-resets the device (replaces it with a fresh one —
        the crashed arena's contents are unrecoverable)."""
        self._lost_reason = reason

    @property
    def lost(self) -> bool:
        return self._lost_reason is not None

    def _check_lost(self) -> None:
        """Entry check of every command and batch: a closed device raises
        :class:`~repro.errors.DeviceShutdownError`, a lost one
        :class:`~repro.errors.DeviceLostError`."""
        if self._closed:
            raise DeviceShutdownError(f"device {self.name} has been shut down")
        if self._lost_reason is not None:
            raise DeviceLostError(f"device {self.name} lost: {self._lost_reason}")

    # -- tenant environments (multi-tenant serving) -------------------------------

    def create_session_env(self, label: str = "session") -> Environment:
        """A persistent per-tenant session-root scope (tenant isolation +
        GC-root registration — see :meth:`Interpreter.create_session_env`)."""
        return self.interp.create_session_env(label)

    def release_session_env(self, env: Environment) -> None:
        """Drop a tenant scope; its bindings become garbage."""
        self.interp.release_session_env(env)

    # -- the REPL command -----------------------------------------------------------

    def submit(self, text: str, env: Optional[Environment] = None) -> CommandStats:
        """Run one REPL command through the full host<->device protocol
        (paper Fig. 9, Alg. 1).

        The command is a one-request batch transaction in master mode:
        the master parses, evaluates and prints it, and the engine
        distributes the rows of its parallel forms to the workers. A
        refused command (unbalanced, or over the command buffer) raises
        before anything is uploaded; a command that fails raises its
        error once the transaction has closed. ``env`` selects the
        persistent scope the command runs in (a tenant's session
        environment); None means the global environment, i.e. classic
        single-tenant CuLi.
        """
        result = self.submit_batch([BatchRequest(text, env)], single=True)
        item = result.items[0]
        if item.error is not None:
            raise item.error
        # The master ran the whole transaction, so its totals are the
        # command's own.
        stats = item.stats
        return CommandStats(
            stats.output,
            result.times,
            stats.input_chars,
            stats.output_chars,
            result.jobs,
            result.rounds,
            result.nodes_freed,
        )

    # -- command accounting --------------------------------------------------------

    def master_cycles(self, phase: Phase) -> float:
        """The master's cycles in ``phase`` so far this command:
        ``float(vector @ row) + extra_cycles[phase]``.

        A transaction reads a phase at its step boundaries, and most
        readings meet a row the phase has met before (a service round's
        deposit and collection charge the same counts whatever the
        request), so each phase reads through a
        :class:`~repro.ops.RowCycles`, which converts only a row it has
        not met. A GPU batch takes one PARSE reading after each request
        and one PRINT reading after each output, and the round loop one
        EVAL reading when it opens and three per round (after
        distribution, before and after collection). A phase that has
        not been charged reads an exact 0.0, so the batch takes no
        opening PARSE or PRINT reading. A CPU master has no cache, so
        its ``extra_cycles`` add an exact 0.0.
        """
        ctx = self.master_ctx
        cycles = self._master_rows[phase][tuple(ctx.counts.rows[phase])]
        return cycles + ctx.extra_cycles[phase]

    def _run_gc(self) -> tuple[int, float, int, int, float]:
        """End-of-command reclamation charged as modeled device time;
        see :func:`repro.core.gc.collect_with_accounting`. Returns
        ``(freed, gc_ms, regions_reset, major_collections, wall_ms)``."""
        gctx = self._gc_ctx
        freed, regions_reset, majors, wall_ms = collect_with_accounting(
            self.interp, gctx
        )
        gc_cycles = self._gc_rows[tuple(gctx.counts.rows[Phase.EVAL])]
        return freed, gc_cycles / self._cycles_per_ms, regions_reset, majors, wall_ms

    def _abort_transaction(self) -> None:
        """Device-fatal failure of a command or batch: reclaim its
        partial trees and close the open nursery region
        (``Interpreter.abort_command``)."""
        self.interp.abort_command()

    def _master_times(
        self,
        parse_cycles: float,
        print_cycles: float,
        gc_ms: float,
        transfer_ms: float = 0.0,
        cache_hits: int = 0,
        cache_misses: int = 0,
    ) -> PhaseBreakdown:
        """Phase split of one transaction the master ran: its own
        parse/eval/print counters plus the engine's distribute, worker
        and collect cycles, one handshake and one host-loop turn.
        ``parse_cycles`` and ``print_cycles`` are the caller's closing
        ``master_cycles`` readings of those phases."""
        cpm = self._cycles_per_ms
        engine = self.engine
        worker_ms = engine.worker_wall_cycles / cpm
        # Positional, in field order: once per transaction, and a
        # dataclass takes positions faster than keywords.
        return PhaseBreakdown(
            parse_cycles / cpm,  # parse_ms
            self.master_cycles(Phase.EVAL) / cpm + worker_ms,  # eval_ms
            print_cycles / cpm,  # print_ms
            self.spec.command_overhead_us / 1000.0,  # other_ms
            transfer_ms,
            self._HOST_LOOP_MS,  # host_ms
            gc_ms,
            engine.distribute_cycles / cpm,  # distribute_ms
            worker_ms,
            engine.collect_cycles / cpm,  # collect_ms
            engine.spin_cycles,
            cache_hits,
            cache_misses,
        )

    def _batch_result(
        self,
        requests: Sequence[BatchRequest],
        texts: Sequence[str],
        outputs: Sequence[str],
        errors: Sequence[Optional[Exception]],
        own_ms: Sequence[tuple[float, float, float, float]],
        batch_times: PhaseBreakdown,
        gc: tuple[int, float, int, int, float],
        jit0: tuple[int, int, int],
        *,
        jobs: int,
        rounds: int,
        upload_ms: float = 0.0,
        download_ms: float = 0.0,
    ) -> BatchResult:
        """Assemble one batch transaction's result.

        Each item carries its own work — ``own_ms`` holds its parse,
        eval, print and worker ms — plus a 1/n share of the costs the
        batch paid once: handshake, transfer, distribute/collect, host
        loop, collection. So per-request stats stay additive. ``gc`` is
        the :meth:`_run_gc` tuple, ``jit0`` the JIT counters before the
        batch; the keyword totals are the device's own (the
        upload/download split is zero on the CPU). The nested fallbacks
        are the engine's, which counts them per transaction.

        An item's times are its own ms plus the share, field by field; a
        field only one side carries would add an exact 0.0, so it is
        taken as is. A 1-request batch's share is the whole cost
        (``x * 1.0 == x``), so it is taken without the products.
        """
        n = len(requests)
        t = batch_times
        shared_eval = t.distribute_ms + t.collect_ms
        other_ms, transfer_ms, host_ms = t.other_ms, t.transfer_ms, t.host_ms
        gc_ms, distribute_ms, collect_ms = t.gc_ms, t.distribute_ms, t.collect_ms
        spin_cycles = t.spin_cycles
        if n > 1:
            f = 1.0 / n
            shared_eval *= f
            other_ms *= f
            transfer_ms *= f
            host_ms *= f
            gc_ms *= f
            distribute_ms *= f
            collect_ms *= f
            spin_cycles *= f
        items = []
        for text, output, error, (parse_ms, eval_ms, print_ms, worker_ms) in zip(
            texts, outputs, errors, own_ms
        ):
            times = PhaseBreakdown(
                parse_ms, eval_ms + shared_eval, print_ms, other_ms, transfer_ms,
                host_ms, gc_ms, distribute_ms, worker_ms, collect_ms, spin_cycles,
            )
            ran = int(error is None)
            stats = CommandStats(output, times, len(text), len(output), ran, ran)
            items.append(BatchItem(stats, error))
        freed, _, regions_reset, majors, gc_wall_ms = gc
        jit = self.interp.jit_stats
        # Positional, in field order, like the item times above.
        return BatchResult(
            items,
            batch_times,
            jobs,
            rounds,
            upload_ms,
            download_ms,
            freed,  # nodes_freed
            regions_reset,
            majors,  # major_collections
            gc_wall_ms,
            jit.traces_compiled - jit0[0],
            jit.trace_hits - jit0[1],
            jit.guard_bails - jit0[2],
            self.engine.nested_fallbacks,
        )

    def _jit_counts(self) -> tuple[int, int, int]:
        """The JIT counters a batch result reports the growth of."""
        jit = self.interp.jit_stats
        return jit.traces_compiled, jit.trace_hits, jit.guard_bails
