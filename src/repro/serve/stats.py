"""Serving metrics: throughput, latency phases, queue depth, utilization.

All times are *simulated* device milliseconds (the paper's quantities),
not simulator wall time. Devices in a pool run concurrently, so the
server's simulated makespan is the busiest device's busy time; per-device
utilization is measured against that makespan.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from ..timing import PhaseBreakdown

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.batch import BatchResult

__all__ = ["DeviceStats", "LatencyReservoir", "MigrationRecord", "ServerStats"]


def _fleet_total(field: str, doc: str) -> property:
    """A read-only fleet total: ``field`` summed over every device."""

    def total(stats: "ServerStats") -> int:
        return sum(getattr(d, field) for d in stats.per_device.values())

    return property(total, doc=doc)


class LatencyReservoir:
    """Bounded sample of per-request enqueue->resolve latencies.

    Keeps at most ``capacity`` samples via Algorithm R (uniform
    reservoir sampling) so a million-request run costs O(capacity)
    memory while p50/p95/p99 stay statistically faithful. The
    replacement PRNG is seeded, so percentile figures are reproducible
    run to run — the same determinism contract as the rest of the
    modeled metrics. Exact count/mean/max are tracked over *all*
    samples, not just the retained ones.
    """

    def __init__(self, capacity: int = 2048, seed: int = 0x51A7) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.count = 0
        self.sum = 0.0
        self.max = 0.0
        self._samples: list[float] = []
        self._rng = random.Random(seed)

    def record(self, latency_ms: float) -> None:
        self.count += 1
        self.sum += latency_ms
        if latency_ms > self.max:
            self.max = latency_ms
        if len(self._samples) < self.capacity:
            self._samples.append(latency_ms)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.capacity:
                self._samples[slot] = latency_ms

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The q-th percentile (0..100) of the sample: the sorted sample
        at index ``round(q/100 * (n-1))``, clamped to ``0..n-1``.

        Python's ``round`` sends halves to the even index, so n=4, q=50
        gives index 2 (nearest-rank would give index 1).
        """
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1)))))
        return ordered[rank]

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "mean_ms": self.mean,
            "p50_ms": self.percentile(50),
            "p95_ms": self.percentile(95),
            "p99_ms": self.percentile(99),
            "max_ms": self.max,
        }


@dataclass
class DeviceStats:
    """Accumulated serving counters for one pooled device."""

    device_id: str
    name: str
    kind: str
    capability_ms: float = 0.0  #: calibrated modeled ms per probe request
    batch_ms: float = 0.0       #: calibrated fixed modeled ms per batch
    request_ms: float = 0.0     #: calibrated modeled ms each request adds
    busy_ms: float = 0.0     #: simulated time spent executing batches
    batches: int = 0
    requests: int = 0
    errors: int = 0
    jobs: int = 0            #: worker jobs (service + parallel-form rows)
    rounds: int = 0          #: shared distribution rounds
    #: parallel forms a worker reached, run sequentially in its lane
    nested_fallbacks: int = 0
    faults: int = 0          #: device faults (contained + batch-fatal)
    migrations_in: int = 0   #: sessions restored onto this device
    migrations_out: int = 0  #: sessions snapshotted off this device
    # Failover/availability accounting (device-loss supervisor PR):
    losses: int = 0          #: times this device crashed or hung
    hangs: int = 0           #: the subset of losses that were hangs
    recoveries_in: int = 0   #: victim sessions rebuilt onto this device
    rounds_total: int = 0    #: supervisor rounds this device existed for
    rounds_up: int = 0       #: ... of which it was serviceable

    @property
    def uptime(self) -> float:
        """Share of supervised rounds this device was serviceable
        (1.0 when no supervisor ran — nothing ever took it down)."""
        if self.rounds_total == 0:
            return 1.0
        return self.rounds_up / self.rounds_total


@dataclass
class MigrationRecord:
    """One completed session migration (what ``migrate()`` returns)."""

    session_id: str
    source: str              #: device_id the heap was serialized off
    dest: str                #: device_id the heap was restored onto
    nodes: int               #: heap nodes carried by the snapshot
    nbytes: int              #: snapshot wire size
    transfer_ms: float       #: modeled host<->device time (both links)


class ServerStats:
    """The server-wide metrics surface (wired into CommandStats/PhaseBreakdown).

    ``phase_totals`` merges every batch's :class:`PhaseBreakdown`, so the
    per-phase latency decomposition the paper reports for one command is
    available for the whole serving run; ``throughput_rps`` is requests
    per simulated second of makespan.

    Every device is registered once, when the server is built, and never
    unregistered (an evicted device keeps its counters). Counts that a
    device owns live only in its :class:`DeviceStats`; the fleet totals
    below are their sums, never a second counter.
    """

    batches = _fleet_total("batches", "Batches completed, fleet-wide.")
    requests_completed = _fleet_total(
        "requests", "Requests served (poisoned ones included)."
    )
    errors = _fleet_total("errors", "Requests that resolved with an error.")
    devices_lost = _fleet_total("losses", "Device crashes and hangs.")
    device_hangs = _fleet_total("hangs", "The losses that were hangs.")
    sessions_migrated = _fleet_total("migrations_in", "Sessions migrated.")
    sessions_recovered = _fleet_total(
        "recoveries_in", "Victim sessions rebuilt after a device loss."
    )
    nested_fallbacks = _fleet_total(
        "nested_fallbacks",
        "Parallel forms a worker reached and ran sequentially in its lane.",
    )

    def __init__(self) -> None:
        self.requests_enqueued = 0
        self.requests_cancelled = 0  #: enqueued, then cancelled (session close)
        # Fault-isolation counters: device faults contained per request,
        # batch-fatal device failures, solo quarantine retries, and
        # tickets resolved as poison after quarantine.
        self.faults_contained = 0
        self.faults_batch_fatal = 0
        self.quarantine_retries = 0
        self.poisoned_requests = 0
        self.batch_size_sum = 0
        self.batch_size_max = 0
        self.phase_totals = PhaseBreakdown()
        # GC work across every batch (generational-GC PR): nodes freed,
        # nursery regions reset, full mark-sweep passes, and the wall
        # time the simulator spent collecting. Modeled GC device time is
        # in ``phase_totals.gc_ms``.
        self.gc_nodes_freed = 0
        self.gc_regions_reset = 0
        self.gc_major_collections = 0
        self.gc_wall_ms = 0.0
        # JIT trace-tier counters (bytecode trace PR): cache-hot texts
        # compiled, forms executed as traces, and trace executions that
        # bailed to the tree-walker on a stale guard.
        self.jit_traces_compiled = 0
        self.jit_trace_hits = 0
        self.jit_guard_bails = 0
        # Elastic-rebalancing counters (heap snapshot / migration PR):
        # the heap volume migrations carried, the modeled transfer time
        # charged for the moves, devices evacuated after repeated faults,
        # and sessions restored from a saved fleet snapshot.
        self.migration_nodes = 0
        self.migration_bytes = 0
        self.migration_transfer_ms = 0.0
        self.devices_drained = 0
        self.sessions_restored = 0
        # Failover counters (device-loss supervisor PR): replayed suffix
        # commands, the recovery-point-objective actually observed
        # (rounds of replay per recovered session), checkpoints, restores
        # and the breaker's work.
        self.requests_replayed = 0
        self.rpo_rounds_sum = 0
        self.rpo_rounds_max = 0
        self.checkpoints_shipped = 0
        self.checkpoints_skipped = 0
        self.checkpoint_bytes = 0
        self.checkpoint_transfer_ms = 0.0
        self.failover_restore_bytes = 0
        self.failover_restore_ms = 0.0
        self.breaker_opens = 0
        self.probes_sent = 0
        self.probes_ok = 0
        self.devices_evicted = 0
        # Continuous-batching counters: enqueue->resolve latency samples
        # and submissions refused by admission control (backpressure).
        self.latency = LatencyReservoir()
        self.requests_rejected = 0
        # Bulk collection counters (gpu-map PR): host-sharded jobs, the
        # chunk tickets they fanned out to, the elements those carried,
        # jobs gathered back, and chunks that resolved with a contained
        # error (the job surfaces it; siblings were unaffected).
        self.bulk_jobs = 0
        self.bulk_chunks = 0
        self.bulk_elements = 0
        self.bulk_jobs_gathered = 0
        self.bulk_chunk_errors = 0
        self.per_device: dict[str, DeviceStats] = {}
        #: live queue-depth gauge, installed by the server
        self._queue_depth_fn: Optional[Callable[[], dict[str, int]]] = None
        #: live breaker-state gauge, installed by the supervisor
        self._breaker_state_fn: Optional[Callable[[], dict[str, str]]] = None
        #: live scheduler-timeline gauge (virtual clock, per-device
        #: pipeline completion/overlap), installed by the server
        self._scheduler_fn: Optional[Callable[[], dict]] = None

    # -- recording ----------------------------------------------------------------

    def register_device(
        self,
        device_id: str,
        name: str,
        kind: str,
        capability_ms: float = 0.0,
        batch_ms: float = 0.0,
        request_ms: float = 0.0,
    ) -> None:
        self.per_device[device_id] = DeviceStats(
            device_id, name, kind, capability_ms, batch_ms, request_ms
        )

    def record_enqueue(self, n: int = 1) -> None:
        self.requests_enqueued += n

    def record_cancelled(self, n: int = 1) -> None:
        """Queued tickets cancelled before execution (session close).

        Balances the queue accounting: every enqueued request ends up
        completed, cancelled, or still pending — never silently lost.
        """
        self.requests_cancelled += n

    def record_batch(self, device_id: str, result: "BatchResult") -> None:
        size = len(result.items)
        n_errors = n_faults = 0
        for item in result.items:
            if item.error is not None:
                n_errors += 1
                n_faults += item.faulted
        self.batch_size_sum += size
        if size > self.batch_size_max:
            self.batch_size_max = size
        self.faults_contained += n_faults
        self.phase_totals.accumulate(result.times)
        self.gc_nodes_freed += result.nodes_freed
        self.gc_regions_reset += result.regions_reset
        self.gc_major_collections += result.major_collections
        self.gc_wall_ms += result.gc_wall_ms
        self.jit_traces_compiled += result.traces_compiled
        self.jit_trace_hits += result.trace_hits
        self.jit_guard_bails += result.guard_bails
        dstats = self.per_device[device_id]
        dstats.busy_ms += result.times.total_ms
        dstats.batches += 1
        dstats.requests += size
        dstats.errors += n_errors
        dstats.jobs += result.jobs
        dstats.rounds += result.rounds
        dstats.nested_fallbacks += result.nested_fallbacks
        dstats.faults += n_faults

    def record_latency(self, latency_ms: float) -> None:
        """One request's enqueue->resolve latency on the virtual clock.

        Recorded by the scheduler when the ticket resolves, at its
        batch's pipeline completion. Replay tickets and close-time cancellations are
        excluded — no tenant was waiting on them.
        """
        self.latency.record(latency_ms)

    def record_rejected(self, n: int = 1) -> None:
        """Submissions refused by admission control (per-tenant queue
        cap): shed at the front door, never enqueued."""
        self.requests_rejected += n

    def record_bulk_submitted(self, chunks: int, elements: int) -> None:
        """One bulk job sharded into ``chunks`` tickets carrying
        ``elements`` list elements across the fleet."""
        self.bulk_jobs += 1
        self.bulk_chunks += chunks
        self.bulk_elements += elements

    def record_bulk_gathered(self, errors: int = 0) -> None:
        """One bulk job's chunks gathered back in element order;
        ``errors`` chunks resolved with a contained fault."""
        self.bulk_jobs_gathered += 1
        self.bulk_chunk_errors += errors

    def record_batch_fatal(self, device_id: str) -> None:
        """A whole batch transaction aborted on a device-fatal error."""
        self.faults_batch_fatal += 1
        self.per_device[device_id].faults += 1

    def record_quarantined(self, n: int) -> None:
        """Tickets requeued for solo retry after a batch-fatal failure."""
        self.quarantine_retries += n

    def record_migration(
        self, record: MigrationRecord, source_ms: float, dest_ms: float
    ) -> None:
        """One session heap moved between devices.

        The snapshot's wire crossing is modeled work on *both* ends:
        ``source_ms`` (serialize-out over the source's link) joins the
        source device's busy time, ``dest_ms`` the destination's, and
        the sum lands in ``phase_totals.transfer_ms`` — so rebalancing
        is never free in the makespan it is trying to shrink.
        """
        self.migration_nodes += record.nodes
        self.migration_bytes += record.nbytes
        self.migration_transfer_ms += record.transfer_ms
        self.phase_totals.transfer_ms += record.transfer_ms
        src = self.per_device[record.source]
        src.busy_ms += source_ms
        src.migrations_out += 1
        dst = self.per_device[record.dest]
        dst.busy_ms += dest_ms
        dst.migrations_in += 1

    def record_device_drained(self, device_id: str) -> None:
        """A device was marked draining (repeated faults): its sessions
        migrate off and new placements avoid it."""
        self.devices_drained += 1

    def record_restored(self, n: int = 1) -> None:
        """Sessions rebuilt from a saved fleet snapshot (server restart)."""
        self.sessions_restored += n

    def record_poisoned(self, device_id: str, n: int) -> None:
        """Tickets resolved with a batch-fatal error (poison requests).

        They *were* served — with an error — so they count as completed
        (and as errors): the enqueued/completed/cancelled balance holds.
        """
        self.poisoned_requests += n
        dstats = self.per_device[device_id]
        dstats.requests += n
        dstats.errors += n

    # -- failover recording (device-loss supervisor) -------------------------------

    def record_device_lost(
        self, device_id: str, hang: bool = False, detect_ms: float = 0.0
    ) -> None:
        """A whole device crashed (or hung past the watchdog deadline).

        ``detect_ms`` is the modeled time the watchdog spent waiting the
        hang out before force-resetting — real makespan the fleet lost,
        charged to the device like any busy time.
        """
        dstats = self.per_device[device_id]
        dstats.losses += 1
        dstats.faults += 1
        if hang:
            dstats.hangs += 1
        dstats.busy_ms += detect_ms
        if detect_ms > 0.0:
            self.phase_totals.other_ms += detect_ms

    def record_session_recovered(
        self, dest_device_id: str, rpo_rounds: int, replayed: int
    ) -> None:
        """One victim session rebuilt from its checkpoint on a survivor.

        ``rpo_rounds`` is the recovery point actually observed: how many
        completed rounds sat in the suffix log and had to be replayed —
        never more than the checkpoint interval, which is the RPO bound
        the supervisor advertises.
        """
        self.rpo_rounds_sum += rpo_rounds
        self.rpo_rounds_max = max(self.rpo_rounds_max, rpo_rounds)
        self.per_device[dest_device_id].recoveries_in += 1

    def record_replayed(self, n: int) -> None:
        """Replay tickets served (suffix re-execution during recovery)."""
        self.requests_replayed += n

    def record_checkpoint(
        self, device_id: str, nbytes: int, transfer_ms: float
    ) -> None:
        """One session checkpoint shipped device->host: its wire size is
        modeled transfer on the device's link, like a migration's source
        half — the clean-path overhead the failover bench bounds."""
        self.checkpoints_shipped += 1
        self.checkpoint_bytes += nbytes
        self.checkpoint_transfer_ms += transfer_ms
        self.phase_totals.transfer_ms += transfer_ms
        self.per_device[device_id].busy_ms += transfer_ms

    def record_checkpoint_skipped(self) -> None:
        """A due checkpoint whose digest matched the stored one: the
        suffix log reset for free, nothing crossed the link."""
        self.checkpoints_skipped += 1

    def record_failover_restore(
        self, device_id: str, nbytes: int, transfer_ms: float
    ) -> None:
        """A checkpoint restored host->device during recovery."""
        self.failover_restore_bytes += nbytes
        self.failover_restore_ms += transfer_ms
        self.phase_totals.transfer_ms += transfer_ms
        self.per_device[device_id].busy_ms += transfer_ms

    def record_breaker_open(self, device_id: str) -> None:
        """A device's circuit breaker tripped open."""
        self.breaker_opens += 1

    def record_probe(self, device_id: str) -> None:
        """A half-open probe batch was sent to a recovering device."""
        self.probes_sent += 1

    def record_probe_ok(self, device_id: str, busy_ms: float) -> None:
        """A probe succeeded (breaker closes): its round is real device
        time but no tenant request — only busy time is charged."""
        self.probes_ok += 1
        self.per_device[device_id].busy_ms += busy_ms

    def record_device_evicted(self, device_id: str) -> None:
        """A permanently flapping device was removed from the pool."""
        self.devices_evicted += 1

    @property
    def mean_rpo_rounds(self) -> float:
        """Mean rounds replayed per recovered session (observed RPO)."""
        if self.sessions_recovered == 0:
            return 0.0
        return self.rpo_rounds_sum / self.sessions_recovered

    def breaker_states(self) -> dict[str, str]:
        """Live per-device breaker state (empty without a supervisor)."""
        if self._breaker_state_fn is None:
            return {}
        return self._breaker_state_fn()

    # -- derived quantities -------------------------------------------------------

    @property
    def mean_batch_size(self) -> float:
        return self.batch_size_sum / self.batches if self.batches else 0.0

    @property
    def simulated_makespan_ms(self) -> float:
        """Devices execute concurrently: the pool is done when the
        busiest device is done."""
        if not self.per_device:
            return 0.0
        return max(d.busy_ms for d in self.per_device.values())

    @property
    def throughput_rps(self) -> float:
        """Completed requests per simulated second."""
        makespan = self.simulated_makespan_ms
        if makespan <= 0:
            return 0.0
        return self.requests_completed / (makespan / 1000.0)

    def utilization(self) -> dict[str, float]:
        """Per-device busy share of the pool makespan (0..1)."""
        makespan = self.simulated_makespan_ms
        if makespan <= 0:
            return {device_id: 0.0 for device_id in self.per_device}
        return {
            device_id: d.busy_ms / makespan for device_id, d in self.per_device.items()
        }

    def utilization_spread(self) -> float:
        """Max minus min per-device utilization (0 with < 2 devices).

        The fleet-balance health metric for heterogeneous pools: when
        capability-aware placement is doing its job, busy share stays
        clustered across unequal devices and the spread is small; a
        placement that ignores capability parks equal work on unequal
        devices and the spread opens up (what
        ``benchmarks/bench_hetero_fleet.py`` reports).
        """
        util = self.utilization()
        if len(util) < 2:
            return 0.0
        values = list(util.values())
        return max(values) - min(values)

    def queue_depths(self) -> dict[str, int]:
        """Live per-device queue depth (pending, not yet batched)."""
        if self._queue_depth_fn is None:
            return {}
        return self._queue_depth_fn()

    def scheduler_state(self) -> dict:
        """Live scheduler timeline (empty without an installed gauge)."""
        if self._scheduler_fn is None:
            return {}
        return self._scheduler_fn()

    # -- reporting ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """A plain-dict summary for logging/reporting."""
        return {
            "requests": {
                "enqueued": self.requests_enqueued,
                "completed": self.requests_completed,
                "cancelled": self.requests_cancelled,
                "rejected": self.requests_rejected,
                "errors": self.errors,
            },
            "latency": self.latency.snapshot(),
            "scheduler": self.scheduler_state(),
            "faults": {
                "contained": self.faults_contained,
                "batch_fatal": self.faults_batch_fatal,
                "quarantine_retries": self.quarantine_retries,
                "poisoned": self.poisoned_requests,
            },
            "batches": {
                "count": self.batches,
                "mean_size": self.mean_batch_size,
                "max_size": self.batch_size_max,
            },
            "throughput_rps": self.throughput_rps,
            "makespan_ms": self.simulated_makespan_ms,
            "fleet": {
                "devices": len(self.per_device),
                "utilization_spread": self.utilization_spread(),
                "nested_fallbacks": self.nested_fallbacks,
            },
            "phases_ms": {
                "parse": self.phase_totals.parse_ms,
                "eval": self.phase_totals.eval_ms,
                "print": self.phase_totals.print_ms,
                "transfer": self.phase_totals.transfer_ms,
                "overhead": self.phase_totals.other_ms + self.phase_totals.host_ms,
                "gc": self.phase_totals.gc_ms,
            },
            "gc": {
                "nodes_freed": self.gc_nodes_freed,
                "regions_reset": self.gc_regions_reset,
                "major_collections": self.gc_major_collections,
                "simulated_ms": self.phase_totals.gc_ms,
                "wall_ms": self.gc_wall_ms,
            },
            "jit": {
                "traces_compiled": self.jit_traces_compiled,
                "trace_hits": self.jit_trace_hits,
                "guard_bails": self.jit_guard_bails,
            },
            "bulk": {
                "jobs": self.bulk_jobs,
                "chunks": self.bulk_chunks,
                "elements": self.bulk_elements,
                "jobs_gathered": self.bulk_jobs_gathered,
                "chunk_errors": self.bulk_chunk_errors,
            },
            "rebalance": {
                "migrations": self.sessions_migrated,
                "nodes_moved": self.migration_nodes,
                "bytes_moved": self.migration_bytes,
                "transfer_ms": self.migration_transfer_ms,
                "devices_drained": self.devices_drained,
                "sessions_restored": self.sessions_restored,
            },
            "failover": {
                "devices_lost": self.devices_lost,
                "device_hangs": self.device_hangs,
                "sessions_recovered": self.sessions_recovered,
                "requests_replayed": self.requests_replayed,
                "rpo_mean_rounds": self.mean_rpo_rounds,
                "rpo_max_rounds": self.rpo_rounds_max,
                "checkpoints_shipped": self.checkpoints_shipped,
                "checkpoints_skipped": self.checkpoints_skipped,
                "checkpoint_bytes": self.checkpoint_bytes,
                "checkpoint_transfer_ms": self.checkpoint_transfer_ms,
                "restore_bytes": self.failover_restore_bytes,
                "restore_transfer_ms": self.failover_restore_ms,
                "breaker_opens": self.breaker_opens,
                "probes_sent": self.probes_sent,
                "probes_ok": self.probes_ok,
                "devices_evicted": self.devices_evicted,
                "breaker_states": self.breaker_states(),
            },
            "devices": {
                device_id: {
                    "name": d.name,
                    "kind": d.kind,
                    "capability_ms": d.capability_ms,
                    "batch_ms": d.batch_ms,
                    "request_ms": d.request_ms,
                    "busy_ms": d.busy_ms,
                    "batches": d.batches,
                    "requests": d.requests,
                    "jobs": d.jobs,
                    "rounds": d.rounds,
                    "nested_fallbacks": d.nested_fallbacks,
                    "faults": d.faults,
                    "migrations_in": d.migrations_in,
                    "migrations_out": d.migrations_out,
                    "losses": d.losses,
                    "hangs": d.hangs,
                    "recoveries_in": d.recoveries_in,
                    "uptime": d.uptime,
                    "utilization": self.utilization()[device_id],
                }
                for device_id, d in self.per_device.items()
            },
            "queue_depths": self.queue_depths(),
        }

    def render(self) -> str:
        """A human-readable one-screen summary."""
        snap = self.snapshot()
        lines = [
            f"requests: {snap['requests']['completed']}/{snap['requests']['enqueued']}"
            f" completed, {snap['requests']['cancelled']} cancelled,"
            f" {snap['requests']['rejected']} rejected,"
            f" {snap['requests']['errors']} errors",
            f"latency:  p50 {snap['latency']['p50_ms']:.3f} / "
            f"p95 {snap['latency']['p95_ms']:.3f} / "
            f"p99 {snap['latency']['p99_ms']:.3f} ms "
            f"(mean {snap['latency']['mean_ms']:.3f}, "
            f"max {snap['latency']['max_ms']:.3f}, "
            f"n={snap['latency']['count']})",
            f"faults:   {snap['faults']['contained']} contained, "
            f"{snap['faults']['batch_fatal']} batch-fatal "
            f"({snap['faults']['quarantine_retries']} quarantine retries, "
            f"{snap['faults']['poisoned']} poisoned)",
            f"batches:  {snap['batches']['count']}"
            f" (mean {snap['batches']['mean_size']:.1f},"
            f" max {snap['batches']['max_size']})",
            f"throughput: {snap['throughput_rps']:.1f} req/s simulated"
            f" over {snap['makespan_ms']:.3f} ms makespan "
            f"({snap['fleet']['devices']} devices, utilization spread "
            f"{snap['fleet']['utilization_spread'] * 100:.0f}%, "
            f"{snap['fleet']['nested_fallbacks']} nested fallbacks)",
            f"gc:       {snap['gc']['nodes_freed']} nodes freed in "
            f"{snap['gc']['regions_reset']} region resets + "
            f"{snap['gc']['major_collections']} major collections "
            f"({snap['gc']['simulated_ms']:.3f} ms simulated)",
            f"jit:      {snap['jit']['traces_compiled']} traces compiled, "
            f"{snap['jit']['trace_hits']} trace hits, "
            f"{snap['jit']['guard_bails']} guard bails",
            f"bulk:     {snap['bulk']['jobs']} jobs "
            f"({snap['bulk']['chunks']} chunks, "
            f"{snap['bulk']['elements']} elements), "
            f"{snap['bulk']['jobs_gathered']} gathered, "
            f"{snap['bulk']['chunk_errors']} chunk errors",
            f"rebalance: {snap['rebalance']['migrations']} migrations "
            f"({snap['rebalance']['nodes_moved']} nodes, "
            f"{snap['rebalance']['transfer_ms']:.3f} ms transfer), "
            f"{snap['rebalance']['devices_drained']} drained, "
            f"{snap['rebalance']['sessions_restored']} restored",
            f"failover: {snap['failover']['devices_lost']} losses "
            f"({snap['failover']['device_hangs']} hangs), "
            f"{snap['failover']['sessions_recovered']} sessions recovered, "
            f"{snap['failover']['requests_replayed']} replayed "
            f"(RPO mean {snap['failover']['rpo_mean_rounds']:.1f} / "
            f"max {snap['failover']['rpo_max_rounds']} rounds); "
            f"checkpoints {snap['failover']['checkpoints_shipped']} shipped + "
            f"{snap['failover']['checkpoints_skipped']} skipped "
            f"({snap['failover']['checkpoint_bytes']} B, "
            f"{snap['failover']['checkpoint_transfer_ms']:.3f} ms); "
            f"breaker {snap['failover']['breaker_opens']} opens, "
            f"probes {snap['failover']['probes_ok']}/"
            f"{snap['failover']['probes_sent']} ok, "
            f"{snap['failover']['devices_evicted']} evicted",
        ]
        sched = snap["scheduler"]
        if sched:
            overlap = sum(
                d["overlap_ms"] for d in sched.get("devices", {}).values()
            )
            lines.append(
                f"scheduler: virtual clock "
                f"{sched['makespan_ms']:.3f} ms, "
                f"transfer overlap {overlap:.3f} ms"
            )
        breaker_states = snap["failover"]["breaker_states"]
        for device_id, d in snap["devices"].items():
            line = (
                f"  {device_id} [{d['name']}/{d['kind']}]: {d['requests']} reqs in "
                f"{d['batches']} batches, busy {d['busy_ms']:.3f} ms, "
                f"util {d['utilization'] * 100:.0f}%, "
                f"up {d['uptime'] * 100:.0f}%, "
                f"cap {d['capability_ms']:.4f} ms/req"
            )
            state = breaker_states.get(device_id)
            if state is not None:
                line += f", breaker {state}"
            lines.append(line)
        return "\n".join(lines)
