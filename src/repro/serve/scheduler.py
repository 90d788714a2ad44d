"""The batching scheduler: per-device queues -> shared distribution rounds.

Each device's queue (:class:`~repro.serve.pool.DeviceQueue`) holds one
FIFO per session behind an index of session heads. Batch formation
takes at most **one request per session** per batch (up to
``max_batch``): it pops heads from the index until the batch closes,
and a chosen session's next ticket becomes a head only after the batch
is formed. Its cost grows with the heads it considers, not with the
length of the queue. That single rule provides both guarantees the
serving layer needs:

* **ordering** — a session's second command can only run in a *later*
  batch than its first, so each tenant observes strict REPL order;
* **fairness** — a tenant that floods the queue gets one slot per batch,
  the same as everyone else; nobody is starved behind a burst.

Dispatch hands the batch to ``device.submit_batch``, which executes it
as shared ``|||`` service rounds on the GPU (one handshake, one PCIe
transaction, tenants evaluated concurrently by worker warps) or as
pthread waves on the CPU.

Draining is **continuous batching**: each device owns a
:class:`~repro.serve.timeline.DevicePipeline` (double-buffered command
buffers on a virtual event timeline — batch *k+1*'s payload upload
overlaps batch *k*'s kernel), requests are admitted into the next
in-flight batch as slots free under deadline-aware (EDF) ordering, and
each device's batches resolve at their own pipeline completion — no
fleet barrier. The rebalancer and supervisor hooks run at *safe points*
(:meth:`Rebalancer.at_safe_point`, ``DeviceSupervisor.at_safe_point``):
between two dispatches of the host loop nothing is in flight, so the
policies only ever move idle sessions and queued tickets.

Continuous batching reorders work *across* sessions only: each
session's commands execute in submission order against its placed
heap, so every tenant's transcript equals the one it gets running solo
on a fresh single-device server (property-pinned).

Fault isolation: containable device faults (arena exhaustion, a per-job
livelock) come back from ``submit_batch`` as per-item errors — the
faulting ticket resolves with its error and every co-tenant's ticket
resolves normally. A *batch-fatal* failure (device shutdown, protocol
corruption) aborts the transaction without telling us which request
poisoned it, so the scheduler quarantines: every ticket of the failed
batch is requeued to run **alone**, and a quarantined ticket whose solo
batch also fails fatally is resolved with the error instead of being
retried again. ``drain`` therefore always terminates with zero pending
tickets, and the pool is never wedged by one poisonous request.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..core.nodes import NODE_BYTES
from ..errors import CuLiError, DeviceLostError
from ..gpu.hostlink import gate_request
from ..runtime.batch import BatchRequest, BatchResult
from ..timing import CommandStats
from .pool import link_ms
from .timeline import DevicePipeline

if TYPE_CHECKING:  # pragma: no cover
    from .pool import DevicePool, PooledDevice
    from .server import CuLiServer
    from .session import TenantSession, Ticket
    from .stats import MigrationRecord, ServerStats
    from .supervisor import DeviceSupervisor

__all__ = ["Scheduler", "Rebalancer"]


class Scheduler:
    """Forms batches from per-device queues and dispatches them."""

    def __init__(
        self,
        pool: "DevicePool",
        stats: "ServerStats",
        max_batch: int = 32,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.pool = pool
        #: The server's stats surface: every batch, fault and latency
        #: this scheduler resolves is recorded there.
        self.stats = stats
        self.max_batch = max_batch
        #: Installed by :class:`~repro.serve.supervisor.DeviceSupervisor`
        #: (failover-enabled servers): wraps submissions with the
        #: watchdog/chaos layer and owns device-loss recovery. None keeps
        #: the pre-failover behaviour exactly (losses degrade to the
        #: batch-fatal quarantine path).
        self.supervisor: Optional["DeviceSupervisor"] = None
        #: Per-device event timelines. Keyed by device id;
        #: survives device resets — a failover replaces the device
        #: object, not the passage of virtual time.
        self.pipelines: dict[str, DevicePipeline] = {}
        #: Host-work counters (exact and seed-stable): queued tickets
        #: batch formation looked at, and sessions the rebalancer looked
        #: at as move candidates. Both grow linearly with the work.
        self.tickets_examined = 0
        self.sessions_examined = 0

    def pipeline(self, device_id: str) -> DevicePipeline:
        """This device's event timeline (created on first use)."""
        pipe = self.pipelines.get(device_id)
        if pipe is None:
            pipe = self.pipelines[device_id] = DevicePipeline()
        return pipe

    @property
    def now_ms(self) -> float:
        """The fleet watermark (simulated ms): the latest pipeline
        completion, and the default arrival stamp for new requests."""
        return max(
            (p.completed_ms for p in self.pipelines.values()), default=0.0
        )

    @property
    def makespan_ms(self) -> float:
        """Modeled fleet completion time: the latest pipeline
        completion. (Distinct from
        ``ServerStats.simulated_makespan_ms``: the busiest device's
        summed busy time, which also carries the migration, checkpoint,
        restore and hang-detection charges no pipeline sees, and ignores
        queueing and transfer overlap.)"""
        return self.now_ms

    def pipeline_snapshot(self) -> dict:
        """Gauge payload for ``ServerStats.snapshot()["scheduler"]``."""
        return {
            "makespan_ms": round(self.makespan_ms, 3),
            "tickets_examined": self.tickets_examined,
            "sessions_examined": self.sessions_examined,
            "devices": {
                did: {
                    "completed_ms": round(p.completed_ms, 3),
                    "serial_ms": round(p.serial_ms, 3),
                    "overlap_ms": round(p.overlap_ms, 3),
                    "engine_busy_ms": round(p.engine_busy_ms, 3),
                    "utilization": round(p.utilization, 4),
                    "batches": p.batches,
                }
                for did, p in sorted(self.pipelines.items())
            },
        }

    # -- batch formation ----------------------------------------------------------

    def form_batch_async(self, pdev: "PooledDevice") -> list["Ticket"]:
        """Deadline-aware batch formation for the continuous pipeline.

        Candidates are each session's *head-of-line* ticket (per-session
        FIFO is inviolable), read from the queue's EDF head index: only
        the heads this batch considers are touched, never the whole
        queue. A candidate is admissible once it has
        arrived by the device's admission horizon — the virtual time the
        next batch's kernel could start; if nothing has arrived by then
        the horizon jumps forward to the earliest head arrival, so a
        non-empty queue always yields a batch. Admissible candidates are
        taken in EDF order: earliest ``deadline_ms`` first (bulk tenants
        carry +inf deadlines, so they fall behind every SLO-bearing
        request but age FIFO among themselves), ties broken by arrival
        then global submission order — a total, deterministic order.

        A bulk-session chunk (``TenantSession.bulk``) never joins a
        batch holding a deadline-bearing ticket: a batch's tickets all
        resolve at its pipeline completion, so co-batching would charge
        the chunk's kernel time straight onto the SLO tenant's latency.
        Skipped chunks simply stay queued — they fill the device's very
        next admission opportunity, so bulk still saturates every gap
        between interactive batches (the coexistence bound
        ``benchmarks/bench_gpu_map.py`` enforces). Finite-deadline
        tickets sort ahead of every chunk, so the exclusion is one-way
        by construction.

        On devices with a bounded command buffer this is the one packer:
        the combined payload stays within capacity, each request sized by
        the device's upload gate :func:`~repro.gpu.hostlink.gate_request`
        (sanitized bytes plus a separator), so one batch's upload never
        fails on size — the device refuses an over-capacity batch rather
        than splitting it (a *single* over-capacity command still joins a
        batch alone and is refused per request by the same gate). A CPU
        has no command buffer, so nothing is sized for it. A quarantined
        ticket (a survivor of a batch-fatal failure) only ever runs
        alone. With no SLOs and equal arrivals the EDF key degenerates to
        submission order: one ticket per session, in the order the
        sessions' heads were queued.
        """
        queue = pdev.queue
        if not queue:
            return []
        queue.admit(self.pipeline(pdev.device_id).horizon_ms)
        cmdbuf = getattr(pdev.device, "cmdbuf", None)
        capacity = cmdbuf.capacity if cmdbuf is not None else None
        batch: list["Ticket"] = []
        skipped: list["Ticket"] = []  # popped heads that stay queued
        payload = 0
        has_deadline = False
        while len(batch) < self.max_batch:
            ticket = queue.pop_ready()
            if ticket is None:
                break
            self.tickets_examined += 1
            if ticket.quarantined:
                if batch:
                    skipped.append(ticket)
                else:
                    batch.append(ticket)  # solo quarantine batch
                break
            if ticket.session.bulk and has_deadline:
                skipped.append(ticket)  # chunks wait for a deadline-free batch
                continue
            if capacity is not None:  # a CPU packs nothing by size
                size = gate_request(ticket.text, capacity)[1]
                if batch and payload + size > capacity:
                    skipped.append(ticket)
                    break
                payload += size
            batch.append(ticket)
            if ticket.deadline_ms != float("inf"):
                has_deadline = True
        for ticket in skipped:
            queue.push_ready(ticket)
        # Each session's next ticket becomes a head only now, so it can
        # never join the batch its predecessor is in.
        for ticket in batch:
            queue.take(ticket)
        return batch

    # -- dispatch -----------------------------------------------------------------

    def dispatch(
        self, pdev: "PooledDevice", batch: list["Ticket"]
    ) -> Optional[BatchResult]:
        """Execute one batch on one device and resolve its tickets.

        Returns the :class:`~repro.runtime.batch.BatchResult` on a
        completed transaction (the drain loop charges it to the device's
        pipeline), or ``None`` when the transaction did not
        complete — device loss or batch-fatal failure, both handled
        internally.

        Contained failures (Lisp errors, containable device faults) come
        back as per-item errors and resolve only their own ticket. A
        batch-fatal *device* failure (any :class:`~repro.errors.CuLiError`)
        is absorbed here — never re-raised — via the quarantine policy
        (see :meth:`_handle_fatal_batch`), so one poison request cannot
        wedge the queue or poison co-tenants' tickets. Host-side
        programming errors (non-CuLi exceptions) are not device faults:
        the tickets are resolved so no tenant hangs, then the bug
        propagates loudly.
        """
        if not batch:
            return None
        requests = [BatchRequest(ticket.text, ticket.session.env) for ticket in batch]
        supervisor = self.supervisor
        try:
            if supervisor is not None:
                result = supervisor.submit(pdev, requests)
            else:
                result = pdev.device.submit_batch(requests)
        except DeviceLostError as exc:
            if supervisor is not None:
                # The device is gone, batch and resident arenas with it:
                # the supervisor force-resets it and rebuilds the victim
                # sessions from their checkpoints on surviving devices.
                supervisor.on_device_loss(pdev, batch, exc)
                return None
            # Without a supervisor a loss degrades to the batch-fatal
            # quarantine path (the device object survives in simulation,
            # so solo retries still serve).
            self._handle_fatal_batch(pdev, batch, exc)
            return None
        except CuLiError as exc:
            self._handle_fatal_batch(pdev, batch, exc)
            return None
        except Exception as exc:
            # A simulator bug, not a modeled device failure: resolve the
            # popped tickets (a lost ticket would hang its tenant) and
            # let the crash surface instead of masking it as quarantine.
            for ticket in batch:
                ticket.resolve(CommandStats(output=f"error: {exc}"), exc)
            raise
        replayed = 0
        for ticket, item in zip(batch, result.items):
            # Recovery replays never rejoin the session history: the
            # tenant already saw this command's result, the re-execution
            # only rebuilds session state (resolve() skips them).
            ticket.resolve(item.stats, item.error)
            if ticket.replay:
                replayed += 1
            if supervisor is not None:
                supervisor.note_completed(ticket)
        self.stats.record_batch(pdev.device_id, result)
        if replayed:
            self.stats.record_replayed(replayed)
        return result

    def _handle_fatal_batch(
        self,
        pdev: "PooledDevice",
        batch: list["Ticket"],
        exc: Exception,
    ) -> None:
        """Quarantine policy for a batch the device aborted wholesale.

        The device cannot tell us which request was at fault, so a
        multi-request batch is split: every ticket goes back to the
        *front* of the queue (original order preserved) marked
        quarantined, to be retried in a solo batch. A ticket that fails
        fatally *alone* — it ran solo already, or was already
        quarantined — is the poison itself: it resolves with the error
        (recorded in stats and the session history, so bookkeeping never
        diverges from what the tenant observed) and is not retried.

        Retry semantics are **at-least-once**: a co-tenant job that
        finished evaluating before the batch died may have promoted
        bindings into its persistent session root (the abort only resets
        the nursery), and its solo retry re-executes the command against
        that state. A non-idempotent command (``(setq n (+ n 1))``) can
        therefore observe its own partial first attempt after a
        batch-fatal abort — the documented trade for never losing or
        wedging tickets (DESIGN.md deviation #8).
        """
        stats = self.stats
        stats.record_batch_fatal(pdev.device_id)
        retried = [t for t in batch if len(batch) > 1 and not t.quarantined]
        poisoned = [t for t in batch if t not in retried]
        for ticket in poisoned:
            ticket.resolve(CommandStats(output=f"error: {exc}"), exc)
        if poisoned:
            stats.record_poisoned(pdev.device_id, len(poisoned))
        for ticket in reversed(retried):
            ticket.quarantined = True
            pdev.queue.appendleft(ticket)
        if retried:
            stats.record_quarantined(len(retried))

    def _stamp_latencies(
        self, batch: list["Ticket"], resolve_ms: float
    ) -> None:
        """Stamp every newly-resolved ticket of ``batch`` with its
        virtual resolve time and record enqueue->resolve latency.

        Covers every resolution path that runs inside a drain (normal
        completion, poisoned quarantine, failover-cap poisoning) because
        it keys on *done and not yet stamped*. Replay tickets are
        internal recovery work — the tenant is not waiting on them — so
        they are stamped but never recorded in the latency reservoir.
        Close-time cancellations happen outside any drain and are
        deliberately absent from the reservoir too.
        """
        for ticket in batch:
            if ticket.done and ticket.resolve_ms is None:
                ticket.resolve_ms = resolve_ms
                if not ticket.replay:
                    self.stats.record_latency(
                        max(0.0, resolve_ms - ticket.arrival_ms)
                    )

    def drain(self, rebalancer: Optional["Rebalancer"] = None) -> int:
        """Serve every queued request; returns the number of batches run.

        Each sweep gives every device one admission opportunity: form a
        deadline-ordered batch from whatever has arrived by the device's
        pipeline horizon, dispatch it, and charge it onto the device's
        event timeline — upload on the up-link (overlapping the previous
        batch's kernel under double buffering), kernel on the engine,
        download on the down-link. The batch's tickets resolve at *its
        own* pipeline completion; a fast device never waits for a slow
        one.

        Between two dispatches of the host loop nothing is in flight, so
        the end of every sweep is a **safe point**: the rebalancer's
        policies and each device's supervisor hook (idle chaos, breaker
        tick/probe, interval checkpoints for resident sessions) run
        there, and migrations only ever touch idle heaps and queued
        (never in-flight) tickets.

        Drain always terminates with zero pending tickets: a batch-fatal
        device failure converts its tickets into solo quarantine
        retries, a quarantined ticket that fails again resolves with its
        error instead of looping, failover re-enqueues are bounded by the
        per-ticket failover cap, and the horizon rule guarantees a
        non-empty queue always yields a batch.
        """
        batches = 0
        while self.pool.pending:
            for pdev in list(self.pool.devices.values()):
                batch = self.form_batch_async(pdev)
                if not batch:
                    continue
                pipe = self.pipeline(pdev.device_id)
                floor = max(t.arrival_ms for t in batch)
                result = self.dispatch(pdev, batch)
                batches += 1
                if result is not None:
                    kernel_ms = max(
                        0.0,
                        result.times.total_ms
                        - result.upload_ms
                        - result.download_ms,
                    )
                    done = pipe.charge(
                        floor,
                        result.upload_ms,
                        kernel_ms,
                        result.download_ms,
                    )
                else:
                    # Failed transaction: the model carries no abort
                    # cost; resolve any poisoned tickets at the current
                    # horizon.
                    done = max(pipe.horizon_ms, floor)
                self._stamp_latencies(batch, done)
            # The safe point: the rebalancer once (its policies are
            # fleet-wide by nature), then each device's supervisor hook
            # on the device's own safe-point round clock.
            if rebalancer is not None:
                rebalancer.at_safe_point()
            if self.supervisor is not None:
                for pdev in list(self.pool.devices.values()):
                    self.supervisor.at_safe_point(pdev)
        return batches


class Rebalancer:
    """Elastic rebalancing at safe points: migrate idle sessions off
    overloaded or fault-ridden devices.

    Three policies run at every safe point, while no ticket is in
    flight:

    * **Fault drain** — a device that accumulates ``FAULT_THRESHOLD``
      *new* faults (contained plus batch-fatal, PR 4's classification)
      since this rebalancer last looked is marked draining: every
      session still on it migrates off (their queued tickets travel
      along), and the pool's placement skips draining devices for new
      and migrated sessions alike. Draining is sticky until
      :meth:`reset_device` returns a repaired device to service; a
      fault-injecting *tenant* can therefore walk the pool down device
      by device as it migrates (the policy cannot know which tenant is
      at fault), but the last healthy device is never drained — the
      pool always serves.
    * **Overload shedding** — when the hottest device's queue backlog
      exceeds ``IMBALANCE_RATIO`` x the coldest's (and by a meaningful
      margin), up to ``MAX_MOVES_PER_ROUND`` sessions move from hot to
      cold. The candidate whose queued-ticket count best fills half the
      gap is chosen, so one move does the most levelling possible
      without overshooting.
    * **Session leveling** — when resident session *demand* differs
      materially between the fullest and emptiest usable device,
      sessions migrate toward the emptiest (sharing the same per-round
      move budget). Queue shedding cannot see this skew when queues
      drain within a sweep — the state a device-loss failover leaves
      behind, with every victim on the survivors and the revived device
      empty.

    Backlogs and gaps are compared in **modeled milliseconds** — queue
    depths and session counts weighted by each device's calibrated
    per-request cost (``PooledDevice.probe_ms``) — so on a mixed fleet
    the policy never "levels" five queued requests on a Xeon against
    five on a Fermi card as if they weighed the same. Every move also
    faces a **cost/benefit veto**: the expected win must exceed the
    snapshot's wire cost over both ``link_ms`` legs — a session is
    never moved somewhere that makes it slower.

    Moving a session is never free: each migration's snapshot bytes are
    charged as modeled host<->device transfer time on both links
    (``ServerStats.record_migration``), which is what
    ``benchmarks/bench_rebalance.py`` holds the policy accountable
    against. On an already-balanced pool no move triggers and the only
    cost is the host-side backlog comparison.
    """

    #: Hot backlog must exceed this multiple of the cold backlog to shed.
    IMBALANCE_RATIO = 2.0
    #: Migrations per safe point, shared by shedding and leveling.
    MAX_MOVES_PER_ROUND = 2
    #: New faults on one device that mark it draining.
    FAULT_THRESHOLD = 3

    def __init__(self, server: "CuLiServer") -> None:
        self.server = server
        #: Per-device fault count already accounted for: drain decisions
        #: compare against the *delta* since the mark, not the lifetime
        #: counter, so a long-serving device is judged on recent health.
        self._fault_marks: dict[str, int] = {}

    def reset_device(self, device_id: str) -> None:
        """Return a drained device to service (operator hook, e.g. after
        the fault source was identified and closed): clears ``draining``
        and forgives the faults recorded so far."""
        self.server.pool[device_id].draining = False
        self._fault_marks[device_id] = (
            self.server.stats.per_device[device_id].faults
        )

    # -- the safe-point hook -------------------------------------------------------

    def at_safe_point(self) -> list["MigrationRecord"]:
        """Run the policies once; returns the migrations performed.

        The scheduler calls this between two dispatches of its host
        loop, when nothing is physically in flight anywhere: a migration
        only ever moves *queued* (never dispatched) tickets and an
        *idle* session heap.
        """
        moves = self._drain_faulty()
        moves.extend(self._shed_overload())
        if len(moves) < self.MAX_MOVES_PER_ROUND:
            moves.extend(
                self._level_sessions(self.MAX_MOVES_PER_ROUND - len(moves))
            )
        return moves

    # -- fault drain ---------------------------------------------------------------

    def _drain_faulty(self) -> list["MigrationRecord"]:
        pool = self.server.pool
        stats = self.server.stats
        moves: list["MigrationRecord"] = []
        for pdev in pool.devices.values():
            if pdev.draining:
                continue
            dstats = stats.per_device[pdev.device_id]
            mark = self._fault_marks.get(pdev.device_id, 0)
            if dstats.faults - mark < self.FAULT_THRESHOLD:
                continue
            self._fault_marks[pdev.device_id] = dstats.faults
            # Nowhere to evacuate to if every other device is draining.
            if all(
                other.draining
                for other in pool.devices.values()
                if other is not pdev
            ):
                continue
            pdev.draining = True
            stats.record_device_drained(pdev.device_id)
            for session in pdev.resident_sessions():
                moves.append(self.server.migrate_session(session))
        return moves

    # -- overload shedding ---------------------------------------------------------

    def _shed_overload(self) -> list["MigrationRecord"]:
        """Backlog shedding in modeled ms, with a cost/benefit veto.

        Every ticket is weighted by its device's per-request cost: the
        gap must be worth at least two hot-device requests, and the hot
        backlog must exceed ``IMBALANCE_RATIO`` x the cold backlog plus
        one cold request. The transfer target
        fills half the gap measured in drain time — moving a ticket off
        the hot device saves ``e_hot`` there and costs ``e_cold`` on the
        cold one, so half the gap is ``gap_ms / (e_hot + e_cold)``
        tickets.

        The veto then prices the chosen move twice, and the move must
        win both ways:

        * **queue relief** — the cold device's queued backlog after
          absorbing the session's tickets, plus the snapshot wire cost
          on both links, must undercut the hot queue backlog.
        * **drain horizon** — the same comparison with each side's
          *committed pipeline completion* added in. Queue depths alone
          lie: a device that just dispatched everything
          it held looks idle while its pipeline is committed
          milliseconds into the future, and pricing moves against the
          empty queue sheds the fleet's entire backlog onto one
          receiver a batch at a time.

        Failing either check means the "relief" arrives later than just
        draining in place, and the round stops.
        """
        pool = self.server.pool
        moves: list["MigrationRecord"] = []
        for _ in range(self.MAX_MOVES_PER_ROUND):
            usable = [d for d in pool.devices.values() if not d.draining]
            if len(usable) < 2:
                break
            hot = max(usable, key=lambda d: d.queue_backlog_ms)
            cold = min(usable, key=lambda d: d.queue_backlog_ms)
            e_hot, e_cold = hot.probe_ms, cold.probe_ms
            hot_q_ms = hot.queue_backlog_ms
            cold_q_ms = cold.queue_backlog_ms
            gap_ms = hot_q_ms - cold_q_ms
            if gap_ms < 2 * e_hot or hot_q_ms < self.IMBALANCE_RATIO * (
                cold_q_ms + e_cold
            ):
                break
            target = max(1, int(gap_ms / (e_hot + e_cold)))
            session = self._pick_session(hot, target_tickets=target)
            if session is None:
                break
            moved_q = hot.queue.count(session)
            # Wire estimate: the hot device's session-retained heap,
            # apportioned per resident session (the snapshot's real size
            # is only known after serialization — this prices the
            # decision, record_migration charges the actual bytes).
            est_bytes = int(
                NODE_BYTES
                * hot.session_retained_nodes
                / max(1, hot.session_count)
            )
            wire_ms = link_ms(hot, est_bytes) + link_ms(cold, est_bytes)
            relief_ms = moved_q * e_cold + wire_ms
            if cold_q_ms + relief_ms >= hot_q_ms:
                break
            hot_fin = self._committed_ms(hot) + hot_q_ms
            cold_fin = self._committed_ms(cold) + cold_q_ms
            if cold_fin + relief_ms >= hot_fin:
                break
            moves.append(self.server.migrate_session(session, cold.device_id))
        return moves

    def _committed_ms(self, pdev: "PooledDevice") -> float:
        """When this device's pipeline resolves everything it has already
        dispatched (0.0 before its first batch)."""
        pipe = self.server.scheduler.pipelines.get(pdev.device_id)
        return pipe.completed_ms if pipe is not None else 0.0

    # -- session leveling ----------------------------------------------------------

    def _level_sessions(self, budget: int) -> list["MigrationRecord"]:
        """Level resident session demand, not just queue depths.

        Queue shedding is blind to placement skew when queues drain to
        zero within each sweep — exactly the state a device-loss failover
        leaves behind (every victim lands on the survivors while the
        revived device sits empty). Moving sessions until the skew
        closes re-levels the fleet within a couple of rounds; on an
        already-even pool the gate never opens.

        Session counts are weighted by per-request cost (demand-ms): the
        gap must be worth two cold-device requests, and a move is vetoed
        on either of two cost/benefit checks:

        * **capacity** — the cold device *after* absorbing one more
          session would already out-demand the hot device. Moving a
          session from a loaded Xeon to an idle Fermi card fails this,
          because one session on the slow card costs more service time
          than dozens on the fast one.
        * **wire payback** — the one-time snapshot wire cost (both PCIe
          legs) must pay for itself within two rounds of the per-session
          service time it frees on the hot device (``2 * e_hot``, the
          same two-request horizon as the shed gate). This is what stops
          a fast CPU hoarding thousands of cheap resident sessions from
          being "leveled" onto GPUs: freeing 0.2 us of Xeon time never
          pays for a 5 us PCIe restore, while a homogeneous GPU pool's
          post-failover re-level (two ~5 us legs against a ~7-40 us
          per-request saving) always clears it.
        """
        pool = self.server.pool
        moves: list["MigrationRecord"] = []
        for _ in range(budget):
            usable = [
                d
                for d in pool.devices.values()
                if not d.draining and not d.device.lost
            ]
            if len(usable) < 2:
                break
            hot = max(usable, key=lambda d: d.resident_demand_ms)
            cold = min(usable, key=lambda d: d.resident_demand_ms)
            if (
                hot.resident_demand_ms
                < cold.resident_demand_ms + 2 * cold.probe_ms
            ):
                break
            if (
                (cold.session_count + 1) * cold.probe_ms
                >= hot.session_count * hot.probe_ms
            ):
                break
            est_bytes = int(
                NODE_BYTES
                * hot.session_retained_nodes
                / max(1, hot.session_count)
            )
            wire_ms = link_ms(hot, est_bytes) + link_ms(cold, est_bytes)
            if wire_ms >= 2 * hot.probe_ms:
                break
            session = self._leveling_candidate(hot)
            if session is None:
                break
            moves.append(
                self.server.migrate_session(session, cold.device_id)
            )
        return moves

    def _leveling_candidate(
        self, hot: "PooledDevice"
    ) -> Optional["TenantSession"]:
        """The session leveling moves off the hot device: prefer one
        with nothing queued — its migration moves only the heap
        snapshot, never reorders pending work."""
        residents = hot.resident_sessions()
        scheduler = self.server.scheduler
        for session in residents:
            scheduler.sessions_examined += 1
            if not hot.queue.count(session):
                return session
        return residents[0] if residents else None

    def _pick_session(
        self, pdev: "PooledDevice", target_tickets: int
    ) -> Optional["TenantSession"]:
        """The session whose queued-ticket count comes closest to the
        transfer target without exceeding it (falling back to the
        lightest session when every candidate overshoots); equal counts
        go to the session whose head sits earliest in the queue."""
        session = pdev.queue.pick_session(target_tickets)
        if session is not None:
            self.server.scheduler.sessions_examined += 1
        return session
