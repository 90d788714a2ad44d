"""DeviceSupervisor: watchdog, circuit breaker, and checkpoint failover.

The fault-containment ladder so far (PR 4/5) handles faults the device
*survives*: containable faults resolve per-job, batch-fatal failures
quarantine the batch, repeated faults drain the device. This module adds
the rung where the device itself is gone — a crash
(:class:`~repro.errors.DeviceLostError`) or a hang
(:class:`~repro.errors.DeviceHangError`) destroys every resident
tenant's arena state along with the in-flight batch.

The supervisor's contract is **no request is ever lost**: every ticket a
tenant enqueued resolves exactly once, with a result or an error, no
matter which devices die when. The mechanism:

* **Watchdog** — every batch submission is followed by a liveness
  check; a device that hangs (a chaos hang) or stops answering is
  force-reset and treated as lost, and detecting it costs
  ``hang_detect_ms`` of modeled time. Nothing is decided by the host's
  wall clock, so a slow host never costs a modeled fleet a device.
* **Checkpoint failover** — victim sessions are rebuilt on surviving
  devices from their last :class:`~repro.serve.checkpoint.CheckpointStore`
  checkpoint; the post-checkpoint command suffix is **replayed** (at
  most ``checkpoint_interval`` rounds, the RPO bound), then the lost
  round's in-flight tickets and the still-queued tickets re-enqueue
  behind it — per-session submission order survives the crash. A ticket
  that rides through more than ``max_ticket_failovers`` losses resolves
  as poisoned instead of retrying forever, so ``drain()`` still always
  terminates.
* **Circuit breaker** — a device that fails ``breaker_failures`` times
  within ``breaker_window`` rounds is opened (placement avoids it);
  after ``cooldown_rounds`` idle rounds the breaker half-opens and the
  supervisor sends a synthetic *probe batch* — success closes the
  breaker and returns the device to service (this is also how a
  Rebalancer-drained device gets back automatically), failure re-opens
  it and counts a *flap*. A device that flaps ``max_flaps`` times is
  evicted from the pool for good (never the last device).

Co-tenant isolation: sessions on *surviving* devices are never touched
by a recovery — their heaps, queues, and outputs are byte-identical to a
run where the loss never happened (the chaos suite asserts exactly
this).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from ..errors import (
    ArenaExhaustedError,
    CuLiError,
    DeviceHangError,
    DeviceLostError,
    LispError,
)
from ..runtime.batch import BatchRequest
from ..runtime.snapshot import restore_env
from ..timing import CommandStats
from .checkpoint import CheckpointStore
from .pool import link_ms
from .session import Ticket

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.batch import BatchResult
    from .chaos import ChaosMonkey
    from .pool import PooledDevice
    from .server import CuLiServer
    from .session import TenantSession

__all__ = [
    "CircuitBreaker",
    "DeviceSupervisor",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
]

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


class CircuitBreaker:
    """Per-device failure gate: CLOSED -> OPEN -> HALF_OPEN -> CLOSED.

    OPEN after ``failures`` losses within a ``window``-round span; stays
    OPEN for ``cooldown`` rounds (placement avoids the device), then
    HALF_OPEN — one probe batch decides: success closes, failure
    re-opens and counts a flap. ``flapping`` turns True at ``max_flaps``
    reopen-from-probe cycles — the device is permanently unreliable and
    should be evicted rather than probed forever.
    """

    def __init__(
        self,
        failures: int = 2,
        window: int = 8,
        cooldown: int = 2,
        max_flaps: int = 3,
    ) -> None:
        if failures < 1 or window < 1 or cooldown < 1 or max_flaps < 1:
            raise ValueError("breaker parameters must all be >= 1")
        self.failures = failures
        self.window = window
        self.cooldown = cooldown
        self.max_flaps = max_flaps
        self.state = BREAKER_CLOSED
        self.flaps = 0
        self.opens = 0
        self._recent: deque[int] = deque()  #: round numbers of losses
        self._cooldown_left = 0

    def record_failure(self, round_no: int) -> str:
        """Count one device loss; returns the (possibly new) state."""
        if self.state == BREAKER_HALF_OPEN:
            # The probe (or a loss racing it) failed: that's a flap.
            self.flaps += 1
            self._open()
            return self.state
        self._recent.append(round_no)
        while self._recent and round_no - self._recent[0] >= self.window:
            self._recent.popleft()
        if self.state == BREAKER_CLOSED and len(self._recent) >= self.failures:
            self._open()
        return self.state

    def trip(self) -> None:
        """Force OPEN (e.g. the Rebalancer drained this device): the
        cooldown/probe path then owns the road back to service."""
        if self.state == BREAKER_CLOSED:
            self._open()

    def _open(self) -> None:
        self.state = BREAKER_OPEN
        self.opens += 1
        self._cooldown_left = self.cooldown
        self._recent.clear()

    def tick(self) -> None:
        """One idle round passed; OPEN counts down toward HALF_OPEN."""
        if self.state == BREAKER_OPEN:
            self._cooldown_left -= 1
            if self._cooldown_left <= 0:
                self.state = BREAKER_HALF_OPEN

    def on_probe_success(self) -> None:
        self.state = BREAKER_CLOSED
        self._recent.clear()

    @property
    def flapping(self) -> bool:
        return self.flaps >= self.max_flaps

    def __repr__(self) -> str:
        return f"<CircuitBreaker {self.state} flaps={self.flaps}>"


class DeviceSupervisor:
    """Watchdog + circuit breaker + checkpoint failover (module docs)."""

    #: The half-open probe command: tiny, pure, and state-free, so a
    #: probe can run against the device's global env with no tenant
    #: involved and no persistent effect.
    PROBE_TEXT = "(+ 1 1)"
    PROBE_ANSWER = "2"

    def __init__(
        self,
        server: "CuLiServer",
        chaos: Optional["ChaosMonkey"] = None,
        checkpoint_interval: int = 8,
        breaker_failures: int = 2,
        breaker_window: int = 8,
        cooldown_rounds: int = 2,
        max_flaps: int = 3,
        max_ticket_failovers: int = 8,
        hang_detect_ms: float = 50.0,
    ) -> None:
        if max_ticket_failovers < 1:
            raise ValueError("max_ticket_failovers must be >= 1")
        self.server = server
        self.stats = server.stats
        self.chaos = chaos
        self.store = CheckpointStore(checkpoint_interval)
        self.breaker_failures = breaker_failures
        self.breaker_window = breaker_window
        self.cooldown_rounds = cooldown_rounds
        self.max_flaps = max_flaps
        self.max_ticket_failovers = max_ticket_failovers
        #: Modeled device-time cost of *detecting* a hang (the deadline
        #: the watchdog waited out before force-resetting).
        self.hang_detect_ms = hang_detect_ms
        self.breakers: dict[str, CircuitBreaker] = {}
        #: Host work: sessions examined for a checkpoint at safe points
        #: (a deterministic counter, kept out of ``ServerStats``).
        self.sessions_checked = 0
        #: Safe-point round counters, one per device: breaker windows
        #: and cooldowns are *per device*, so each device's breaker ages
        #: on its own clock.
        self.device_rounds: dict[str, int] = {}
        # Wire into the serving loop: the scheduler routes submissions
        # and loss handling through us, the stats surface gains the live
        # breaker-state gauge.
        server.scheduler.supervisor = self
        self.stats._breaker_state_fn = self.breaker_states

    # -- breaker bookkeeping -------------------------------------------------------

    def breaker(self, device_id: str) -> CircuitBreaker:
        brk = self.breakers.get(device_id)
        if brk is None:
            brk = CircuitBreaker(
                failures=self.breaker_failures,
                window=self.breaker_window,
                cooldown=self.cooldown_rounds,
                max_flaps=self.max_flaps,
            )
            self.breakers[device_id] = brk
        return brk

    def breaker_states(self) -> dict[str, str]:
        """Live per-device breaker state (stats gauge)."""
        return {
            device_id: self.breakers[device_id].state
            if device_id in self.breakers
            else BREAKER_CLOSED
            for device_id in self.server.pool.devices
        }

    # -- session lifecycle (called by the server) ----------------------------------

    def track_session(self, session: "TenantSession") -> None:
        self.store.register(session.session_id)

    def forget_session(self, session: "TenantSession") -> None:
        self.store.drop(session.session_id)

    def note_completed(self, ticket: Ticket) -> None:
        """Record a resolved ticket into its session's replay suffix.

        Only commands whose effects *persist* are logged: clean results
        and Lisp-level errors (partial effects survive in the session
        root). Device faults are excluded — containable ones rolled the
        job's nursery back and batch-fatal ones reset the whole nursery,
        so the command left no state to reproduce; replaying it would
        only re-raise the fault (or, for an injected device-killer,
        re-kill every device it ever replays on).
        """
        if not self.store.tracked(ticket.session.session_id):
            return
        if ticket.error is None or isinstance(ticket.error, LispError):
            session = ticket.session
            self.store.record_completed(
                session.session_id, ticket.text, session.device_id
            )

    def session_moved(self, session: "TenantSession") -> None:
        """A live migration moved ``session``: a due checkpoint moves
        with it, to its new device's safe point."""
        self.store.move(session.session_id, session.device_id)

    # -- the watchdog wrap (called by the scheduler) -------------------------------

    def submit(
        self, pdev: "PooledDevice", requests: list[BatchRequest]
    ) -> "BatchResult":
        """Submit one batch under chaos injection and the heartbeat.

        Raises :class:`DeviceLostError` / :class:`DeviceHangError` with a
        ``work_ran`` attribute telling the loss handler whether the round
        executed before the device died (hang: yes — at-least-once
        replay territory) or never started (kill: no — plain retry).
        """
        event = self.chaos.draw(pdev.device_id) if self.chaos is not None else None
        if event == "kill":
            pdev.device.mark_lost("chaos: killed before the round was submitted")
            exc = DeviceLostError(
                f"device {pdev.device_id} lost: chaos kill before round"
            )
            exc.work_ran = False
            raise exc
        result = pdev.device.submit_batch(requests)
        if event == "hang":
            reason = "chaos: hung after the round executed"
            pdev.device.mark_lost(reason)
            exc = DeviceHangError(f"device {pdev.device_id} hung: {reason}")
            exc.work_ran = True
            raise exc
        if pdev.device.lost:
            # Heartbeat: something inside the round marked the device
            # lost without aborting the batch — the result can't be
            # trusted past a silent device.
            exc = DeviceHangError(
                f"device {pdev.device_id} went silent during the round"
            )
            exc.work_ran = True
            raise exc
        return result

    # -- loss handling -------------------------------------------------------------

    def on_device_loss(
        self, pdev: "PooledDevice", batch: list[Ticket], exc: Exception
    ) -> None:
        """Fail every resident session over after ``pdev`` died.

        The in-flight ``batch`` (possibly empty — idle kills) and the
        still-queued tickets are captured, the device is force-reset to
        a fresh object (empty arena — the crash destroyed the old one),
        and every victim session is rebuilt from its last checkpoint on
        a surviving device with its tickets re-enqueued in order:
        replayed suffix first, then the in-flight retry, then the queue.
        """
        device_id = pdev.device_id
        work_ran = bool(getattr(exc, "work_ran", True))
        if not pdev.device.lost:
            pdev.device.mark_lost(str(exc))
        # Capture victims and work before the reset wipes the queue view.
        # The victims leave the dead slot now: until recovery places each
        # one, it is resident nowhere.
        victims = pdev.resident_sessions()
        for session in victims:
            pdev.remove_resident(session)
        queued = pdev.queue.clear()
        self._reset_lost(pdev, exc)
        brk = self.breaker(device_id)
        was_open = brk.state != BREAKER_CLOSED
        # A slot that lost sessions is never evicted here: its victims
        # still name it as their device until they are recovered.
        if self._breaker_failure(pdev, brk, evict=not victims) == BREAKER_OPEN:
            pdev.draining = True  # placement avoids it until a probe passes
            if not was_open:
                self.stats.record_breaker_open(device_id)
        # Per-ticket failover accounting on the in-flight batch: a
        # ticket that has already ridden through too many losses is the
        # common factor — resolve it poisoned instead of retrying again
        # (this is what bounds drain() under a device-killing request).
        survivors: list[Ticket] = []
        for ticket in batch:
            ticket.failovers += 1
            if ticket.failovers > self.max_ticket_failovers:
                self._resolve_poisoned(ticket, exc, device_id)
            else:
                if work_ran:
                    # The round executed before the device died, so any
                    # request in it may be the killer: solo-retry each
                    # (same ambiguity as a batch-fatal quarantine).
                    ticket.quarantined = True
                survivors.append(ticket)
        by_session_inflight: dict[str, list[Ticket]] = {}
        for ticket in survivors:
            by_session_inflight.setdefault(
                ticket.session.session_id, []
            ).append(ticket)
        by_session_queued: dict[str, list[Ticket]] = {}
        for ticket in queued:
            by_session_queued.setdefault(
                ticket.session.session_id, []
            ).append(ticket)
        for session in victims:
            self._recover_session(
                session,
                exclude={device_id},
                inflight=by_session_inflight.get(session.session_id, []),
                queued=by_session_queued.get(session.session_id, []),
                cause=exc,
            )

    def _reset_lost(self, pdev: "PooledDevice", exc: Exception) -> None:
        """Count one device loss and force-reset the device: a hang also
        charges the watchdog's detection wait to the device."""
        hang = isinstance(exc, DeviceHangError)
        self.stats.record_device_lost(
            pdev.device_id,
            hang=hang,
            detect_ms=self.hang_detect_ms if hang else 0.0,
        )
        self.server.pool.revive(pdev.device_id)

    def _breaker_failure(
        self, pdev: "PooledDevice", brk: CircuitBreaker, evict: bool = True
    ) -> str:
        """Count one failure on ``pdev``'s breaker and return its new
        state; a device that has flapped for good is evicted when
        ``evict`` allows."""
        state = brk.record_failure(self.device_rounds.get(pdev.device_id, 0))
        if evict and brk.flapping:
            self._maybe_evict(pdev)
        return state

    def kill_device(
        self, device_id: str, reason: str = "operator kill", hang: bool = False
    ) -> None:
        """Kill a device now (test/ops hook): mark it lost and run the
        full failover path with no batch in flight."""
        pdev = self.server.pool[device_id]
        pdev.device.mark_lost(reason)
        exc_type = DeviceHangError if hang else DeviceLostError
        exc = exc_type(f"device {device_id} lost: {reason}")
        exc.work_ran = False
        self.on_device_loss(pdev, [], exc)

    # -- recovery ------------------------------------------------------------------

    def _recover_session(
        self,
        session: "TenantSession",
        exclude: set,
        inflight: list[Ticket],
        queued: list[Ticket],
        cause: Exception,
    ) -> None:
        sid = session.session_id
        pool = self.server.pool
        snap = self.store.get(sid)
        suffix = self.store.suffix(sid)
        target: Optional["PooledDevice"] = None
        env = None
        tried: set = set()
        # Placement ladder: lowest-backlog surviving device first —
        # under cost placement that means the fastest capable device
        # with the cheapest restore link (the victim arrives carrying
        # its checkpoint bytes), so recovery lands fastest-first on a
        # heterogeneous fleet. An arena-exhausted restore cleans the
        # target (a major collection reclaims any orphans a previous
        # failed restore left) and retries once there, then moves to the
        # next device. The pool's never-refuse fallback means the
        # freshly revived device is the last resort — its arena is
        # empty, so a checkpoint that fits anywhere fits there.
        incoming = snap.nbytes if snap is not None else 0
        for _ in range(max(1, len(pool.devices))):
            pdev = pool.place_session(
                exclude=set(exclude) | tried, incoming_nbytes=incoming
            )
            try:
                if snap is not None:
                    try:
                        env = restore_env(snap, pdev.device.interp, label=sid)
                    except ArenaExhaustedError:
                        pdev.device.interp.collect_major()
                        env = restore_env(snap, pdev.device.interp, label=sid)
                else:
                    env = pdev.device.create_session_env(label=sid)
                target = pdev
                break
            except CuLiError:
                # Atomicity: a failed restore installs no binding (see
                # restore_env), so the co-tenants on this device saw
                # nothing. Sweep the attempt's orphaned nodes now —
                # the device is left exactly as it was — and try the
                # next candidate.
                pdev.device.interp.collect_major()
                tried.add(pdev.device_id)
        if target is None or env is None:
            self._abandon_session(session, inflight + queued, cause)
            return
        target.add_resident(session)
        session.env = env
        session.device_id = target.device_id
        # Restoring the checkpoint moves its bytes host->device for real:
        # charge the wire like a migration's destination half.
        if snap is not None:
            self.stats.record_failover_restore(
                target.device_id, snap.nbytes, link_ms(target, snap.nbytes)
            )
        # Re-enqueue in recovery order: the replayed suffix rebuilds the
        # post-checkpoint state, then the lost round's retry, then the
        # untouched queue — per-session submission order holds end to end.
        replayed = 0
        for text in suffix:
            ticket = Ticket(session, text)
            ticket.replay = True
            target.queue.append(ticket)
            replayed += 1
            self.stats.record_enqueue()
        for ticket in inflight:
            target.queue.append(ticket)
        for ticket in queued:
            target.queue.append(ticket)
        self.store.on_recovered(sid)
        self.stats.record_session_recovered(
            target.device_id, rpo_rounds=len(suffix), replayed=replayed
        )

    def _abandon_session(
        self,
        session: "TenantSession",
        tickets: list[Ticket],
        cause: Exception,
    ) -> None:
        """Last-resort path: no device could hold the restored heap.
        Resolve every pending ticket with the loss (never silently drop
        one) and close the session — its checkpoint is forfeit."""
        err = DeviceLostError(
            f"session {session.session_id} unrecoverable: no surviving "
            f"device could restore its checkpoint after {cause}"
        )
        for ticket in tickets:
            self._resolve_poisoned(ticket, err, session.device_id)
        self.store.drop(session.session_id)
        self.server.sessions.pop(session.session_id, None)
        session._closed = True

    def _resolve_poisoned(
        self, ticket: Ticket, exc: Exception, device_id: str
    ) -> None:
        ticket.resolve(CommandStats(output=f"error: {exc}"), exc)
        self.stats.record_poisoned(device_id, 1)

    # -- eviction ------------------------------------------------------------------

    def _maybe_evict(self, pdev: "PooledDevice") -> None:
        """Remove a permanently flapping device from the pool — unless it
        is the last one, or tenants are (still) resident on it."""
        pool = self.server.pool
        device_id = pdev.device_id
        if len(pool.devices) <= 1:
            return
        if pdev.queue or pdev.residents:
            return
        pool.evict(device_id)
        self.breakers.pop(device_id, None)
        self.stats.record_device_evicted(device_id)

    # -- the safe-point hook (called by the scheduler) ----------------------------

    def at_safe_point(self, pdev: "PooledDevice") -> None:
        """Runs while nothing of ``pdev``'s is in flight: idle chaos,
        breaker lifecycle, interval checkpoints and uptime accounting,
        all against the device's own safe-point round counter.

        * **idle chaos** — the chaos monkey may kill the idle device.
        * **draining -> trip** — a Rebalancer fault-drain trips the
          device's breaker, so a drained device gets the same automated
          cooldown -> probe -> close road back every lost device gets.
        * **breaker** — cooldown tick, then the half-open probe.
        * **checkpoints** — interval checkpoints for the sessions
          *resident on this device* (their heaps are idle between their
          own batches; co-residents of other devices are checkpointed at
          those devices' safe points). The checkpoint store indexes a
          session as due on its device when its suffix log reaches the
          interval, so this visits the due sessions only, never every
          resident.
        """
        device_id = pdev.device_id
        pool = self.server.pool
        if pool.devices.get(device_id) is not pdev:
            return  # evicted earlier in this sweep
        self.device_rounds[device_id] = (
            self.device_rounds.get(device_id, 0) + 1
        )
        if self.chaos is not None and not pdev.device.lost:
            if self.chaos.draw_idle(device_id):
                pdev.device.mark_lost("chaos: idle kill at safe point")
                exc = DeviceLostError(
                    f"device {device_id} lost: chaos idle kill"
                )
                exc.work_ran = False
                self.on_device_loss(pdev, [], exc)
        fresh_trip = False
        if pdev.draining:
            brk = self.breaker(device_id)
            if brk.state == BREAKER_CLOSED:
                brk.trip()
                fresh_trip = True
                self.stats.record_breaker_open(device_id)
        brk = self.breakers.get(device_id)
        if (
            brk is not None
            and not fresh_trip
            and pool.devices.get(device_id) is pdev
        ):
            brk.tick()
            if brk.state == BREAKER_HALF_OPEN:
                self._probe(pdev, brk)
        # Only the sessions due here, in the session-table (open) order
        # a resident sweep would meet them.
        sessions = self.server.sessions
        due = sorted(
            (sessions[sid] for sid in self.store.due_on(device_id)),
            key=lambda session: session.open_order,
        )
        self.sessions_checked += len(due)
        for session in due:
            snap, shipped = self.store.checkpoint(session)
            if shipped:
                nbytes = snap.nbytes
                self.stats.record_checkpoint(
                    device_id, nbytes, link_ms(pdev, nbytes)
                )
            else:
                self.stats.record_checkpoint_skipped()
        dstats = self.stats.per_device[device_id]
        dstats.rounds_total += 1
        if not pdev.draining and not pdev.device.lost:
            dstats.rounds_up += 1

    # -- probes --------------------------------------------------------------------

    def _probe(self, pdev: "PooledDevice", brk: CircuitBreaker) -> None:
        """Half-open probe: one synthetic no-tenant batch decides whether
        the device returns to service or flaps back open."""
        device_id = pdev.device_id
        self.stats.record_probe(device_id)
        request = BatchRequest(text=self.PROBE_TEXT, env=None)
        ok = False
        try:
            result = self.submit(pdev, [request])
            ok = (
                len(result.items) == 1
                and result.items[0].error is None
                and result.items[0].stats.output == self.PROBE_ANSWER
            )
        except DeviceLostError as exc:
            self._reset_lost(pdev, exc)
        except CuLiError:
            pass  # a device fault: the probe failed like a wrong answer
        if not ok:
            self._breaker_failure(pdev, brk)  # a flap
            return
        brk.on_probe_success()
        pdev.draining = False
        self.stats.record_probe_ok(device_id, result.times.total_ms)
        if self.server.rebalancer is not None:
            # Forgive the fault marks the Rebalancer counted: the probe
            # just demonstrated the device serves again, and stale marks
            # would re-drain it on its first new fault.
            self.server.rebalancer.reset_device(device_id)
