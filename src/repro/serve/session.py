"""Tenant sessions: many logical REPLs multiplexed onto a shared pool.

A :class:`TenantSession` looks like a :class:`~repro.runtime.session.CuLiSession`
— same eval / feed_line / run_program surface, same persistent
environment across commands — but it does not own a device. Its
environment lives on the pooled device it was placed on, and its
commands travel through the server's batching scheduler as
:class:`Ticket`\\ s.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from ..core.environment import Environment
from ..runtime.protocol import HostProtocol
from ..timing import CommandStats, PhaseBreakdown

if TYPE_CHECKING:  # pragma: no cover
    from .server import CuLiServer
    from .stats import MigrationRecord

__all__ = ["Ticket", "TenantSession"]


class Ticket:
    """A pending request: filled in when its batch executes."""

    __slots__ = ("session", "text", "stats", "error", "quarantined", "replay",
                 "failovers", "arrival_ms", "deadline_ms", "seq", "resolve_ms",
                 "_pos", "_next", "_entry")

    _seq_counter = 0

    def __init__(
        self,
        session: "TenantSession",
        text: str,
        arrival_ms: float = 0.0,
    ) -> None:
        self.session = session
        self.text = text
        self.stats: Optional[CommandStats] = None
        self.error: Optional[Exception] = None
        #: Simulated arrival time (same virtual clock as the scheduler's
        #: event timeline). Enqueue->resolve latency is measured on it.
        self.arrival_ms = arrival_ms
        #: EDF key: ``arrival + session.slo_ms`` for latency-sensitive
        #: tenants, +inf for bulk tenants (so bulk falls back to FIFO
        #: *behind* every deadline-bearing request, but ages by arrival
        #: among itself).
        slo = session.slo_ms
        self.deadline_ms = arrival_ms + slo if slo is not None else float("inf")
        #: Global submission order — the deterministic tie-breaker that
        #: keeps EDF sorts total (no dependence on dict/heap iteration).
        Ticket._seq_counter += 1
        self.seq = Ticket._seq_counter
        #: When the scheduler resolved this ticket on the virtual clock
        #: (None until done). Latency = resolve_ms - arrival_ms.
        self.resolve_ms: Optional[float] = None
        session._pending += 1
        #: Set by the scheduler when this ticket survived a batch-fatal
        #: device failure: it is retried *alone* (a batch of one), and if
        #: that solo run fails fatally too the ticket is resolved with
        #: the error instead of being retried again — a deterministically
        #: poisonous request can never wedge the queue.
        self.quarantined = False
        #: Internal recovery ticket (checkpoint failover): re-executes a
        #: command the tenant already saw the result of, purely to
        #: rebuild session state. Its output is discarded — it never
        #: joins the session history, only the suffix log.
        self.replay = False
        #: Device losses this ticket has ridden through while in flight;
        #: past the supervisor's ``max_ticket_failovers`` it resolves as
        #: poisoned instead of retrying — the drain-termination bound.
        self.failovers = 0
        #: Device-queue bookkeeping (:class:`~repro.serve.pool.DeviceQueue`):
        #: queue position, next ticket of the same session, live EDF entry.
        self._pos = 0
        self._next: Optional[Ticket] = None
        self._entry: Optional[tuple] = None

    def resolve(
        self,
        stats: CommandStats,
        error: Optional[Exception] = None,
        record_history: bool = True,
    ) -> None:
        """Fill in the outcome and release the tenant's admission slot.

        Every resolution site (batch success, batch-fatal poisoning,
        failover-cap poisoning, close-time cancellation) funnels through
        here so the per-session pending count — what admission control
        gates on — can never leak. Replay tickets never join the session
        history (the tenant already saw their results)."""
        first = self.stats is None
        self.stats = stats
        self.error = error
        if first:
            self.session._pending = max(0, self.session._pending - 1)
            if record_history and not self.replay:
                self.session.history.append(stats)

    @property
    def done(self) -> bool:
        return self.stats is not None

    @property
    def ok(self) -> bool:
        return self.done and self.error is None

    @property
    def output(self) -> str:
        """The command's output (``error: ...`` text for failed requests).

        Raises if the ticket has not been executed yet — call
        ``server.flush()`` (or use ``session.eval``, which flushes).
        """
        if self.stats is None:
            raise RuntimeError("request not executed yet: call server.flush()")
        return self.stats.output

    def __repr__(self) -> str:
        state = "done" if self.done else "pending"
        return f"<Ticket {self.session.session_id} {self.text!r} [{state}]>"


class TenantSession:
    """One tenant's persistent REPL on a shared serving pool."""

    def __init__(
        self,
        server: "CuLiServer",
        session_id: str,
        device_id: str,
        env: Environment,
        slo_ms: Optional[float] = None,
        open_order: int = 0,
    ) -> None:
        self.server = server
        self.session_id = session_id
        self.device_id = device_id
        self.env = env
        #: Position in the server's session table: a device's resident
        #: index sorts by it to list sessions in table order.
        self.open_order = open_order
        #: Latency SLO for this tenant in simulated ms, or None for a
        #: bulk tenant with no deadline. Drives the async scheduler's
        #: deadline-aware (EDF) batch ordering.
        self.slo_ms = slo_ms
        #: True for the server's internal bulk-job sessions (gpu-map
        #: chunk carriers). Batches resolve atomically at pipeline
        #: completion, so the async batch former keeps bulk chunks out
        #: of any batch holding a deadline-bearing ticket — chunk kernel
        #: time must never inflate an SLO tenant's latency.
        self.bulk = False
        self.history: list[CommandStats] = []
        #: Unresolved tickets (admission control: the server refuses new
        #: submissions past ``max_session_queue``). Maintained by
        #: Ticket.__init__ / Ticket.resolve, includes replay tickets.
        self._pending = 0
        self._protocol: HostProtocol[Ticket] = HostProtocol(self.submit)
        self._closed = False

    # -- submission ---------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Unresolved tickets queued for this session."""
        return self._pending

    def submit(self, text: str, arrival_ms: Optional[float] = None) -> Ticket:
        """Queue one command; returns immediately with a pending ticket.

        Commands from one session always execute in submission order
        (the scheduler batches at most one request per session per
        round). ``arrival_ms`` stamps the request's simulated arrival
        for latency accounting and deadline ordering; by default it
        arrives "now" on the server's virtual clock.

        Raises :class:`~repro.errors.AdmissionError` when this session
        already has ``max_session_queue`` unresolved tickets
        (backpressure: drain with ``server.flush()`` and resubmit)."""
        if self._closed:
            raise RuntimeError(f"session {self.session_id} is closed")
        return self.server.submit(self, text, arrival_ms=arrival_ms)

    def eval(self, source: str) -> str:
        """Synchronous convenience: submit, flush the server, return output.

        Other tenants' queued requests ride along in the same flush —
        that is the point of the serving layer."""
        ticket = self.submit(source)
        self.server.flush()
        return ticket.output

    def eval_timed(self, source: str) -> tuple[str, PhaseBreakdown]:
        ticket = self.submit(source)
        self.server.flush()
        assert ticket.stats is not None
        return ticket.stats.output, ticket.stats.times

    def feed_line(self, line: str) -> Optional[Ticket]:
        """Interactive-prompt accumulation, exactly like CuLiSession
        (shared :class:`HostProtocol`); returns a ticket once the
        parentheses balance."""
        return self._protocol.feed_line(line)

    @property
    def pending_input(self) -> str:
        return self._protocol.pending_input

    def run_program(self, source: str) -> list[Ticket]:
        """Queue every top-level form of a program, in order."""
        return self._protocol.run_program(source)

    # -- migration ----------------------------------------------------------------

    def migrate(self, device_id: Optional[str] = None) -> "MigrationRecord":
        """Move this session's persistent heap to another pooled device.

        The environment's reachable subgraph is snapshotted, restored
        into the target device's arena as tenured state, and reclaimed
        on the source; queued commands travel with the session and still
        execute in submission order. By default the pool picks the
        target (least-loaded, emptiest arena); pass ``device_id`` to
        choose. Returns the :class:`~repro.serve.stats.MigrationRecord`
        with the heap volume moved and the modeled transfer time
        charged.
        """
        if self._closed:
            raise RuntimeError(f"session {self.session_id} is closed")
        return self.server.migrate_session(self, device_id)

    # -- lifecycle ----------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the session's environment (its bindings become garbage)."""
        if self._closed:
            return
        self.server.close_session(self)
        self._closed = True

    def __enter__(self) -> "TenantSession":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"<TenantSession {self.session_id} on {self.device_id}>"
