"""CuLiServer: the multi-tenant serving facade.

Ties the pieces together: a :class:`~repro.serve.pool.DevicePool` of
simulated devices, a batching :class:`~repro.serve.scheduler.Scheduler`,
and a :class:`~repro.serve.stats.ServerStats` surface. Usage::

    from repro.serve import CuLiServer

    with CuLiServer(devices=["gtx1080", "gtx1080"]) as server:
        alice = server.open_session()
        bob = server.open_session()
        alice.submit("(defun f (x) (* x x))")
        bob.submit("(defun f (x) (+ x 100))")
        server.flush()                      # one batch, two tenants
        print(alice.eval("(f 5)"))          # 25 — isolated definitions
        print(bob.eval("(f 5)"))            # 105
        print(server.stats.render())
"""

from __future__ import annotations

from itertools import count
from typing import Optional, Sequence

from ..timing import CommandStats

from ..core.interpreter import InterpreterOptions
from ..cpu.device import CPUDeviceConfig
from ..errors import AdmissionError
from ..gpu.device import GPUDeviceConfig
from ..runtime.snapshot import HeapSnapshot, restore_env, snapshot_env
from .bulk import DEFAULT_CHUNK_ELEMS, BulkJob, shard_bulk_job
from .chaos import ChaosMonkey
from .pool import DevicePool, DeviceSpec, link_ms
from .scheduler import Rebalancer, Scheduler
from .session import TenantSession, Ticket
from .stats import MigrationRecord, ServerStats
from .supervisor import DeviceSupervisor

__all__ = ["CuLiServer"]


class CuLiServer:
    """A pool of simulated devices serving many concurrent REPL tenants."""

    def __init__(
        self,
        devices: Sequence[DeviceSpec] = ("gtx1080",),
        max_batch: int = 32,
        gpu_config: Optional[GPUDeviceConfig] = None,
        cpu_config: Optional[CPUDeviceConfig] = None,
        jit: bool = True,
        rebalance: bool = False,
        failover: bool = False,
        checkpoint_interval: int = 8,
        chaos: Optional[ChaosMonkey] = None,
        failover_config: Optional[dict] = None,
        scheduler: Optional[str] = None,
        max_session_queue: int = 64,
        placement: Optional[str] = None,
        device_configs: Optional[Sequence] = None,
    ) -> None:
        # The drain discipline (continuous batching) and the load model
        # (modeled-time cost placement) are fixed: ``scheduler=`` and
        # ``placement=`` accept only their names, for callers that spell
        # them out.
        if scheduler not in (None, "async"):
            raise ValueError(
                f"unknown scheduler {scheduler!r}: only 'async' is supported"
            )
        if placement not in (None, "cost"):
            raise ValueError(
                f"unknown placement {placement!r}: only 'cost' is supported"
            )
        # Serving runs the fast path (interned symbols, indexed session
        # roots, parse cache, generational region GC) plus the JIT trace
        # tier on every device whose config is not passed in: serving is
        # our infrastructure on top of the paper, so — like the arena's
        # private-cursor default — it ships the fast mode. ``jit=False``
        # keeps serving on the tree-walker. An explicit device config
        # always wins: ``GPUDeviceConfig()`` / ``CPUDeviceConfig()``
        # serve the paper-literal interpreter.
        if gpu_config is None:
            gpu_config = GPUDeviceConfig(
                interpreter=InterpreterOptions.fast(jit=jit)
            )
        if cpu_config is None:
            cpu_config = CPUDeviceConfig(
                interpreter=InterpreterOptions.fast(jit=jit)
            )
        # ``device_configs`` gives individual devices their own config —
        # a mixed fleet rarely wants one arena size everywhere.
        self.pool = DevicePool(
            devices,
            gpu_config=gpu_config,
            cpu_config=cpu_config,
            device_configs=device_configs,
        )
        if max_session_queue < 1:
            raise ValueError("max_session_queue must be >= 1")
        #: Admission-control cap: a session with this many unresolved
        #: tickets has further submissions refused (AdmissionError).
        self.max_session_queue = max_session_queue
        self.stats = ServerStats()
        self.scheduler = Scheduler(self.pool, self.stats, max_batch=max_batch)
        self.stats._queue_depth_fn = self.pool.queue_depths
        self.stats._scheduler_fn = self.scheduler.pipeline_snapshot
        for device_id, pdev in self.pool.devices.items():
            self.stats.register_device(
                device_id, pdev.name, pdev.kind, capability_ms=pdev.probe_ms
            )
        self.sessions: dict[str, TenantSession] = {}
        self._session_counter = count()
        self._open_order = count()
        # Bulk collection jobs (gpu-map PR): internal per-device
        # sessions that carry sharded chunk requests, created lazily on
        # first use and owned by the server (closed with it).
        self._bulk_sessions: dict[str, TenantSession] = {}
        self._bulk_counter = count()
        # Elastic rebalancing (heap snapshot / migration PR): off by
        # default so existing single-placement serving is untouched;
        # ``rebalance=True`` installs the policy.
        self.rebalancer: Optional[Rebalancer] = (
            Rebalancer(self) if rebalance else None
        )
        # Device-loss failover (checkpoint/supervisor PR): off by default
        # so a loss degrades to the batch-fatal quarantine path exactly
        # as before. ``failover=True`` (or any chaos monkey) installs the
        # DeviceSupervisor: sessions checkpoint every
        # ``checkpoint_interval`` completed commands, lost devices are
        # force-reset behind a circuit breaker, and victim sessions are
        # rebuilt from their checkpoints on surviving devices.
        # ``failover_config`` passes extra DeviceSupervisor kwargs
        # (breaker thresholds, deadlines, the per-ticket failover cap).
        self.supervisor: Optional[DeviceSupervisor] = None
        if failover or chaos is not None:
            self.supervisor = DeviceSupervisor(
                self,
                chaos=chaos,
                checkpoint_interval=checkpoint_interval,
                **(failover_config or {}),
            )
        self._closed = False

    # -- sessions -----------------------------------------------------------------

    def open_session(
        self,
        name: Optional[str] = None,
        slo_ms: Optional[float] = None,
        device_id: Optional[str] = None,
    ) -> TenantSession:
        """Open a tenant session, pinned to the least-loaded device.

        ``slo_ms`` declares the tenant latency-sensitive: the async
        scheduler orders admissible requests earliest-deadline-first
        (deadline = arrival + slo), so an interactive tenant is served
        ahead of bulk streams that arrived moments earlier. ``None``
        (default) is a bulk tenant — no deadline, FIFO among peers,
        never starved (EDF ties break by arrival, so bulk work ages to
        the front whenever no deadline is at risk).

        ``device_id`` pins the session to a specific device instead of
        letting placement choose — what the bulk shard path uses to put
        one carrier session on *every* device.
        """
        if self._closed:
            raise RuntimeError("server is closed")
        session_id = name if name is not None else f"tenant-{next(self._session_counter)}"
        if session_id in self.sessions:
            raise ValueError(f"session {session_id!r} already open")
        if device_id is None:
            pdev = self.pool.place_session()
        else:
            pdev = self.pool[device_id]
        env = pdev.device.create_session_env(label=session_id)
        session = TenantSession(
            self, session_id, pdev.device_id, env, slo_ms=slo_ms,
            open_order=next(self._open_order),
        )
        self.sessions[session_id] = session
        pdev.add_resident(session)
        if self.supervisor is not None:
            self.supervisor.track_session(session)
        return session

    def close_session(self, session: TenantSession) -> None:
        """Release a tenant's environment and its residency.

        Queued-but-unserved tickets are cancelled first (resolved with an
        error): the environment stops being a GC root on release, so
        running them later would evaluate against collected bindings.
        Cancellations are recorded in ``ServerStats`` so the
        enqueued/completed/cancelled accounting stays balanced.
        """
        if self.sessions.pop(session.session_id, None) is None:
            return
        if self.supervisor is not None:
            self.supervisor.forget_session(session)
        pdev = self.pool[session.device_id]
        pdev.remove_resident(session)
        cancelled = 0
        for ticket in pdev.queue.remove_session(session):
            err = RuntimeError(
                f"session {session.session_id} closed before execution"
            )
            # Cancellations never join the history (the tenant is gone)
            # nor the latency reservoir (nobody was waiting).
            ticket.resolve(
                CommandStats(output=f"error: {err}"),
                err,
                record_history=False,
            )
            cancelled += 1
        if cancelled:
            self.stats.record_cancelled(cancelled)
        pdev.device.release_session_env(session.env)

    # -- migration (elastic rebalancing) ------------------------------------------

    def migrate_session(
        self, session: TenantSession, device_id: Optional[str] = None
    ) -> MigrationRecord:
        """Move a session's persistent heap to another device.

        The session's reachable heap is serialized off its current
        device (:func:`~repro.runtime.snapshot.snapshot_env`), restored
        into the target's arena as tenured state, and its queued —
        not-yet-batched — tickets travel with it (submission order
        preserved, so strict REPL order survives the move). The source
        copy is then released and reclaimed, and the snapshot's wire
        size is charged as modeled host<->device transfer time on both
        links (:meth:`ServerStats.record_migration`).

        ``device_id`` picks the target explicitly; by default the pool's
        placement policy chooses (excluding the current device). The
        restore happens *before* the source is released, so a failed
        migration (e.g. the target arena is full) raises with the
        session still healthy on its original device.
        """
        if self._closed:
            raise RuntimeError("server is closed")
        if self.sessions.get(session.session_id) is not session:
            raise ValueError(f"session {session.session_id!r} is not open here")
        source = self.pool[session.device_id]
        if device_id is None:
            target = self.pool.place_session(exclude={source.device_id})
            if target is source:
                # The pool's never-refuse fallback circled back (single
                # device, or everything else draining): a self-migration
                # would copy the heap for nothing and charge phantom
                # transfer, so refuse like the explicit path does.
                raise ValueError(
                    f"no other device to migrate {session.session_id} to"
                )
        else:
            target = self.pool[device_id]
            if target is source:
                raise ValueError(
                    f"session {session.session_id} is already on {device_id}"
                )
        snap = snapshot_env(session.env, label=session.session_id)
        new_env = restore_env(
            snap, target.device.interp, label=session.session_id
        )
        target.queue.extend(source.queue.remove_session(session))
        source.remove_resident(session)
        target.add_resident(session)
        # Source-side teardown: drop the root and reclaim the migrated
        # heap now (host-orchestrated maintenance, uncharged — see
        # DESIGN.md deviation #9) so the arena's space is free for the
        # tenants that stayed.
        source.device.release_session_env(session.env)
        source.device.interp.collect_garbage()
        session.env = new_env
        session.device_id = target.device_id
        if self.supervisor is not None:
            self.supervisor.session_moved(session)
        source_ms = link_ms(source, snap.nbytes)
        dest_ms = link_ms(target, snap.nbytes)
        record = MigrationRecord(
            session_id=session.session_id,
            source=source.device_id,
            dest=target.device_id,
            nodes=snap.node_count,
            nbytes=snap.nbytes,
            transfer_ms=source_ms + dest_ms,
        )
        self.stats.record_migration(record, source_ms=source_ms, dest_ms=dest_ms)
        return record

    # -- whole-fleet persistence ---------------------------------------------------

    def save(self) -> dict:
        """Snapshot every open tenant's persistent heap and SLO (JSON-able).

        Queued requests are flushed first — a saved fleet holds only
        durable tenant state, never in-flight commands. The internal
        bulk-carrier sessions are not tenants and are not saved: a
        restored server opens fresh ones on its first bulk job. Feed the
        result to :meth:`restore` on a freshly constructed server (same
        device inventory not required: restored sessions are re-placed
        by the pool's least-loaded/emptiest-arena policy).
        """
        if self._closed:
            raise RuntimeError("server is closed")
        if self.pool.pending:
            self.flush()
        return {
            "version": 1,
            "sessions": [
                {
                    "session_id": session.session_id,
                    "slo_ms": session.slo_ms,
                    "snapshot": snapshot_env(
                        session.env, label=session.session_id
                    ).to_dict(),
                }
                for session in self.sessions.values()
                if not session.bulk
            ],
        }

    def restore(self, state: dict) -> dict[str, TenantSession]:
        """Rebuild sessions from a :meth:`save` payload; returns them by id.

        Each saved session is placed like a fresh one (the load key's
        retained-heap term steers restores toward the emptiest arena)
        and its heap is materialized there as tenured state. The restore
        is all-or-nothing: duplicate ids are rejected before anything is
        placed, and a mid-restore failure (e.g. an exhausted arena)
        closes the sessions restored so far and re-raises — the payload
        can be retried intact against a bigger pool.
        """
        if self._closed:
            raise RuntimeError("server is closed")
        from ..errors import SnapshotError

        if state.get("version") != 1:
            raise SnapshotError(
                f"unsupported fleet-snapshot version {state.get('version')!r} "
                "(this build reads version 1)"
            )
        entries = state.get("sessions", [])
        seen: set[str] = set()
        for entry in entries:
            session_id = entry["session_id"]
            if session_id in self.sessions or session_id in seen:
                raise ValueError(f"session {session_id!r} already open")
            seen.add(session_id)
        restored: dict[str, TenantSession] = {}
        try:
            for entry in entries:
                session_id = entry["session_id"]
                snap = HeapSnapshot.from_dict(entry["snapshot"])
                # The session arrives with its heap: cost placement adds
                # the snapshot's wire weight on each candidate's link
                # (free on a CPU, charged on PCIe) to the backlog.
                pdev = self.pool.place_session(incoming_nbytes=snap.nbytes)
                env = restore_env(snap, pdev.device.interp, label=session_id)
                # Payloads written before the SLO was saved carry none.
                session = TenantSession(
                    self, session_id, pdev.device_id, env,
                    slo_ms=entry.get("slo_ms"),
                    open_order=next(self._open_order),
                )
                self.sessions[session_id] = session
                pdev.add_resident(session)
                restored[session_id] = session
                if self.supervisor is not None:
                    self.supervisor.track_session(session)
        except Exception:
            for session in restored.values():
                session.close()
            raise
        self.stats.record_restored(len(restored))
        return restored

    # -- request flow -------------------------------------------------------------

    def submit(
        self,
        session: TenantSession,
        text: str,
        arrival_ms: Optional[float] = None,
    ) -> Ticket:
        """Queue one command on the session's device; returns its ticket.

        ``arrival_ms`` stamps the request's simulated arrival time
        (trace replay drives this); by default it arrives "now" on the
        scheduler's virtual clock. Admission control runs first: a
        session already holding ``max_session_queue`` unresolved tickets
        is refused with :class:`~repro.errors.AdmissionError` —
        backpressure at the front door instead of an unbounded queue
        inflating every tenant's tail latency.
        """
        if self._closed:
            raise RuntimeError("server is closed")
        if session.pending >= self.max_session_queue:
            self.stats.record_rejected()
            raise AdmissionError(
                f"session {session.session_id} has {session.pending} "
                f"unresolved requests (cap {self.max_session_queue}): "
                "flush and resubmit"
            )
        if arrival_ms is None:
            arrival_ms = self.scheduler.now_ms
        ticket = Ticket(session, text, arrival_ms=arrival_ms)
        self.pool.enqueue(session.device_id, ticket)
        self.stats.record_enqueue()
        return ticket

    # -- bulk collection jobs (host-sharded gpu-map) -------------------------------

    def _bulk_session(self, device_id: str) -> TenantSession:
        """The internal bulk-carrier session pinned to ``device_id``.

        Created lazily, reused across jobs (its environment holds no
        per-job state — chunk texts are self-contained), re-created if a
        rebalance or failover moved it off its device. No SLO, and
        flagged ``bulk``: chunk tickets take a ``+inf`` deadline so
        interactive deadlines always admit first, and the async batch
        former additionally refuses to co-batch a chunk with any
        deadline-bearing ticket (batches resolve atomically, so mixing
        would bill chunk kernel time to the SLO tenant's latency).
        """
        session = self._bulk_sessions.get(device_id)
        if (
            session is None
            or session.closed
            or session.device_id != device_id
        ):
            session = self.open_session(
                name=f"bulk@{device_id}/{next(self._bulk_counter)}",
                slo_ms=None,
                device_id=device_id,
            )
            session.bulk = True
            self._bulk_sessions[device_id] = session
        return session

    def submit_bulk(
        self,
        fn_text: str,
        elements,
        chunk_elems: int = DEFAULT_CHUNK_ELEMS,
        arrival_ms: Optional[float] = None,
    ) -> BulkJob:
        """Shard one ``gpu-map`` over the fleet; returns the pending job.

        ``elements`` (literals or literal texts) split into contiguous
        per-device ranges proportional to calibrated capability, each
        range sub-chunked to ``chunk_elems`` and submitted as an
        ordinary request on that device's bulk session. Flush the
        server, then read ``job.result()`` for the gathered list (in
        element order). ``fn_text`` must be self-contained over the
        global environment — a builtin name or a ``lambda`` text.
        """
        if self._closed:
            raise RuntimeError("server is closed")
        if chunk_elems < 1:
            raise ValueError("chunk_elems must be >= 1")
        job = shard_bulk_job(
            self,
            next(self._bulk_counter),
            fn_text,
            elements,
            chunk_elems,
            arrival_ms,
        )
        return job

    def gpu_map(
        self,
        fn_text: str,
        elements,
        chunk_elems: int = DEFAULT_CHUNK_ELEMS,
    ) -> str:
        """Synchronous convenience: submit a bulk job, flush, gather.

        Other tenants' queued requests ride along in the same flush —
        bulk chunks saturate idle capacity behind their deadlines."""
        job = self.submit_bulk(fn_text, elements, chunk_elems=chunk_elems)
        self.flush()
        return job.result()

    def flush(self) -> int:
        """Serve every queued request in batches; returns batches run.

        With a rebalancer installed, idle sessions may migrate between
        batch rounds (overload shedding, fault-drain) — see
        :class:`~repro.serve.scheduler.Rebalancer`."""
        return self.scheduler.drain(rebalancer=self.rebalancer)

    @property
    def pending(self) -> int:
        return self.pool.pending

    def queue_depths(self) -> dict[str, int]:
        return self.pool.queue_depths()

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        for session in list(self.sessions.values()):
            session.close()
        self.pool.close()
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "CuLiServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
