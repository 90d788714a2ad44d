"""The device pool: N simulated devices behind per-device FIFO queues.

A tenant session is placed on one device at open time (its persistent
environment lives in that device's node arena), which makes the pool a
sharded fleet: each device serves its own queue in batches. Since the
heap-snapshot subsystem (:mod:`repro.runtime.snapshot`) the pinning is
*elastic* rather than for-life — the server can migrate a session's
persistent heap to another device between batch rounds, and a device
hitting repeated faults can be marked ``draining`` so placement avoids
it while its sessions move off. This is the PyCUDA-style host
orchestration layer: Python owns device lifetime, placement, and work
routing; the simulated devices own execution.

Heterogeneous fleets: devices in one pool need not be equal (a Volta
card can shard with a Fermi card and a Xeon), so load is accounted in
**modeled time**, not counts. Every :class:`PooledDevice` carries a
calibrated capability figure (:mod:`repro.serve.capability` — modeled
ms per probe request). :meth:`~PooledDevice.placement_key` leads with the
expected drain time of everything standing against the device: resident
sessions' service demand, queued work, and the restore weight of its
retained session heap and of an arriving snapshot. ``place_session``
picks the lowest key (capability breaks ties, so an empty fleet fills
fastest-first).

Each device's queue is a :class:`DeviceQueue`: per-session FIFOs behind
an EDF index of session heads, so batch formation and rebalancing touch
only the heads they consider instead of rescanning every queued ticket
(the queue is not iterable: no cross-session order is kept to walk).
Each device also indexes its resident sessions, so per-device sweeps
never scan the whole session table.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Collection, Optional, Sequence, Union

from ..core.nodes import NODE_BYTES
from ..cpu.device import CPUDevice, CPUDeviceConfig
from ..cpu.specs import CPUSpec
from ..gpu.device import GPUDevice, GPUDeviceConfig
from ..gpu.specs import GPUSpec
from ..runtime.devices import device_for
from .capability import (
    batch_cost_ms,
    capability_probe_ms,
    capability_score,
    restore_ms_per_byte,
)

if TYPE_CHECKING:  # pragma: no cover
    from .session import Ticket, TenantSession

__all__ = ["DevicePool", "DeviceQueue", "PooledDevice", "link_ms"]

DeviceSpec = Union[str, GPUSpec, CPUSpec]
DeviceConfig = Union[GPUDeviceConfig, CPUDeviceConfig]

#: Requests per batch until a server sets its scheduler's ``max_batch``.
DEFAULT_MAX_BATCH = 32


def link_ms(pdev: "PooledDevice", nbytes: int) -> float:
    """Modeled time to move ``nbytes`` across one device's host link.

    GPUs pay the PCIe model (latency + size/bandwidth, the same
    ``spec.transfer_ms`` every command upload pays); CPU devices share
    memory with the host, so their side of a migration, checkpoint, or
    failover restore is free — exactly like their command transfers.
    """
    transfer = getattr(pdev.device.spec, "transfer_ms", None)
    return transfer(nbytes) if callable(transfer) else 0.0


class _Fifo:
    """One session's queued tickets, linked through ``Ticket._next``."""

    __slots__ = ("head", "tail", "count")

    def __init__(self, ticket: "Ticket") -> None:
        self.head = self.tail = ticket
        self.count = 1


class DeviceQueue:
    """One device's queued tickets: per-session FIFOs behind a head index.

    Every ticket carries a queue position: :meth:`append` takes the next
    position at the back, :meth:`appendleft` (quarantine retries) the
    next one at the front. Each session's tickets form an intrusive FIFO
    in position order, so nothing per session outlives its last queued
    ticket. The queue is not iterable: only positions order tickets
    across sessions.

    Two indexes sit on the session heads:

    * **EDF** — heads that have arrived by the last admission horizon,
      keyed ``(deadline_ms, arrival_ms, seq)``, plus a min-arrival heap
      of heads that have not, for the horizon jump
      (:meth:`admit` / :meth:`pop_ready`).
    * **per-count** — sessions grouped by queued-ticket count, each group
      ordered by head position (:meth:`pick_session`). The largest count
      is kept in :attr:`deepest`: a batch takes one ticket per session,
      so the deepest session needs that many batches to drain.

    Both are heaps with lazy deletion: a ticket's live EDF entry is the
    one its ``_entry`` slot points at, and a per-count entry is live
    while its session still has that count and that head. ``len()`` and
    per-session counts are O(1); every other operation is O(log S) per
    ticket touched.
    """

    __slots__ = (
        "depth",
        "deepest",
        "_fifos",
        "_lo",
        "_hi",
        "_ready",
        "_future",
        "_admitted",
        "_sizes",
        "_buckets",
    )

    def __init__(self) -> None:
        #: Queued tickets (``len()``, readable without a method call).
        self.depth = 0
        #: The most tickets any one session has queued (0 when empty).
        self.deepest = 0
        self._fifos: dict["TenantSession", _Fifo] = {}
        # Next positions: appendleft counts down from _lo, append up
        # from _hi (pick_session breaks ties on them).
        self._lo = 0
        self._hi = 0
        self._ready: list = []   # (deadline, arrival, seq, ticket)
        self._future: list = []  # (arrival, seq, ticket)
        self._admitted = float("-inf")
        self._sizes: dict[int, int] = {}  # count -> sessions with it
        self._buckets: dict[int, list] = {}  # count -> heap (head pos, head)

    def __len__(self) -> int:
        return self.depth

    def count(self, session: "TenantSession") -> int:
        """Queued tickets of ``session`` on this device."""
        fifo = self._fifos.get(session)
        return fifo.count if fifo is not None else 0

    # -- edits ---------------------------------------------------------------------

    def append(self, ticket: "Ticket") -> None:
        ticket._pos = self._hi
        self._hi += 1
        self.depth += 1
        ticket._next = None
        fifo = self._fifos.get(ticket.session)
        if fifo is None:
            self._fifos[ticket.session] = fifo = _Fifo(ticket)
            self._index_head(ticket)
            self._recount(0, fifo)
        else:
            fifo.tail._next = ticket
            fifo.tail = ticket
            fifo.count += 1
            self._recount(fifo.count - 1, fifo)

    def extend(self, tickets) -> None:
        for ticket in tickets:
            self.append(ticket)

    def appendleft(self, ticket: "Ticket") -> None:
        """Queue ``ticket`` ahead of everything (a quarantine retry)."""
        self._lo -= 1
        ticket._pos = self._lo
        self.depth += 1
        fifo = self._fifos.get(ticket.session)
        if fifo is None:
            ticket._next = None
            self._fifos[ticket.session] = fifo = _Fifo(ticket)
        else:
            fifo.head._entry = None  # no longer a head
            ticket._next = fifo.head
            fifo.head = ticket
            fifo.count += 1
        self._index_head(ticket)
        self._recount(fifo.count - 1, fifo)

    def take(self, ticket: "Ticket") -> None:
        """Remove ``ticket``, which must be its session's head."""
        session = ticket.session
        fifo = self._fifos[session]
        self._unlink(ticket)
        nxt = ticket._next
        ticket._next = None
        if nxt is None:
            del self._fifos[session]
            self._recount(1, None)
        else:
            fifo.head = nxt
            fifo.count -= 1
            self._index_head(nxt)
            self._recount(fifo.count + 1, fifo)

    def remove_session(self, session: "TenantSession") -> list["Ticket"]:
        """Remove and return every ticket of ``session``, in FIFO order."""
        fifo = self._fifos.pop(session, None)
        if fifo is None:
            return []
        out = []
        ticket = fifo.head
        while ticket is not None:
            out.append(ticket)
            self._unlink(ticket)
            nxt = ticket._next
            ticket._next = None
            ticket = nxt
        self._recount(fifo.count, None)
        return out

    def clear(self) -> list["Ticket"]:
        """Empty the queue; returns what it held, each session's in FIFO order."""
        out = []
        for session in list(self._fifos):
            out += self.remove_session(session)
        self._ready.clear()
        self._future.clear()
        return out

    def _unlink(self, ticket: "Ticket") -> None:
        self.depth -= 1
        ticket._entry = None

    # -- EDF head index ------------------------------------------------------------

    def _index_head(self, ticket: "Ticket") -> None:
        entry = (ticket.arrival_ms, ticket.seq, ticket)
        ticket._entry = entry
        heappush(self._future, entry)

    def _promote(self, horizon: float) -> None:
        future = self._future
        while future and future[0][0] <= horizon:
            entry = heappop(future)
            ticket = entry[2]
            if ticket._entry is entry:
                self.push_ready(ticket)

    def admit(self, horizon: float) -> None:
        """Admit every head that has arrived by ``horizon``.

        If none has, the horizon jumps to the earliest head arrival, so a
        non-empty queue always admits something. Device pipelines only
        move forward, so a horizon below the previous one happens only
        after an aborted batch that followed a jump; the admitted heads
        all go back to the arrival heap.
        """
        if horizon < self._admitted:
            stale, self._ready = self._ready, []
            for entry in stale:
                if entry[3]._entry is entry:
                    self._index_head(entry[3])
        self._promote(horizon)
        ready = self._ready
        while ready and ready[0][3]._entry is not ready[0]:
            heappop(ready)
        if not ready:
            future = self._future
            while future and future[0][2]._entry is not future[0]:
                heappop(future)
            if future and future[0][0] > horizon:
                horizon = future[0][0]
                self._promote(horizon)
        self._admitted = horizon

    def pop_ready(self) -> Optional["Ticket"]:
        """The next admitted head in EDF order, unindexed; the caller
        either :meth:`take`\\ s it or hands it back via :meth:`push_ready`."""
        ready = self._ready
        while ready:
            entry = heappop(ready)
            ticket = entry[3]
            if ticket._entry is entry:
                ticket._entry = None
                return ticket
        return None

    def push_ready(self, ticket: "Ticket") -> None:
        entry = (ticket.deadline_ms, ticket.arrival_ms, ticket.seq, ticket)
        ticket._entry = entry
        heappush(self._ready, entry)

    # -- per-count index -----------------------------------------------------------

    def _recount(self, old: int, fifo: Optional[_Fifo]) -> None:
        """A session's count went from ``old`` to ``fifo.count`` (0 when
        ``fifo`` is None), or its head changed; keeps :attr:`deepest`."""
        sizes = self._sizes
        emptied = False  # the deepest count lost its last session
        if old:
            left = sizes[old] - 1
            if left:
                sizes[old] = left
            else:
                del sizes[old]
                del self._buckets[old]
                emptied = old == self.deepest
        if fifo is None:
            if emptied:
                # The new deepest is the next count down still held.
                deepest = old - 1
                while deepest and deepest not in sizes:
                    deepest -= 1
                self.deepest = deepest
            return
        count = fifo.count
        if count > self.deepest or emptied:
            # Counts move by one, so an emptied deepest ``old`` leaves
            # ``count == old - 1`` as the deepest.
            self.deepest = count
        live = sizes[count] = sizes.get(count, 0) + 1
        heap = self._buckets.get(count)
        if heap is None:
            heap = self._buckets[count] = []
        heappush(heap, (fifo.head._pos, fifo.head))
        if len(heap) > 2 * live + 32:
            heap[:] = [e for e in heap if self._live(count, e)]
            heapify(heap)

    def _live(self, count: int, entry: tuple) -> bool:
        pos, ticket = entry
        fifo = self._fifos.get(ticket.session)
        return (
            fifo is not None
            and fifo.head is ticket
            and fifo.count == count
            and ticket._pos == pos
        )

    def pick_session(self, target: int) -> Optional["TenantSession"]:
        """The session whose queued count comes closest to ``target``
        without exceeding it (the lightest when every count overshoots);
        among equal counts, the one whose head sits earliest."""
        sizes = self._sizes
        if not sizes:
            return None
        fitting = [c for c in sizes if c <= target]
        count = max(fitting) if fitting else min(sizes)
        heap = self._buckets[count]
        while not self._live(count, heap[0]):
            heappop(heap)
        return heap[0][1].session


class PooledDevice:
    """One device plus its queue and session bookkeeping."""

    __slots__ = (
        "device_id",
        "device",
        "queue",
        "draining",
        "probe_ms",
        "batch_ms",
        "request_ms",
        "max_batch",
        "capability",
        "config",
        "residents",
        "_resident_list",
        "_restore_ms_per_byte",
        "_baseline_retained",
    )

    def __init__(
        self,
        device_id: str,
        device: Union[GPUDevice, CPUDevice],
        config: Optional[DeviceConfig] = None,
    ) -> None:
        self.device_id = device_id
        self.device = device
        self.queue = DeviceQueue()
        #: Open sessions whose heap lives here.
        self.residents: set["TenantSession"] = set()
        self._resident_list: Optional[list["TenantSession"]] = None
        #: Set by the rebalancer when this device is being evacuated
        #: (repeated faults): placement avoids draining devices and the
        #: rebalancer migrates their sessions off.
        self.draining = False
        #: Calibrated capability: modeled ms one probe request costs
        #: here (cached per spec — see repro.serve.capability), and the
        #: same figure as a GTX 1080-relative score for reporting.
        self.probe_ms = capability_probe_ms(device.spec)
        self.capability = capability_score(device.spec)
        #: The two-point batch-cost fit of the same probe: the fixed
        #: cost every batch pays and what each request adds
        #: (repro.serve.capability.batch_cost_ms).
        self.batch_ms, self.request_ms = batch_cost_ms(device.spec)
        #: Requests one batch carries at most: the server sets its
        #: scheduler's ``max_batch`` here.
        self.max_batch = DEFAULT_MAX_BATCH
        #: Per-slot config override (heterogeneous pools, e.g. a bigger
        #: arena on the device that absorbs the most sessions); revive()
        #: rebuilds from it so a failover preserves the slot's shape.
        self.config = config
        self._restore_ms_per_byte = restore_ms_per_byte(device.spec)
        # The global environment's tenured nodes exist on every fresh
        # device and differ between kinds/options — only what sessions
        # added on top is placement-relevant retained state.
        self._baseline_retained = device.interp.arena.tenured_count

    @property
    def name(self) -> str:
        return self.device.name

    @property
    def kind(self) -> str:
        return self.device.kind

    @property
    def queue_depth(self) -> int:
        return self.queue.depth

    @property
    def session_count(self) -> int:
        """Sessions resident here."""
        return len(self.residents)

    def add_resident(self, session: "TenantSession") -> None:
        self.residents.add(session)
        self._resident_list = None

    def remove_resident(self, session: "TenantSession") -> None:
        self.residents.discard(session)
        self._resident_list = None

    def resident_sessions(self) -> list["TenantSession"]:
        """Sessions resident here, in the server's session-table order
        (open order). The list is rebuilt after any residency change, so
        a caller may migrate sessions while iterating it."""
        if self._resident_list is None:
            self._resident_list = sorted(
                self.residents, key=lambda s: s.open_order
            )
        return self._resident_list

    @property
    def retained_nodes(self) -> int:
        """Tenured nodes resident in this device's arena (the retained
        heap already pinned here — counts against placement headroom)."""
        return self.device.interp.arena.tenured_count

    @property
    def session_retained_nodes(self) -> int:
        """Retained nodes *sessions* pinned here, excluding the global
        environment every fresh device starts with."""
        return max(0, self.retained_nodes - self._baseline_retained)

    # -- modeled-time load accounting ---------------------------------------------

    @property
    def queue_backlog_ms(self) -> float:
        """Expected drain time of the standing queue on this device.

        A batch takes at most ``max_batch`` tickets and at most one per
        session, so the queue needs ``batches = max(deepest,
        ceil(depth / max_batch))`` batches. Each pays the fixed
        ``batch_ms`` and each ticket adds ``request_ms``: ``batches *
        batch_ms + depth * request_ms``. A full batch of the probe mix
        costs about ``probe_ms`` per ticket; a session's chain of ``k``
        tickets costs ``k`` whole batches.
        """
        return self.backlog_after_ms(0)

    def backlog_after_ms(self, tickets: int) -> float:
        """:attr:`queue_backlog_ms` once a session queueing ``tickets``
        more (and none here yet) has moved in."""
        queue = self.queue
        depth = queue.depth + tickets
        batches = -(-depth // self.max_batch)
        deepest = queue.deepest if queue.deepest > tickets else tickets
        if deepest > batches:
            batches = deepest
        return batches * self.batch_ms + depth * self.request_ms

    @property
    def resident_demand_ms(self) -> float:
        """Expected per-round service demand of the resident sessions
        (each session's next command costs ~one probe request here)."""
        return self.session_count * self.probe_ms

    def placement_key(self, incoming_nbytes: int = 0) -> tuple:
        """The placement key: the modeled backlog standing against this
        device, then capability as the empty-fleet tie-break (fastest
        first), then session count, retained heap and queue depth for
        full determinism.

        The backlog is, in this float order: the resident sessions'
        demand (:attr:`resident_demand_ms`), the queued work's drain
        (:attr:`queue_backlog_ms`, the per-batch model), the restore
        weight of the session
        heap already retained here (:attr:`session_retained_nodes`) and
        that of the arriving session's snapshot, ``incoming_nbytes``
        (restores and failovers land *with* their tenured subgraph, so
        ties between equally-subscribed devices break toward the
        emptiest arena). It reads the plain attributes those properties
        read, once each: placement runs on every session open.
        """
        probe = self.probe_ms
        per_byte = self._restore_ms_per_byte
        sessions = len(self.residents)
        queue = self.queue
        depth = queue.depth
        batches = -(-depth // self.max_batch)
        if queue.deepest > batches:
            batches = queue.deepest
        retained = self.device.interp.arena.tenured_count
        extra = retained - self._baseline_retained
        if extra < 0:
            extra = 0
        return (
            sessions * probe
            + (batches * self.batch_ms + depth * self.request_ms)
            + extra * NODE_BYTES * per_byte
            + incoming_nbytes * per_byte,
            probe,
            sessions,
            retained,
            depth,
        )


class DevicePool:
    """Owns N configured devices and hands out per-device queues.

    ``devices`` accepts registry names or spec objects; duplicates are
    fine (e.g. four gtx1080 shards) — each gets a unique ``device_id``
    of the form ``name#k``. ``device_configs`` (aligned with
    ``devices``) overrides the shared ``gpu_config``/``cpu_config`` per
    slot — a heterogeneous fleet rarely wants one arena size everywhere.
    """

    def __init__(
        self,
        devices: Sequence[DeviceSpec] = ("gtx1080",),
        gpu_config: Optional[GPUDeviceConfig] = None,
        cpu_config: Optional[CPUDeviceConfig] = None,
        device_configs: Optional[Sequence[Optional[DeviceConfig]]] = None,
    ) -> None:
        if not devices:
            raise ValueError("a device pool needs at least one device")
        if device_configs is not None and len(device_configs) != len(devices):
            raise ValueError(
                f"device_configs must align with devices: got "
                f"{len(device_configs)} configs for {len(devices)} devices"
            )
        # Shared configs are kept so a lost device can be force-reset to
        # an identical fresh one (revive): same spec, same interpreter
        # options, empty arena. Per-slot overrides live on the
        # PooledDevice itself.
        self._gpu_config = gpu_config
        self._cpu_config = cpu_config
        self.devices: dict[str, PooledDevice] = {}
        for k, spec in enumerate(devices):
            override = device_configs[k] if device_configs else None
            device = self._build_device(spec, override)
            device_id = f"{device.name}#{k}"
            self.devices[device_id] = PooledDevice(device_id, device, override)
        self._closed = False

    def _build_device(
        self, spec: DeviceSpec, override: Optional[DeviceConfig]
    ) -> Union[GPUDevice, CPUDevice]:
        gpu_config = self._gpu_config
        cpu_config = self._cpu_config
        if override is not None:
            if isinstance(override, GPUDeviceConfig):
                gpu_config = override
            elif isinstance(override, CPUDeviceConfig):
                cpu_config = override
            else:
                raise TypeError(
                    f"device config for {spec!r} must be a GPUDeviceConfig "
                    f"or CPUDeviceConfig, not {type(override).__name__}"
                )
        device = device_for(spec, gpu_config=gpu_config, cpu_config=cpu_config)
        if override is not None and (
            (device.kind == "gpu") != isinstance(override, GPUDeviceConfig)
        ):
            device.close()
            raise TypeError(
                f"device config kind mismatch for {device.name}: a "
                f"{device.kind} device cannot take a "
                f"{type(override).__name__}"
            )
        return device

    def __len__(self) -> int:
        return len(self.devices)

    def __getitem__(self, device_id: str) -> PooledDevice:
        return self.devices[device_id]

    # -- placement ---------------------------------------------------------------

    def place_session(
        self, exclude: Collection[str] = (), incoming_nbytes: int = 0
    ) -> PooledDevice:
        """Pick the device with the lowest modeled backlog.

        Minimizes :meth:`PooledDevice.placement_key` — expected
        backlog-ms plus the wire weight of the arriving session's
        snapshot (``incoming_nbytes``: restores and failovers land with
        their heap, which a PCIe device pays for and a CPU does not),
        capability breaking empty-fleet ties fastest-first.

        ``exclude`` removes candidates (a migration's source device, and
        draining devices are always skipped); if exclusions would leave
        no candidate at all the filter is dropped — the pool never
        refuses to place.

        Placement only chooses: the caller makes the session resident
        (:meth:`PooledDevice.add_resident`) once its environment exists
        there.
        """
        candidates = [
            d
            for d in self.devices.values()
            if not d.draining and d.device_id not in exclude
        ]
        if not candidates:
            candidates = [
                d for d in self.devices.values() if d.device_id not in exclude
            ] or list(self.devices.values())
        # The first strict minimum, as min() keeps it.
        best = candidates[0]
        best_key = best.placement_key(incoming_nbytes)
        for pdev in candidates[1:]:
            key = pdev.placement_key(incoming_nbytes)
            if key < best_key:
                best, best_key = pdev, key
        return best

    # -- queues -------------------------------------------------------------------

    def enqueue(self, device_id: str, ticket: "Ticket") -> None:
        self.devices[device_id].queue.append(ticket)

    def queue_depths(self) -> dict[str, int]:
        return {device_id: d.queue_depth for device_id, d in self.devices.items()}

    @property
    def pending(self) -> int:
        return sum(d.queue_depth for d in self.devices.values())

    # -- failover (supervisor hooks) -----------------------------------------------

    def revive(self, device_id: str) -> PooledDevice:
        """Force-reset a lost device: same pool slot, fresh device object.

        The crash destroyed everything resident in the old device's
        arena, so the replacement is built from the same spec and config
        (the slot's own override when one was given, else the shared
        kind config) with an empty arena. The :class:`PooledDevice`
        wrapper (queue, residents, draining flag, capability) is kept —
        the supervisor owns moving its work and sessions elsewhere.
        """
        pdev = self.devices[device_id]
        old = pdev.device
        pdev.device = self._build_device(old.spec, pdev.config)
        pdev._baseline_retained = pdev.device.interp.arena.tenured_count
        old.close()
        return pdev

    def evict(self, device_id: str) -> PooledDevice:
        """Permanently remove a device from the pool (a flapping device
        the breaker has given up on). Refuses to empty the pool — the
        last device is never evicted."""
        if len(self.devices) <= 1:
            raise ValueError("cannot evict the last device in the pool")
        pdev = self.devices.pop(device_id)
        pdev.device.close()
        return pdev

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        for pdev in self.devices.values():
            pdev.device.close()
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed
