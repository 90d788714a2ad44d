"""Differential oracle for the indexed device queue.

``DeviceQueue`` replaced a plain deque that batch formation rescanned
for every batch. The reference functions below are the deque-based
``Scheduler.form_batch_async`` and ``Rebalancer._pick_session`` as they
were before the index existed, kept verbatim apart from taking the
deque explicitly and sizing through the upload gate. Randomized
operation sequences drive both representations side by side and assert
identical batches, identical picks, identical per-session FIFOs, and
queue positions that sort into the deque's order.
"""

from __future__ import annotations

import random
from collections import deque
from types import SimpleNamespace

import pytest

from repro.gpu.hostlink import gate_request
from repro.serve.pool import DeviceQueue
from repro.serve.scheduler import Scheduler
from repro.serve.session import Ticket
from repro.serve.stats import ServerStats

# -- the deque-based reference -------------------------------------------------


def ref_form_batch_async(self, pdev, queue):
    if not queue:
        return []
    heads = []
    seen = set()
    for ticket in queue:
        sid = ticket.session.session_id
        if sid in seen:
            continue
        seen.add(sid)
        heads.append(ticket)
    horizon = self.pipeline(pdev.device_id).horizon_ms
    earliest = min(t.arrival_ms for t in heads)
    horizon = max(horizon, earliest)
    admissible = [t for t in heads if t.arrival_ms <= horizon]
    admissible.sort(key=lambda t: (t.deadline_ms, t.arrival_ms, t.seq))

    cmdbuf = getattr(pdev.device, "cmdbuf", None)
    capacity = cmdbuf.capacity if cmdbuf is not None else None
    batch = []
    payload = 0
    has_deadline = False
    for ticket in admissible:
        if ticket.quarantined:
            if not batch:
                batch.append(ticket)
            break
        if ticket.session.bulk and has_deadline:
            continue
        size = gate_request(ticket.text, capacity)[1]
        if capacity is not None and batch and payload + size > capacity:
            break
        payload += size
        batch.append(ticket)
        if ticket.deadline_ms != float("inf"):
            has_deadline = True
        if len(batch) >= self.max_batch:
            break
    chosen = set(map(id, batch))
    remaining = [t for t in queue if id(t) not in chosen]
    queue.clear()
    queue.extend(remaining)
    return batch


def ref_pick_session(queue, target_tickets):
    counts = {}
    for ticket in queue:
        counts[ticket.session] = counts.get(ticket.session, 0) + 1
    if not counts:
        return None
    fitting = [s for s, n in counts.items() if n <= target_tickets]
    if fitting:
        return max(fitting, key=lambda s: counts[s])
    return min(counts, key=lambda s: counts[s])


# -- the harness ----------------------------------------------------------------


class _Session:
    """What batch formation reads off a tenant session."""

    def __init__(self, k: int, slo_ms, bulk: bool) -> None:
        self.session_id = f"s{k}"
        self.slo_ms = slo_ms
        self.bulk = bulk
        self._pending = 0

    def __repr__(self) -> str:
        return self.session_id


class _Device:
    """Both representations of one device's queue, plus what the
    scheduler reads off a pooled device."""

    def __init__(self, device_id: str, capacity) -> None:
        self.device_id = device_id
        cmdbuf = SimpleNamespace(capacity=capacity) if capacity else None
        self.device = SimpleNamespace(cmdbuf=cmdbuf)
        self.queue = DeviceQueue()
        self.ref = deque()

    def check(self) -> None:
        ref = list(self.ref)
        sessions = {t.session for t in ref}
        assert set(self.queue._fifos) == sessions
        for session in sessions:
            want = [t for t in ref if t.session is session]
            assert _fifo(self.queue, session) == want
            assert self.queue.count(session) == len(want)
        # The per-count tie-break reads positions, so they must still
        # encode the deque's order across sessions.
        queued = [t for s in sessions for t in _fifo(self.queue, s)]
        assert sorted(queued, key=lambda t: t._pos) == ref
        assert len(self.queue) == len(ref)


def _fifo(queue: DeviceQueue, session) -> list:
    """``session``'s queued tickets, walked head to tail."""
    out = []
    fifo = queue._fifos.get(session)
    ticket = fifo.head if fifo is not None else None
    while ticket is not None:
        out.append(ticket)
        ticket = ticket._next
    return out


def _by_session(tickets) -> dict:
    out: dict = {}
    for ticket in tickets:
        out.setdefault(ticket.session, []).append(ticket)
    return out


def _text(rng: random.Random) -> str:
    # Mostly small payloads, some big enough that the 48-byte command
    # buffer closes a batch early.
    return "(+ 1 2)" if rng.random() < 0.7 else "(+ " + "7 " * rng.randint(3, 20) + ")"


def _run(seed: int, steps: int = 300) -> None:
    rng = random.Random(seed)
    sched = Scheduler(
        pool=None, stats=ServerStats(), max_batch=rng.choice([1, 3, 8])
    )
    capacity = rng.choice([None, 48])
    devices = [_Device("d0", capacity), _Device("d1", capacity)]
    sessions = [
        _Session(
            k,
            slo_ms=rng.choice([None, 0.5, 2.0]),
            bulk=k < 2,  # two bulk chunk carriers
        )
        for k in range(rng.randint(2, 14))
    ]
    home = {s: rng.choice(devices) for s in sessions}
    clock = 0.0

    def submit(session, **kw):
        arrival = clock + rng.choice([0.0, 0.0, 0.3, 1.5, -0.2])
        ticket = Ticket(session, _text(rng), arrival_ms=max(0.0, arrival))
        for key, value in kw.items():
            setattr(ticket, key, value)
        dev = home[session]
        dev.queue.append(ticket)
        dev.ref.append(ticket)
        return ticket

    for _ in range(steps):
        op = rng.random()
        dev = rng.choice(devices)
        if op < 0.35:
            for _ in range(rng.randint(1, 6)):
                submit(rng.choice(sessions))
        elif op < 0.60:
            # Admission horizon moves forward (rarely back, as after an
            # aborted batch that followed a horizon jump).
            pipe = sched.pipeline(dev.device_id)
            step = rng.choice([0.0, 0.2, 1.0, -0.5])
            pipe.engine_free_ms = max(0.0, pipe.engine_free_ms + step)
            want = ref_form_batch_async(sched, dev, dev.ref)
            got = sched.form_batch_async(dev)
            assert got == want
            if len(got) > 1 and rng.random() < 0.2:
                # Batch-fatal abort: every ticket retries solo, in front.
                for ticket in reversed(got):
                    ticket.quarantined = True
                    dev.queue.appendleft(ticket)
                    dev.ref.appendleft(ticket)
        elif op < 0.70:
            target = rng.randint(0, 6)
            assert dev.queue.pick_session(target) is ref_pick_session(
                dev.ref, target
            )
        elif op < 0.80:
            # Migration: a session's queued tickets move with it.
            session = rng.choice(sessions)
            src = home[session]
            dst = devices[1 - devices.index(src)]
            moved = [t for t in src.ref if t.session is session]
            src.ref = deque(t for t in src.ref if t.session is not session)
            assert src.queue.remove_session(session) == moved
            dst.ref.extend(moved)
            dst.queue.extend(moved)
            home[session] = dst
        elif op < 0.87:
            # Session close: its tickets leave; it reopens fresh later.
            session = rng.choice(sessions)
            src = home[session]
            gone = [t for t in src.ref if t.session is session]
            src.ref = deque(t for t in src.ref if t.session is not session)
            assert src.queue.remove_session(session) == gone
        elif op < 0.93:
            # Device loss: the queue is captured and every victim's work
            # re-enqueues on the survivor, replays first, then retries
            # (quarantined) and the untouched queue.
            other = devices[1 - devices.index(dev)]
            queued = list(dev.ref)
            dev.ref.clear()
            cleared = dev.queue.clear()
            # Every ticket once, each session's in FIFO order.
            assert sorted(map(id, cleared)) == sorted(map(id, queued))
            assert _by_session(cleared) == _by_session(queued)
            assert not dev.queue
            for session in {t.session for t in queued}:
                home[session] = other
                submit(session, replay=True)
                if rng.random() < 0.5:
                    submit(session, quarantined=True)
                for ticket in queued:
                    if ticket.session is session:
                        other.queue.append(ticket)
                        other.ref.append(ticket)
            for session, d in home.items():
                if d is dev and rng.random() < 0.5:
                    home[session] = other
        else:
            clock += rng.choice([0.1, 0.5, 2.0])
        for d in devices:
            d.check()

    # Drain both devices to empty through the async former.
    for dev in devices:
        while dev.ref:
            pipe = sched.pipeline(dev.device_id)
            pipe.engine_free_ms += 0.5
            assert sched.form_batch_async(dev) == ref_form_batch_async(
                sched, dev, dev.ref
            )
            dev.check()
        assert not dev.queue


@pytest.mark.parametrize("seed", range(80))
def test_indexed_queue_matches_deque_reference(seed):
    _run(seed)
