"""DevicePool: placement, queues, lifecycle."""

import pytest

from repro.serve.pool import DevicePool, PooledDevice
from repro.serve.session import Ticket


class _StandInSession:
    """Just what a Ticket reads off its session."""

    slo_ms = None
    _pending = 0


def _ticket(text="1"):
    return Ticket(_StandInSession(), text)


class TestConstruction:
    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            DevicePool([])

    def test_duplicate_devices_get_unique_ids(self):
        pool = DevicePool(["gtx1080", "gtx1080", "gtx1080"])
        assert len(pool) == 3
        assert sorted(pool.devices) == ["gtx1080#0", "gtx1080#1", "gtx1080#2"]
        pool.close()

    def test_mixed_kinds(self):
        pool = DevicePool(["gtx480", "intel"])
        kinds = {d.kind for d in pool.devices.values()}
        assert kinds == {"gpu", "cpu"}
        pool.close()


def place(pool: DevicePool, session=None) -> PooledDevice:
    """Place a stand-in session and make it resident, as the server
    does once the session's environment exists."""
    pdev = pool.place_session()
    pdev.add_resident(session if session is not None else object())
    return pdev


class TestPlacement:
    def test_least_loaded_round_robin(self):
        pool = DevicePool(["gtx480", "gtx480"])
        placements = [place(pool).device_id for _ in range(4)]
        assert placements.count("gtx480#0") == 2
        assert placements.count("gtx480#1") == 2
        pool.close()

    def test_session_close_frees_slot(self):
        pool = DevicePool(["gtx480", "gtx480"])
        session = object()
        first = place(pool, session)
        place(pool)
        first.remove_resident(session)
        # The freed device is now least loaded again.
        assert pool.place_session().device_id == first.device_id
        pool.close()

    def test_retained_heap_breaks_session_count_ties(self):
        """The load key counts tenured nodes: with equal session counts
        a placement (e.g. a migration restore arriving with its heap)
        targets the emptiest arena, not an arbitrary one."""
        pool = DevicePool(["gtx480", "gtx480"])
        fat = pool["gtx480#0"]
        fat.device.submit("(defun retained (x) (list x x x))")
        assert fat.retained_nodes > pool["gtx480#1"].retained_nodes
        assert place(pool).device_id == "gtx480#1"
        # Key order is sessions first: the fat-but-empty device still
        # wins over an equally-empty-arena device with more sessions.
        assert pool.place_session().device_id == "gtx480#0"
        pool.close()

    def test_load_key_includes_retained_nodes(self):
        pool = DevicePool(["gtx480"])
        pdev = pool["gtx480#0"]
        # The placement key's deterministic tail: sessions, retained
        # heap, queued work.
        sessions, retained, queued = pdev.placement_key()[2:]
        assert sessions == 0 and queued == 0
        assert retained == pdev.device.interp.arena.used
        pool.close()

    def test_draining_device_skipped(self):
        pool = DevicePool(["gtx480", "gtx480"])
        pool["gtx480#0"].draining = True
        for _ in range(3):
            assert pool.place_session().device_id == "gtx480#1"
        # ...unless nothing else is left: the pool never refuses.
        pool["gtx480#1"].draining = True
        assert pool.place_session() is not None
        pool.close()

    def test_exclude_filters_candidates(self):
        pool = DevicePool(["gtx480", "gtx480"])
        assert pool.place_session(exclude={"gtx480#0"}).device_id == "gtx480#1"
        # Exclusions are dropped rather than refusing placement.
        assert (
            pool.place_session(exclude={"gtx480#0", "gtx480#1"}) is not None
        )
        pool.close()


class TestQueues:
    def test_enqueue_and_depths(self):
        pool = DevicePool(["gtx480"])
        assert pool.pending == 0
        pool.enqueue("gtx480#0", _ticket())
        pool.enqueue("gtx480#0", _ticket())
        assert pool.queue_depths() == {"gtx480#0": 2}
        assert pool.pending == 2
        pool.close()


class TestLifecycle:
    def test_close_closes_devices(self):
        pool = DevicePool(["gtx480"])
        device = pool["gtx480#0"].device
        pool.close()
        assert pool.closed
        assert device.closed
        pool.close()  # idempotent
