"""Host-work counters: batch formation, rebalancing and the supervisor's
checkpoint sweep scale linearly.

``snapshot()["scheduler"]`` reports ``tickets_examined`` (queued tickets
batch formation looked at) and ``sessions_examined`` (sessions the
rebalancer looked at as move candidates);
``DeviceSupervisor.sessions_checked`` counts the sessions the safe points
examined for a checkpoint. All are exact and seed-stable, so a quadratic
rescan shows up as a counter jump rather than as wall-time noise.

The ``gpu-map``, ``save()`` and defines-per-session axes add two
test-side tallies (:class:`_Work`) to those: calls made from ``repro``
frames, and modeled ops charged to the devices' counting contexts.
"""

from __future__ import annotations

import os
import sys

import pytest

import repro
from repro.context import CountingContext
from repro.runtime.snapshot import HeapSnapshot
from repro.serve import CuLiServer


def _drain_counters(n: int) -> tuple[int, int]:
    """One loaded device holding ``n`` single-ticket sessions (plus an
    idle one the rebalancer can shed to), drained to empty."""
    with CuLiServer(devices=["gtx1080", "gtx1080"], rebalance=True) as server:
        tickets = [
            server.open_session(device_id="gtx1080#0").submit(f"(+ {k} 1)")
            for k in range(n)
        ]
        server.flush()
        assert [t.output for t in tickets] == [str(k + 1) for k in range(n)]
        snap = server.stats.snapshot()["scheduler"]
        return snap["tickets_examined"], snap["sessions_examined"]


def test_counters_start_at_zero():
    with CuLiServer(devices=["gtx1080"]) as server:
        snap = server.stats.snapshot()["scheduler"]
        assert snap["tickets_examined"] == 0
        assert snap["sessions_examined"] == 0


def test_no_cliff_when_sessions_double():
    tickets_n, sessions_n = _drain_counters(300)
    tickets_2n, sessions_2n = _drain_counters(600)
    assert tickets_n >= 300
    assert sessions_n > 0  # the rebalancer did shed
    assert tickets_2n <= 2.2 * tickets_n
    assert sessions_2n <= 2.2 * sessions_n


def test_counters_are_seed_stable():
    assert _drain_counters(100) == _drain_counters(100)


def _failover_counters(n: int, interval: int = 8) -> dict:
    """``n`` tenants with one ``(+ 1 2)`` each on two devices with
    failover and rebalancing on, drained to empty: every deterministic
    host-work and checkpoint counter."""
    with CuLiServer(
        devices=["gtx1080", "gtx1080"],
        rebalance=True,
        failover=True,
        checkpoint_interval=interval,
    ) as server:
        tickets = [server.open_session().submit("(+ 1 2)") for _ in range(n)]
        server.flush()
        assert [t.output for t in tickets] == ["3"] * n
        snap = server.stats.snapshot()
        return {
            "tickets_examined": snap["scheduler"]["tickets_examined"],
            "sessions_examined": snap["scheduler"]["sessions_examined"],
            "sessions_checked": server.supervisor.sessions_checked,
            "checkpoints": snap["failover"]["checkpoints_shipped"]
            + snap["failover"]["checkpoints_skipped"],
            "batches": snap["batches"]["count"],
        }


def test_no_supervisor_cliff_when_tenants_double():
    """Safe points check due sessions, not residents: with an interval
    of one every tenant falls due once, and doubling the tenants at most
    doubles (x2.2) every counter. A sweep over the residents at each safe
    point made ``sessions_checked`` grow with tenants x safe points."""
    n, two_n = _failover_counters(300, interval=1), _failover_counters(600, interval=1)
    assert n["sessions_checked"] == 300
    assert n["checkpoints"] == 300
    for key, value in two_n.items():
        assert value <= 2.2 * n[key], (key, n[key], value)


def test_sessions_checked_are_the_due_sessions():
    """No checkpoint falls due before the interval, so no session is
    checked; past it, each check is one checkpoint."""
    assert _failover_counters(200)["sessions_checked"] == 0
    counters = _failover_counters(200, interval=1)
    assert counters["sessions_checked"] == counters["checkpoints"] == 200


# -- doubling: gpu-map elements, save() payload size, defines per session ---------

_SRC = os.path.dirname(repro.__file__)
_BULK = os.path.join(_SRC, "serve", "bulk.py")


def _ops(ctx: CountingContext) -> float:
    return sum(map(sum, ctx.counts.rows))


class _Work:
    """Deterministic work done inside the ``with`` block, counted from
    outside the program: ``calls`` — Python and builtin calls made from
    ``repro`` frames; ``bulk_calls`` — those made from frames in
    ``serve/bulk.py`` alone, so host-side chunk formatting is not lost in
    the device work; ``ops`` — modeled ops charged to ``server``'s
    device master contexts and to every counting context made in the
    block (a reset tallies what it clears)."""

    def __init__(self, server: CuLiServer) -> None:
        self.calls = 0
        self.bulk_calls = 0
        self.ops = 0.0
        self._contexts = [p.device.master_ctx for p in server.pool.devices.values()]

    def __enter__(self) -> "_Work":
        contexts = self._contexts
        self.ops -= sum(map(_ops, contexts))
        init, reset = CountingContext.__init__, CountingContext.reset
        self._saved = init, reset

        def tracked_init(ctx, *args, **kwargs):
            init(ctx, *args, **kwargs)
            contexts.append(ctx)

        def tallied_reset(ctx):
            self.ops += _ops(ctx)
            reset(ctx)

        def profile(frame, event, arg):
            if event in ("call", "c_call"):
                filename = frame.f_code.co_filename
                if filename.startswith(_SRC):
                    self.calls += 1
                    if filename == _BULK:
                        self.bulk_calls += 1

        CountingContext.__init__ = tracked_init
        CountingContext.reset = tallied_reset
        sys.setprofile(profile)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)
        CountingContext.__init__, CountingContext.reset = self._saved
        self.ops += sum(map(_ops, self._contexts))


def _gpu_map_counters(n: int) -> dict:
    """A ``gpu-map`` of ``n`` elements two ways: host-sharded over two
    devices in 256-element chunks, and as one tenant request whose
    device engine distributes every element."""
    fn = "(lambda (x) (+ (* x x) 3))"
    elements = [k % 97 for k in range(n)]
    want = "(" + " ".join(str(x * x + 3) for x in elements) + ")"
    with CuLiServer(devices=["gtx1080", "gtx1080"]) as server:
        with _Work(server) as sharded:
            assert server.gpu_map(fn, elements) == want
        session = server.open_session()
        body = " ".join(map(str, elements))
        with _Work(server) as builtin:
            assert session.eval(f"(gpu-map {fn} ({body}))") == want
        snap = server.stats.snapshot()
    return {
        "sharded_calls": sharded.calls,
        "sharded_bulk_calls": sharded.bulk_calls,
        "sharded_ops": sharded.ops,
        "builtin_calls": builtin.calls,
        "builtin_ops": builtin.ops,
        "batches": snap["batches"]["count"],
        "tickets_examined": snap["scheduler"]["tickets_examined"],
    }


def _save_counters(n: int) -> dict:
    """``save()`` of one tenant holding an ``n``-item list, and its
    ``restore()`` on a fresh server."""
    with CuLiServer(devices=["gtx1080"]) as server:
        server.open_session().eval(
            "(setq big (list " + " ".join(str(k) for k in range(n)) + "))"
        )
        with _Work(server) as saving:
            state = server.save()
    with CuLiServer(devices=["gtx1080"]) as server:
        with _Work(server) as restoring:
            (session,) = server.restore(state).values()
        assert session.eval("(car (reverse big))") == str(n - 1)
    (entry,) = state["sessions"]
    return {
        "save_calls": saving.calls,
        "nodes": HeapSnapshot.from_dict(entry["snapshot"]).node_count,
        "restore_calls": restoring.calls,
    }


def _defines_counters(n: int) -> dict:
    """One session defines ``n`` functions, then calls each of them."""
    with CuLiServer(devices=["gtx1080"]) as server:
        session = server.open_session()
        with _Work(server) as work:
            for k in range(n):
                session.eval(f"(defun f{k} (x) (+ x {k}))")
            outputs = [session.eval(f"(f{k} 1)") for k in range(n)]
        assert outputs == [str(k + 1) for k in range(n)]
        snap = server.stats.snapshot()
        return {
            "calls": work.calls,
            "ops": work.ops,
            "batches": snap["batches"]["count"],
            "tickets_examined": snap["scheduler"]["tickets_examined"],
        }


@pytest.mark.parametrize(
    "counters, n",
    [(_gpu_map_counters, 1024), (_save_counters, 1000), (_defines_counters, 250)],
    ids=["gpu-map-elements", "save-payload-items", "defines-per-session"],
)
def test_axis_work_grows_at_most_2_2x_per_doubling(counters, n):
    previous = counters(n)
    for size in (2 * n, 4 * n):
        current = counters(size)
        for key, value in current.items():
            assert value <= 2.2 * previous[key], (key, size, previous[key], value)
        previous = current
