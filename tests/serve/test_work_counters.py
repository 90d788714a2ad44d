"""Host-work counters: batch formation, rebalancing and the supervisor's
checkpoint sweep scale linearly.

``snapshot()["scheduler"]`` reports ``tickets_examined`` (queued tickets
batch formation looked at) and ``sessions_examined`` (sessions the
rebalancer looked at as move candidates);
``DeviceSupervisor.sessions_checked`` counts the sessions the safe points
examined for a checkpoint. All are exact and seed-stable, so a quadratic
rescan shows up as a counter jump rather than as wall-time noise.
"""

from __future__ import annotations

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
