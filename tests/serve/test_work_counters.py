"""Host-work counters: batch formation and rebalancing scale linearly.

``snapshot()["scheduler"]`` reports ``tickets_examined`` (queued tickets
batch formation looked at) and ``sessions_examined`` (sessions the
rebalancer looked at as move candidates). Both are exact and
seed-stable, so a quadratic rescan shows up as a counter jump rather
than as wall-time noise.
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
