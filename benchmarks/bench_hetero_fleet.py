"""Heterogeneous fleet — capability-aware placement on a mixed fleet.

The roadmap's 10k-session replay harness: a Zipf-weighted trace over
~10,000 tenant sessions (a hot head clamped to ~2% of requests, a vast
long tail of one-command sessions) replayed on a mixed fleet — two
GTX 1080s, a Tesla V100, and an Intel E5-2620 — with rebalancing
active.

The claim: modeled-backlog placement loads each device in proportion to
its calibrated capability instead of treating a Xeon queue slot and a
Pascal queue slot as equal (the Xeon needs ~88x less time per request).
That shows up as fleet jobs/s above ``MIN_JOBS_PER_SEC`` and as a
collapsed utilization spread under ``MAX_UTILIZATION_SPREAD``: every
device busy a similar share of the makespan instead of the GPUs
dwarfing an idle CPU. The busiest tenants — the ones queueing, shedding
and migrating most — must print exactly what they print running solo.

The recorded point also carries the scheduler's host-work counters
(``tickets_examined``, ``sessions_examined``), so the trajectory gate
catches a batch-formation or rebalancer rescan as a counter jump.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_hetero_fleet.py -q
"""

from __future__ import annotations

from repro import CuLiServer
from repro.serve import generate_trace, replay_trace
from repro.serve.traces import solo_transcripts

from conftest import record_point

FLEET = ["gtx1080", "gtx1080", "tesla-v100", "intel-e5-2620"]
TENANTS = 10_000
REQUESTS = 12_000
TRACE_SEED = 2018
#: Arrival window sized so modeled service demand dominates (the regime
#: placement can actually win); with ~12k requests over ~5 ms the fleet
#: is saturated from the first sweep.
DURATION_MS = 5.0
ZIPF_EXPONENT = 1.1
#: Absolute floors of the claim. They restate what cost placement was
#: merged on: >= 1.25x the fleet jobs/s and a tighter utilization spread
#: than session/queue-count keys, which managed 115,095 jobs/s at a 98%
#: spread here.
MIN_JOBS_PER_SEC = 1.25 * 115_095
MAX_UTILIZATION_SPREAD = 0.5
#: Tenants checked against the solo oracle (the busiest ones).
ORACLE_TENANTS = 8


def zipf_trace():
    return generate_trace(
        seed=TRACE_SEED,
        tenants=TENANTS,
        requests=REQUESTS,
        duration_ms=DURATION_MS,
        weighting="zipf",
        zipf_exponent=ZIPF_EXPONENT,
    )


def run_fleet(trace) -> dict:
    with CuLiServer(
        devices=list(FLEET),
        rebalance=True,
        # The clamped head tenant still queues a few hundred commands
        # before the first flush; the default 64-ticket admission cap is
        # tuned for interactive serving, not whole-trace replay.
        max_session_queue=512,
    ) as server:
        sessions, tickets = replay_trace(server, trace)
        server.flush()
        assert server.pending == 0
        snap = server.stats.snapshot()
        return {
            "jobs": server.stats.requests_completed,
            "makespan_ms": snap["scheduler"]["makespan_ms"],
            "utilization_spread": server.stats.utilization_spread(),
            "migrations": server.stats.sessions_migrated,
            "sessions": len(sessions),
            "scheduler": snap["scheduler"],
            "transcripts": {
                tenant: [s.output for s in session.history]
                for tenant, session in sessions.items()
            },
        }


def test_cost_placement_on_mixed_fleet(benchmark, capsys):
    """The acceptance claim: the fleet jobs/s floor and the utilization
    spread ceiling on the 10k-session heavy-tailed trace, with the
    busiest tenants' transcripts equal to their solo runs."""
    trace = zipf_trace()
    run = benchmark.pedantic(run_fleet, args=(trace,), rounds=1, iterations=1)
    assert run["sessions"] >= TENANTS
    assert run["jobs"] == REQUESTS
    transcripts = run["transcripts"]
    busiest = sorted(transcripts, key=lambda t: -len(transcripts[t]))
    solo = solo_transcripts(trace, tenants=set(busiest[:ORACLE_TENANTS]))
    assert {t: transcripts[t] for t in solo} == solo, (
        "placement must never change evaluation results"
    )
    rps = run["jobs"] / (run["makespan_ms"] / 1000.0)
    spread = run["utilization_spread"]
    record_point(
        benchmark,
        tenants=run["sessions"],
        requests=run["jobs"],
        devices=len(FLEET),
        cost_jobs_per_sec=rps,
        cost_utilization_spread=spread,
        cost_migrations=run["migrations"],
        tickets_examined=run["scheduler"]["tickets_examined"],
        sessions_examined=run["scheduler"]["sessions_examined"],
    )
    with capsys.disabled():
        print(
            f"\nhetero fleet (2x gtx1080 + tesla-v100 + intel-e5-2620, "
            f"{run['sessions']:,} sessions / {run['jobs']:,} requests, "
            f"zipf {ZIPF_EXPONENT}): {rps:,.0f} jobs/s "
            f"(spread {spread * 100:.0f}%, {run['migrations']} moves)"
        )
    assert rps >= MIN_JOBS_PER_SEC, (
        f"cost placement ({rps:.0f} jobs/s) is below the "
        f"{MIN_JOBS_PER_SEC:.0f} jobs/s floor on the mixed fleet"
    )
    assert spread < MAX_UTILIZATION_SPREAD, (
        f"capability-aware placement must keep the fleet utilization "
        f"spread under {MAX_UTILIZATION_SPREAD:.2f} (got {spread:.2f})"
    )
