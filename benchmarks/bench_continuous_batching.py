"""Continuous batching — per-device pipelines on a bursty trace.

The scheduling claim: on a bursty, 4x-skewed multi-tenant trace the
scheduler (per-device event timelines, double-buffered transfers, EDF
admission) sustains at least ``MIN_JOBS_PER_SEC`` modeled jobs/s with a
p99 under ``MAX_P99_MS``. Every tenant's transcript must equal its solo
run (each tenant alone on a fresh single-device server): throughput is
pure scheduling, never divergent evaluation.

The safety rail: on a uniform, always-saturated workload (every batch
full on every device — nothing for continuous batching to exploit) the
event timeline must not inflate the modeled makespan by more than 2%
over the no-overlap clock (each device's ``DevicePipeline.serial_ms``,
every batch paid back to back).

The recorded points also carry the scheduler's host-work counters
(``tickets_examined``, ``sessions_examined``), so the trajectory gate
catches a batch-formation rescan as a counter jump.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_continuous_batching.py -q
"""

from __future__ import annotations

from repro import CuLiServer
from repro.serve import generate_trace, replay_trace
from repro.serve.traces import solo_transcripts

from conftest import record_point

DEVICE = "gtx1080"
N_DEVICES = 4
TENANTS = 16
SKEW = 4.0
TRACE_SEED = 2018  # conf year of the source paper; any fixed seed works
REQUESTS = 384
#: Burst window sized so modeled service demand dominates the arrival
#: span — the regime where a wait-for-the-slowest barrier and serialized
#: transfers actually cost (a long idle trace is arrival-limited under
#: *any* scheduler).
DURATION_MS = 2.0
HEAVY_TAIL = 0.35
#: Absolute floors of the claim. They restate what continuous batching
#: was merged on: >= 1.3x the modeled jobs/s and a lower p99 than a
#: global-round scheduler, which charged every ticket the slowest
#: device's batch end and managed 47,736 jobs/s at p99 4.98 ms here.
MIN_JOBS_PER_SEC = 1.3 * 47_736
MAX_P99_MS = 4.98


def canonical_trace():
    return generate_trace(
        seed=TRACE_SEED,
        tenants=TENANTS,
        requests=REQUESTS,
        duration_ms=DURATION_MS,
        skew=SKEW,
        heavy_tail=HEAVY_TAIL,
    )


def run_trace(trace) -> dict:
    """Replay ``trace`` on a fresh fleet."""
    with CuLiServer(devices=[DEVICE] * N_DEVICES, max_batch=8) as server:
        sessions, tickets = replay_trace(server, trace)
        server.flush()
        snap = server.stats.snapshot()
        return {
            "jobs": server.stats.requests_completed,
            "makespan_ms": snap["scheduler"]["makespan_ms"],
            "latency": snap["latency"],
            "scheduler": snap["scheduler"],
            "transcripts": {
                tenant: [s.output for s in session.history]
                for tenant, session in sorted(sessions.items())
            },
        }


def run_uniform() -> dict:
    """A no-slack workload: every tenant queues the same command count
    with no arrival spread, so every batch is full everywhere; returns
    the scheduler snapshot."""
    with CuLiServer(devices=[DEVICE] * N_DEVICES, max_batch=8) as server:
        tenants = [server.open_session(f"u{i}") for i in range(TENANTS)]
        for r in range(6):
            for i, tenant in enumerate(tenants):
                tenant.submit(f"(+ {r} (* {i} {i}))")
        server.flush()
        return server.stats.snapshot()["scheduler"]


def test_async_on_bursty_trace(benchmark, capsys):
    """The acceptance claim: the jobs/s floor and the p99 ceiling on the
    4x-skewed bursty trace, with every transcript equal to its solo
    run."""
    trace = canonical_trace()
    run = benchmark.pedantic(run_trace, args=(trace,), rounds=1, iterations=1)
    assert run["transcripts"] == solo_transcripts(trace), (
        "scheduling must never change evaluation results"
    )
    rps = run["jobs"] / (run["makespan_ms"] / 1000.0)
    p99 = run["latency"]["p99_ms"]
    record_point(
        benchmark,
        tenants=TENANTS,
        devices=N_DEVICES,
        skew=SKEW,
        requests=run["jobs"],
        async_jobs_per_sec=rps,
        async_p50_ms=run["latency"]["p50_ms"],
        async_p99_ms=p99,
        tickets_examined=run["scheduler"]["tickets_examined"],
        sessions_examined=run["scheduler"]["sessions_examined"],
    )
    with capsys.disabled():
        print(
            f"\ncontinuous batching on {N_DEVICES}x {DEVICE} ({TENANTS} "
            f"tenants, {SKEW:.0f}x-skew bursty trace): {rps:,.0f} jobs/s "
            f"/ p99 {p99:.2f} ms"
        )
    assert rps >= MIN_JOBS_PER_SEC, (
        f"{rps:.0f} jobs/s is below the {MIN_JOBS_PER_SEC:.0f} jobs/s "
        "floor on the skewed bursty trace"
    )
    assert p99 < MAX_P99_MS, (
        f"p99 ({p99:.2f} ms) must stay under {MAX_P99_MS:.2f} ms"
    )


def test_async_overhead_on_uniform_workload(benchmark, capsys):
    """The safety rail: with no burstiness or skew to exploit, the
    pipelined makespan stays within 2% of the no-overlap clock."""
    sched = benchmark.pedantic(run_uniform, rounds=1, iterations=1)
    asy_ms = sched["makespan_ms"]
    serial_ms = max(d["serial_ms"] for d in sched["devices"].values())
    overhead = asy_ms / serial_ms - 1.0
    record_point(
        benchmark,
        tenants=TENANTS,
        devices=N_DEVICES,
        async_makespan_ms=asy_ms,
        serial_makespan_ms=serial_ms,
        overhead_pct=overhead * 100.0,
        tickets_examined=sched["tickets_examined"],
        sessions_examined=sched["sessions_examined"],
    )
    with capsys.disabled():
        print(
            f"\nuniform workload: no-overlap clock {serial_ms:.2f} ms, "
            f"pipelined {asy_ms:.2f} ms ({overhead * 100.0:+.2f}% timeline "
            "overhead)"
        )
    assert overhead < 0.02, (
        f"timeline overhead {overhead * 100.0:.2f}% exceeds the 2% "
        "clean-path budget on the uniform workload"
    )
