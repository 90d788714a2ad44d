"""Serving throughput — batched multi-tenant vs N sequential sessions.

The serving claim: running many tenants' commands through
``CuLiServer``'s shared ``|||`` distribution rounds yields measurably
more jobs per simulated second than giving each tenant a private
``CuLiSession`` and running them one after another on the same device
class. The batched path pays the mapped-memory handshake and the PCIe
latency once per batch, and tenant evaluations run concurrently on
worker warps instead of serially on the master.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_serve_throughput.py -q
"""

from __future__ import annotations

import pytest

from repro import CuLiServer, CuLiSession

from conftest import record_point

DEVICE = "gtx1080"
TENANTS = 16
DEFINE = (
    "(defun loop-sum (n acc) "
    "(if (< n 1) acc (loop-sum (- n 1) (+ acc n))))"
)


def tenant_commands(i: int) -> list[str]:
    """A small per-tenant program: one define, two compute commands."""
    return [DEFINE, f"(loop-sum {20 + i} 0)", f"(* {i + 1} (loop-sum 25 0))"]


def run_sequential(n_tenants: int = TENANTS) -> tuple[float, int]:
    """N private sessions, one after another on one device.

    Returns (total simulated ms, commands executed)."""
    total_ms = 0.0
    commands = 0
    for i in range(n_tenants):
        with CuLiSession(DEVICE) as sess:
            for command in tenant_commands(i):
                total_ms += sess.submit(command).times.total_ms
                commands += 1
    return total_ms, commands


def run_batched(n_tenants: int = TENANTS) -> tuple[float, int, "CuLiServer"]:
    """N tenants multiplexed onto one shared device via the server.

    Returns (simulated makespan ms, commands executed, server)."""
    server = CuLiServer(devices=[DEVICE], max_batch=n_tenants)
    tenants = [server.open_session() for _ in range(n_tenants)]
    for i, tenant in enumerate(tenants):
        for command in tenant_commands(i):
            tenant.submit(command)
    server.flush()
    makespan = server.stats.simulated_makespan_ms
    completed = server.stats.requests_completed
    server.close()
    return makespan, completed, server


def test_sequential_baseline(benchmark):
    result = benchmark.pedantic(run_sequential, rounds=1, iterations=1)
    total_ms, commands = result
    record_point(
        benchmark,
        mode="sequential",
        tenants=TENANTS,
        commands=commands,
        simulated_total_ms=total_ms,
        jobs_per_sec=commands / (total_ms / 1000.0),
    )
    assert commands == TENANTS * 3


def test_batched_serving(benchmark):
    result = benchmark.pedantic(run_batched, rounds=1, iterations=1)
    makespan_ms, commands, _ = result
    record_point(
        benchmark,
        mode="batched",
        tenants=TENANTS,
        commands=commands,
        simulated_total_ms=makespan_ms,
        jobs_per_sec=commands / (makespan_ms / 1000.0),
    )
    assert commands == TENANTS * 3


def test_batched_beats_sequential(benchmark, capsys):
    """The acceptance claim: batched serving throughput > sequential."""

    def compare():
        seq_ms, seq_jobs = run_sequential()
        bat_ms, bat_jobs, _ = run_batched()
        return seq_ms, seq_jobs, bat_ms, bat_jobs

    seq_ms, seq_jobs, bat_ms, bat_jobs = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )
    seq_rps = seq_jobs / (seq_ms / 1000.0)
    bat_rps = bat_jobs / (bat_ms / 1000.0)
    speedup = bat_rps / seq_rps
    record_point(
        benchmark,
        sequential_jobs_per_sec=seq_rps,
        batched_jobs_per_sec=bat_rps,
        speedup=speedup,
    )
    with capsys.disabled():
        print(
            f"\nserving throughput on {DEVICE} ({TENANTS} tenants x 3 commands): "
            f"sequential {seq_rps:,.0f} jobs/s, batched {bat_rps:,.0f} jobs/s "
            f"({speedup:.1f}x)"
        )
    assert bat_rps > seq_rps, (
        f"batched serving ({bat_rps:.0f} jobs/s) must beat sequential "
        f"sessions ({seq_rps:.0f} jobs/s)"
    )


@pytest.mark.parametrize("n_devices", [1, 2, 4])
def test_pool_scales_makespan(benchmark, n_devices):
    """Adding device shards divides the makespan (sessions are pinned,
    devices run concurrently in simulated time)."""

    def run():
        server = CuLiServer(devices=[DEVICE] * n_devices, max_batch=TENANTS)
        tenants = [server.open_session() for _ in range(TENANTS)]
        for i, tenant in enumerate(tenants):
            for command in tenant_commands(i):
                tenant.submit(command)
        server.flush()
        makespan = server.stats.simulated_makespan_ms
        server.close()
        return makespan

    makespan = benchmark.pedantic(run, rounds=1, iterations=1)
    record_point(
        benchmark, devices=n_devices, tenants=TENANTS, makespan_ms=makespan
    )
    assert makespan > 0


#: The clean-path fast-path figure measured when fault containment
#: landed (matches PR 2/3's ~45.5k jobs/s): the perf-smoke floor below
#: asserts the containment machinery never costs the clean path >2%.
CLEAN_FASTPATH_JOBS_PER_SEC = 45_465.0


def test_fault_containment_overhead(benchmark, capsys):
    """Perf smoke: fault isolation is free on the clean path.

    The containment machinery (per-job nursery watermarks, contained
    device-fault handlers, quarantine bookkeeping) is host-side
    bookkeeping that charges no modeled ops unless a fault actually
    fires, so the fault-free serving workload must stay within 2% of the
    figure recorded when containment landed."""
    makespan_ms, jobs, _ = benchmark.pedantic(run_batched, rounds=1, iterations=1)
    rps = jobs / (makespan_ms / 1000.0)
    record_point(
        benchmark,
        tenants=TENANTS,
        commands=jobs,
        jobs_per_sec=rps,
        clean_floor=CLEAN_FASTPATH_JOBS_PER_SEC * 0.98,
    )
    with capsys.disabled():
        print(
            f"\nfault-containment overhead check on {DEVICE}: "
            f"{rps:,.0f} jobs/s vs {CLEAN_FASTPATH_JOBS_PER_SEC:,.0f} recorded "
            f"({rps / CLEAN_FASTPATH_JOBS_PER_SEC:.3f}x)"
        )
    assert rps >= CLEAN_FASTPATH_JOBS_PER_SEC * 0.98, (
        f"clean-path serving ({rps:.0f} jobs/s) regressed more than 2% below "
        f"the pre-containment figure ({CLEAN_FASTPATH_JOBS_PER_SEC:.0f} jobs/s)"
    )


def test_parse_cache_hit_rate(benchmark):
    """Under repeated-workload serving the parse cache absorbs most of
    the master's serial parse scans (the paper's stated bottleneck)."""

    def run():
        _, _, server = run_batched()
        caches = [
            pdev.device.interp.parse_cache for pdev in server.pool.devices.values()
        ]
        hits = sum(c.stats.hits for c in caches if c is not None)
        misses = sum(c.stats.misses for c in caches if c is not None)
        return hits, misses

    hits, misses = benchmark.pedantic(run, rounds=1, iterations=1)
    total = hits + misses
    record_point(benchmark, cache_hits=hits, cache_misses=misses,
                 hit_rate=hits / total if total else 0.0)
    # 16 tenants x 3 commands: the shared define text parses once; the
    # 15 repeats hit. The per-tenant compute commands differ by text.
    assert hits >= TENANTS - 1
