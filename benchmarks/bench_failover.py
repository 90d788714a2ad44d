"""Failover — checkpoint overhead on the clean path, recovery speed
after a kill.

Two claims ride on the supervisor:

* **Clean path is (almost) free** — interval checkpoints at ``N=8``
  (digest-skipped when the heap didn't change, shipped over the modeled
  PCIe link when it did) cost < 5% of clean-path jobs per simulated
  second on a failure-free run.
* **Recovery is fast** — after a device is killed mid-run, the fleet's
  per-round simulated time is back within 1.25x of its pre-kill average
  no later than two rounds after the kill (restore transfer + suffix
  replay land in the kill round and the round after; rebalancing then
  re-levels tenants across the revived device).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_failover.py -q
"""

from __future__ import annotations

from repro import CuLiServer

from conftest import record_point

DEVICE = "gtx1080"
N_DEVICES = 2
TENANTS = 8
ROUNDS = 10
KILL_AFTER = 5   #: kill device #0 after this many measured rounds
INTERVAL = 8     #: checkpoint every N rounds (the acceptance N)


def command_for(i: int, r: int) -> str:
    """Parse-dominated serving request with a small heap mutation, so
    rounds cost realistic modeled time *and* every checkpoint interval
    has a changed digest to ship."""
    items = " ".join(str((i + r + k) % 97) for k in range(112))
    return f"(+ (car (setq acc (cons {r} acc))) (length (list {items})))"


def open_tenants(server: CuLiServer) -> list:
    tenants = [server.open_session(f"t{i}") for i in range(TENANTS)]
    for tenant in tenants:
        tenant.submit("(setq acc (list 0))")
    server.flush()
    return tenants


def run_rounds(server: CuLiServer, tenants: list, kill_at: int = -1) -> list:
    """Per-round simulated makespan deltas; optionally kill device #0
    right after round ``kill_at`` completes."""
    per_round = []
    for r in range(ROUNDS):
        before = server.stats.simulated_makespan_ms
        for i, tenant in enumerate(tenants):
            tenant.submit(command_for(i, r))
        server.flush()
        per_round.append(server.stats.simulated_makespan_ms - before)
        if r == kill_at:
            victim = next(iter(server.pool.devices))
            server.supervisor.kill_device(victim, "bench kill")
    return per_round


def test_checkpoint_overhead_on_the_clean_path(benchmark, capsys):
    """Failover on (N=8 checkpoints) vs off, no failures injected:
    < 5% modeled-throughput cost."""

    def compare():
        clean = CuLiServer(devices=[DEVICE] * N_DEVICES, max_batch=TENANTS)
        clean_rounds = run_rounds(clean, open_tenants(clean))
        clean.close()
        ckpt = CuLiServer(
            devices=[DEVICE] * N_DEVICES,
            max_batch=TENANTS,
            failover=True,
            checkpoint_interval=INTERVAL,
        )
        ckpt_rounds = run_rounds(ckpt, open_tenants(ckpt))
        return clean_rounds, ckpt_rounds, ckpt

    clean_rounds, ckpt_rounds, server = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )
    clean_ms, ckpt_ms = sum(clean_rounds), sum(ckpt_rounds)
    jobs = TENANTS * ROUNDS
    clean_rps = jobs / (clean_ms / 1000.0)
    ckpt_rps = jobs / (ckpt_ms / 1000.0)
    overhead = ckpt_ms / clean_ms - 1.0
    st = server.stats
    record_point(
        benchmark,
        tenants=TENANTS,
        devices=N_DEVICES,
        checkpoint_interval=INTERVAL,
        clean_jobs_per_sec=clean_rps,
        checkpointed_jobs_per_sec=ckpt_rps,
        checkpoints_shipped=st.checkpoints_shipped,
        checkpoints_skipped=st.checkpoints_skipped,
        checkpoint_bytes=st.checkpoint_bytes,
        checkpoint_transfer_ms=st.checkpoint_transfer_ms,
        overhead=overhead,
        sessions_checked=server.supervisor.sessions_checked,
    )
    server.close()
    with capsys.disabled():
        print(
            f"\ncheckpointing on {N_DEVICES}x {DEVICE} ({TENANTS} tenants, "
            f"N={INTERVAL}): clean {clean_rps:,.0f} jobs/s -> "
            f"checkpointed {ckpt_rps:,.0f} jobs/s "
            f"({overhead * 100:.2f}% overhead, "
            f"{st.checkpoints_shipped} shipped / "
            f"{st.checkpoints_skipped} skipped)"
        )
    assert st.checkpoints_shipped > 0, "checkpoints must actually ship"
    assert overhead < 0.05, (
        f"N={INTERVAL} checkpointing cost {overhead * 100:.2f}% of "
        f"clean-path throughput (budget: 5%)"
    )


def test_recovery_restores_throughput_within_two_rounds(benchmark, capsys):
    """Kill a device mid-run: modeled per-round time returns to <= 1.25x
    the pre-kill average within two rounds of the kill, and every
    tenant's state is exact afterwards (nothing lost, nothing doubled)."""

    def run():
        server = CuLiServer(
            devices=[DEVICE] * N_DEVICES,
            max_batch=TENANTS,
            failover=True,
            checkpoint_interval=INTERVAL,
            rebalance=True,
        )
        tenants = open_tenants(server)
        per_round = run_rounds(server, tenants, kill_at=KILL_AFTER)
        finals = [t.eval("(car acc)") for t in tenants]
        return per_round, finals, server

    per_round, finals, server = benchmark.pedantic(run, rounds=1, iterations=1)
    baseline = sum(per_round[:KILL_AFTER]) / KILL_AFTER
    recovered = per_round[KILL_AFTER + 2 :]
    worst_after = max(recovered) / baseline
    st = server.stats
    record_point(
        benchmark,
        tenants=TENANTS,
        devices=N_DEVICES,
        kill_after_round=KILL_AFTER,
        baseline_round_ms=baseline,
        per_round_ms=per_round,
        worst_recovered_ratio=worst_after,
        sessions_recovered=st.sessions_recovered,
        requests_replayed=st.requests_replayed,
        rpo_max_rounds=st.rpo_rounds_max,
        failover_restore_ms=st.failover_restore_ms,
        sessions_checked=server.supervisor.sessions_checked,
    )
    server.close()
    with capsys.disabled():
        print(
            f"\nrecovery on {N_DEVICES}x {DEVICE} ({TENANTS} tenants): "
            f"baseline {baseline:,.0f} ms/round, kill after round "
            f"{KILL_AFTER}, worst round from kill+2 on "
            f"{worst_after:.2f}x baseline "
            f"({st.sessions_recovered} sessions recovered, "
            f"{st.requests_replayed} replays, "
            f"RPO {st.rpo_rounds_max} rounds)"
        )
    # Correctness first: the last value every tenant consed is the last
    # round index — exactly once, for every tenant, kill or not.
    assert finals == [str(ROUNDS - 1)] * TENANTS
    assert st.sessions_recovered > 0, "the kill must actually displace tenants"
    assert worst_after <= 1.25, (
        f"fleet throughput must re-level within two rounds of a kill "
        f"(worst post-recovery round was {worst_after:.2f}x baseline)"
    )
