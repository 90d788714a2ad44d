"""Property: every tenant's transcript equals its solo run.

The oracle (:mod:`repro.serve.traces`) runs each tenant's commands alone and
in order on a fresh single-device server. Continuous batching is allowed
to reorder work *across* sessions (that is where its makespan and tail
latency wins come from) but never to change what any tenant observes:
per-session FIFO is inviolable, every heap mutation happens on the same
placed environment, and a containable fault stays contained to its own
ticket. So for any workload, any gc policy, JIT on or off, seeded chaos,
rebalancing and a mixed fleet, the per-tenant transcripts of a shared
server must equal the solo ones, byte for byte.

These tests drive scripted multi-tenant workloads and seeded arrival
traces with mixed SLO classes and compare full transcripts. Accounting
invariants ride along: ``enqueued == completed + cancelled`` and zero
pending after a drain.
"""

from __future__ import annotations

import os

import pytest

from repro.core.interpreter import InterpreterOptions
from repro.cpu.device import CPUDeviceConfig
from repro.gpu.device import GPUDeviceConfig
from repro.serve import ChaosMonkey, CuLiServer, generate_trace, replay_trace
from repro.serve.traces import solo_outputs, solo_transcripts

# REPRO_TEST_FLEET overrides the default pool with a comma-separated
# device list, so CI's mixed-fleet matrix leg re-runs this whole module
# on a heterogeneous (gpu+cpu) pool without duplicating the tests.
_FLEET_ENV = os.environ.get("REPRO_TEST_FLEET", "")
DEVICES = (
    [name.strip() for name in _FLEET_ENV.split(",") if name.strip()]
    or ["gtx1080", "gtx1080", "tesla-m40"]
)
MIXED_FLEET = ["gtx1080", "tesla-v100", "intel-e5-2620"]
TENANTS = 12
ROUNDS = 5

GC_POLICIES = ["generational", "literal"]


def tenant_script(i: int) -> list[str]:
    """A deterministic, stateful, non-idempotent per-tenant script: any
    dropped, duplicated, or cross-contaminated command changes bytes."""
    return (
        [f"(defun step-{i} (x) (+ x {i + 1}))", f"(setq acc {i * 100})"]
        + [f"(setq acc (step-{i} acc))" for _ in range(ROUNDS)]
        + [
            f"(setq pair (cons acc {i}))",
            "(car pair)",
            f"(if (< acc {i * 100}) 'shrunk 'grew)",
        ]
    )


def run_scripted(
    pin: bool = False, flush_every: int = 2, **server_kwargs
) -> tuple[list[list[str]], dict]:
    """All tenants' scripts interleaved through one shared server;
    returns (per-tenant transcripts, accounting snapshot). ``pin`` opens
    every session on the first device, a skew the rebalancer sheds."""
    server_kwargs.setdefault("devices", list(DEVICES))
    with CuLiServer(**server_kwargs) as server:
        home = next(iter(server.pool.devices)) if pin else None
        sessions = [
            server.open_session(f"t{i}", device_id=home)
            for i in range(TENANTS)
        ]
        scripts = [tenant_script(i) for i in range(TENANTS)]
        tickets: list[list] = [[] for _ in range(TENANTS)]
        # Interleave: one command per tenant per wave, flushing every
        # ``flush_every`` waves so batching windows vary.
        for step in range(max(len(s) for s in scripts)):
            for i, session in enumerate(sessions):
                if step < len(scripts[i]):
                    tickets[i].append(session.submit(scripts[i][step]))
            if step % flush_every == flush_every - 1:
                server.flush()
        server.flush()
        st = server.stats
        accounting = {
            "pending": server.pending,
            "enqueued": st.requests_enqueued,
            "completed": st.requests_completed,
            "cancelled": st.requests_cancelled,
            "migrations": st.sessions_migrated,
        }
        return [[t.output for t in row] for row in tickets], accounting


def solo_scripted(**server_kwargs) -> list[list[str]]:
    """Every tenant's script run solo (the oracle)."""
    return [
        solo_outputs(tenant_script(i), **server_kwargs)
        for i in range(TENANTS)
    ]


def fast_path_configs(gc_policy: str) -> dict:
    """Server kwargs for a fast-path, JIT-on fleet reclaiming with
    ``gc_policy``."""
    opts = InterpreterOptions.fast(gc_policy=gc_policy, jit=True)
    return {
        "gpu_config": GPUDeviceConfig(interpreter=opts),
        "cpu_config": CPUDeviceConfig(interpreter=opts),
    }


def assert_balanced(accounting: dict) -> None:
    assert accounting["pending"] == 0
    assert accounting["enqueued"] == (
        accounting["completed"] + accounting["cancelled"]
    )


@pytest.mark.parametrize("gc_policy", GC_POLICIES)
def test_transcripts_match_solo_across_gc_policies(gc_policy):
    shared, acct = run_scripted(**fast_path_configs(gc_policy))
    assert shared == solo_scripted(**fast_path_configs(gc_policy))
    assert_balanced(acct)


@pytest.mark.parametrize("jit", [False, True])
def test_transcripts_match_solo_with_and_without_jit(jit):
    shared, _ = run_scripted(jit=jit)
    assert shared == solo_scripted(jit=jit)


def test_transcripts_match_solo_under_rebalancing():
    """Migrations at safe points move idle heaps, and their queued
    tickets, between devices: transcripts cannot tell the difference.
    Every session starts on one device with its whole script queued, so
    the shedding moves sessions with deep queues."""
    shared, acct = run_scripted(
        pin=True, flush_every=len(tenant_script(0)), rebalance=True, max_batch=8
    )
    assert acct["migrations"] > 0
    assert shared == solo_scripted()
    assert_balanced(acct)


@pytest.mark.parametrize("seed", [7, 401])
def test_transcripts_match_solo_under_seeded_chaos(seed):
    """Device kills and hangs land mid-workload, yet exactly-once
    failover keeps every transcript equal to the quiet solo truth — the
    strongest form of the oracle property."""
    monkey = ChaosMonkey(seed=seed, kill_rate=0.08, hang_rate=0.05)
    disturbed, acct = run_scripted(
        chaos=monkey,
        checkpoint_interval=3,
        failover_config={"breaker_failures": 3, "cooldown_rounds": 1},
    )
    assert monkey.events > 0, f"seed {seed} injected no chaos"
    assert disturbed == solo_scripted(), "transcripts diverged under chaos"
    assert_balanced(acct)


@pytest.mark.parametrize("trace_seed", [1, 2018])
def test_trace_replay_transcripts_are_schedule_invariant(trace_seed):
    """A bursty mixed-class trace (interactive SLO tenants + bulk) gives
    EDF real reordering freedom; per-tenant outputs still match solo."""
    trace = generate_trace(
        seed=trace_seed, tenants=TENANTS, requests=120, duration_ms=3.0
    )
    with CuLiServer(devices=list(DEVICES), max_batch=8) as server:
        sessions, tickets = replay_trace(server, trace)
        server.flush()
        assert all(t.done for t in tickets)
        assert server.pending == 0
        shared = {
            tenant: [s.output for s in session.history]
            for tenant, session in sessions.items()
        }
    assert shared == solo_transcripts(trace)


def test_transcripts_match_solo_on_a_heterogeneous_fleet():
    """The oracle property survives unequal devices: cost-aware
    placement spreads tenants across a GPU+Volta+CPU pool by modeled
    backlog, devices resolve batches at wildly different speeds, and
    with rebalancing active per-tenant transcripts still match solo."""
    shared, acct = run_scripted(devices=list(MIXED_FLEET), rebalance=True)
    assert shared == solo_scripted()
    assert_balanced(acct)


def test_fault_containment_is_schedule_invariant():
    """A tenant that exhausts its arena faults only itself; co-tenant
    transcripts stay byte-identical to their solo runs."""
    spin = "(defun spin (n) (if (< n 1) 0 (cons n (spin (- n 1)))))"
    with CuLiServer(devices=["gtx1080"] * 2, max_batch=8) as server:
        hog = server.open_session("hog")
        others = [server.open_session(f"ok{i}") for i in range(4)]
        hog_tickets = [hog.submit(spin)]
        other_tickets: list[list] = [[] for _ in others]
        for r in range(4):
            hog_tickets.append(hog.submit("(spin 100000)"))
            for i, s in enumerate(others):
                other_tickets[i].append(s.submit(f"(+ {r} (* {i} {i}))"))
        server.flush()
    assert hog_tickets[0].output == solo_outputs([spin])[0]
    assert all(t.error is not None for t in hog_tickets[1:])
    for i, row in enumerate(other_tickets):
        assert [t.output for t in row] == solo_outputs(
            [f"(+ {r} (* {i} {i}))" for r in range(4)]
        )
