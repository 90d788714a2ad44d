"""Property: no request is ever lost under seeded device-loss chaos.

Sixteen tenants run deterministic, **non-idempotent** scripts (counter
increments — any double-applied replay or dropped command changes the
bytes) while a seeded :class:`ChaosMonkey` kills and hangs devices at a
combined rate well above 5% of rounds. The contract the supervisor must
keep:

* **Exactly-once observable results** — every ticket resolves once, and
  every transcript is byte-identical to a run where chaos never fired
  (at-least-once replay under the hood, exactly-once at the API).
* **Balance** — ``enqueued == completed + cancelled`` and zero pending
  after every drain, kills or not.
* **Bounded RPO** — no recovery ever replays more than
  ``checkpoint_interval`` rounds of suffix.
* **Termination** — even a 100% kill rate cannot make ``drain()`` spin
  forever: the per-ticket failover cap resolves every ticket as
  poisoned.

CI runs this file twice: once with the baked-in seeds below, and once
more in the seeded chaos matrix where ``REPRO_CHAOS_SEED`` /
``REPRO_CHAOS_KILL`` / ``REPRO_CHAOS_HANG`` override them (see
:func:`monkey_from_env`).
"""

from __future__ import annotations

import os
from typing import Optional

import pytest

from repro.errors import DeviceLostError
from repro.serve import ChaosMonkey, CuLiServer

# REPRO_TEST_FLEET re-points the whole module at another device list
# (CI's mixed-fleet leg runs it on a gpu+cpu pool).
_FLEET_ENV = os.environ.get("REPRO_TEST_FLEET", "")
DEVICES = (
    [name.strip() for name in _FLEET_ENV.split(",") if name.strip()]
    or ["gtx1080", "gtx1080", "tesla-m40"]
)
MIXED_FLEET = ["gtx1080", "tesla-v100", "intel-e5-2620"]
TENANTS = 16
ROUNDS = 8
INTERVAL = 4

#: Baked-in seeds; the CI chaos matrix overrides via REPRO_CHAOS_SEED.
SEEDS = [7, 23, 401]


def monkey_from_env() -> Optional[ChaosMonkey]:
    """Build from ``REPRO_CHAOS_SEED`` / ``REPRO_CHAOS_KILL`` /
    ``REPRO_CHAOS_HANG`` / ``REPRO_CHAOS_IDLE`` (CI's seeded chaos
    matrix); None when no seed is set."""
    seed = os.environ.get("REPRO_CHAOS_SEED")
    if seed is None:
        return None
    return ChaosMonkey(
        seed=int(seed),
        kill_rate=float(os.environ.get("REPRO_CHAOS_KILL", "0.05")),
        hang_rate=float(os.environ.get("REPRO_CHAOS_HANG", "0.03")),
        idle_kill_rate=float(os.environ.get("REPRO_CHAOS_IDLE", "0.01")),
    )


def _monkey(seed: int) -> ChaosMonkey:
    from_env = monkey_from_env()
    if from_env is not None:
        return from_env
    return ChaosMonkey(
        seed=seed, kill_rate=0.08, hang_rate=0.05, idle_kill_rate=0.02
    )


def _chaos_server(monkey: ChaosMonkey) -> CuLiServer:
    return CuLiServer(
        devices=list(DEVICES),
        chaos=monkey,
        checkpoint_interval=INTERVAL,
        # Generous breaker: this suite measures request accounting, not
        # breaker dynamics — devices should keep coming back.
        failover_config={"breaker_failures": 3, "cooldown_rounds": 1},
    )


def _run_tenants(server: CuLiServer) -> list[list[str]]:
    """ROUNDS rounds of per-tenant counter increments; returns each
    tenant's full transcript (every ticket's output, in order)."""
    sessions = [server.open_session(f"t{i}") for i in range(TENANTS)]
    tickets = [[] for _ in range(TENANTS)]
    for i, s in enumerate(sessions):
        tickets[i].append(s.submit(f"(setq n {i * 10})"))
    server.flush()
    for _ in range(ROUNDS):
        for i, s in enumerate(sessions):
            tickets[i].append(s.submit("(setq n (+ n 1))"))
        server.flush()
    for i, s in enumerate(sessions):
        tickets[i].append(s.submit("n"))
    server.flush()
    return [[t.output for t in row] for row in tickets]


def _expected() -> list[list[str]]:
    out = []
    for i in range(TENANTS):
        base = i * 10
        row = [str(base)]
        row += [str(base + r + 1) for r in range(ROUNDS)]
        row.append(str(base + ROUNDS))
        out.append(row)
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_exactly_once_results_under_chaos(seed):
    monkey = _monkey(seed)
    with _chaos_server(monkey) as server:
        transcripts = _run_tenants(server)
        st = server.stats
        # Coverage: a chaos run that never killed anything proves nothing.
        assert monkey.events > 0, f"seed {seed} injected no chaos"
        assert st.devices_lost > 0
        # Exactly-once observable: byte-identical to the no-chaos truth.
        assert transcripts == _expected()
        # No request lost, none double-counted.
        assert server.pending == 0
        assert st.requests_enqueued == (
            st.requests_completed + st.requests_cancelled
        )
        assert st.poisoned_requests == 0
        # Bounded RPO: never replayed past the checkpoint interval.
        assert st.rpo_rounds_max <= INTERVAL
        assert st.sessions_recovered >= st.devices_lost  # tenants came back


@pytest.mark.parametrize("seed", SEEDS[:1])
def test_transcripts_match_a_chaos_free_run(seed):
    """The same comparison, but against an actually-executed quiet run
    rather than a hand-computed truth table."""
    with _chaos_server(_monkey(seed)) as server:
        disturbed = _run_tenants(server)
    with CuLiServer(
        devices=list(DEVICES), failover=True, checkpoint_interval=INTERVAL
    ) as server:
        quiet = _run_tenants(server)
    assert disturbed == quiet


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_hang_only_chaos_is_still_exactly_once(seed):
    """Hangs are the at-least-once corner: the round's work executed,
    then died with the arena. Replay must reconverge, not double-apply."""
    monkey = ChaosMonkey(seed=seed, kill_rate=0.0, hang_rate=0.12)
    with _chaos_server(monkey) as server:
        transcripts = _run_tenants(server)
        assert monkey.hangs > 0, f"seed {seed} injected no hangs"
        assert transcripts == _expected()
        assert server.pending == 0
        assert server.stats.device_hangs > 0


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_exactly_once_holds_on_a_heterogeneous_fleet(seed):
    """Chaos on unequal devices: victims are restored fastest-capable-
    first (the cost-placement failover ladder) and a CPU device can
    inherit a GPU session's heap mid-recovery — transcripts must still
    be byte-identical to the quiet truth, exactly once."""
    monkey = ChaosMonkey(
        seed=seed, kill_rate=0.08, hang_rate=0.05, idle_kill_rate=0.02
    )
    with CuLiServer(
        devices=list(MIXED_FLEET),
        chaos=monkey,
        checkpoint_interval=INTERVAL,
        failover_config={"breaker_failures": 3, "cooldown_rounds": 1},
    ) as server:
        transcripts = _run_tenants(server)
        st = server.stats
        assert monkey.events > 0, f"seed {seed} injected no chaos"
        assert transcripts == _expected()
        assert server.pending == 0
        assert st.requests_enqueued == (
            st.requests_completed + st.requests_cancelled
        )
        assert st.poisoned_requests == 0
        assert st.rpo_rounds_max <= INTERVAL


def test_total_kill_rate_still_terminates():
    """kill_rate=1.0: every submission dies. The per-ticket failover cap
    must resolve every ticket as poisoned — drain() terminates, the
    balance holds, and nothing is silently dropped."""
    monkey = ChaosMonkey(seed=1, kill_rate=1.0)
    with CuLiServer(
        devices=["gtx1080", "gtx1080"],
        chaos=monkey,
        checkpoint_interval=INTERVAL,
        failover_config={"max_ticket_failovers": 3, "breaker_failures": 3},
    ) as server:
        sessions = [server.open_session(f"t{i}") for i in range(4)]
        tickets = [s.submit(f"(setq n {i})") for i, s in enumerate(sessions)]
        server.flush()
        assert server.pending == 0
        for ticket in tickets:
            assert isinstance(ticket.error, DeviceLostError)
        st = server.stats
        assert st.poisoned_requests >= len(tickets)
        assert st.requests_enqueued == (
            st.requests_completed + st.requests_cancelled
        )


def test_from_env_round_trip(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS_SEED", raising=False)
    assert monkey_from_env() is None
    monkeypatch.setenv("REPRO_CHAOS_SEED", "42")
    monkeypatch.setenv("REPRO_CHAOS_KILL", "0.2")
    monkeypatch.setenv("REPRO_CHAOS_HANG", "0.1")
    monkey = monkey_from_env()
    assert monkey is not None
    assert (monkey.seed, monkey.kill_rate, monkey.hang_rate) == (42, 0.2, 0.1)
