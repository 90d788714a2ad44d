"""Device-loss failover: watchdog, checkpoint recovery, circuit breaker,
probe-based return to service, and the availability stats surface.

The invariant under test everywhere: **no request is ever lost**. Every
ticket a tenant enqueued resolves exactly once — normally, or (for a
poisonous / unrecoverable request) with an error — no matter which
devices crash, hang, or flap, and co-tenants on surviving devices see
bytes identical to a run where the loss never happened.
"""

from __future__ import annotations

import pytest

from repro.core.interpreter import InterpreterOptions
from repro.cpu.device import CPUDeviceConfig
from repro.errors import DeviceHangError, DeviceLostError
from repro.gpu.device import GPUDeviceConfig
from repro.serve import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    CuLiServer,
)

DEVICE = "gtx1080"


def failover_server(**kwargs) -> CuLiServer:
    kwargs.setdefault("devices", [DEVICE, DEVICE])
    kwargs.setdefault("failover", True)
    kwargs.setdefault("checkpoint_interval", 2)
    return CuLiServer(**kwargs)


def fault_failover_server(**kwargs) -> CuLiServer:
    opts = InterpreterOptions.fast(enable_fault_injection=True)
    kwargs.setdefault("gpu_config", GPUDeviceConfig(interpreter=opts))
    kwargs.setdefault("cpu_config", CPUDeviceConfig(interpreter=opts))
    return failover_server(**kwargs)


class TestErrorClassification:
    def test_device_loss_is_never_containable(self):
        assert not DeviceLostError("x").containable
        assert not DeviceHangError("x").containable

    def test_hang_is_a_loss(self):
        assert isinstance(DeviceHangError("x"), DeviceLostError)


class TestKillRecovery:
    def test_checkpointed_session_survives_a_kill(self):
        with failover_server() as server:
            session = server.open_session()
            session.eval("(defun f (x) (* x x))")
            session.eval("(setq n 10)")       # checkpoint fires here (N=2)
            session.eval("(setq n (+ n 1))")  # suffix: 1 round past checkpoint
            lost = session.device_id
            server.supervisor.kill_device(lost, "test kill")
            assert session.device_id != lost
            assert session.eval("n") == "11"
            assert session.eval("(f 4)") == "16"
            assert server.stats.devices_lost == 1
            assert server.stats.sessions_recovered == 1
            assert server.stats.rpo_rounds_max <= 2

    def test_fresh_session_recovers_by_full_replay(self):
        """Before the first checkpoint the suffix *is* the session: a
        fresh root plus replay reproduces everything."""
        with failover_server(checkpoint_interval=50) as server:
            session = server.open_session()
            session.eval("(setq x 7)")
            assert server.supervisor.store.get(session.session_id) is None
            server.supervisor.kill_device(session.device_id, "test kill")
            assert session.eval("x") == "7"
            assert server.stats.requests_replayed == 1

    def test_queued_tickets_survive_in_order(self):
        with failover_server() as server:
            session = server.open_session()
            session.eval("(setq n 0)")
            session.eval("(setq n (+ n 1))")
            tickets = [session.submit("(setq n (+ n 10))") for _ in range(3)]
            server.supervisor.kill_device(session.device_id, "queued kill")
            server.flush()
            assert [t.output for t in tickets] == ["11", "21", "31"]
            assert server.pending == 0

    def test_hang_is_counted_and_recovers(self):
        with failover_server() as server:
            session = server.open_session()
            session.eval("(setq x 3)")
            session.eval("(setq y 4)")
            server.supervisor.kill_device(
                session.device_id, "watchdog timeout", hang=True
            )
            assert session.eval("(+ x y)") == "7"
            assert server.stats.device_hangs == 1
            assert server.stats.devices_lost == 1

    def test_restore_charges_the_destination_link(self):
        with failover_server() as server:
            session = server.open_session()
            session.eval("(setq big (list 1 2 3 4 5 6 7 8))")
            session.eval("big")
            server.supervisor.kill_device(session.device_id, "test kill")
            session.eval("(car big)")
            assert server.stats.failover_restore_bytes > 0
            assert server.stats.failover_restore_ms > 0.0

    def test_stats_balance_holds_through_losses(self):
        with failover_server() as server:
            sessions = [server.open_session() for _ in range(4)]
            for i, s in enumerate(sessions):
                s.submit(f"(setq n {i})")
            server.flush()
            server.supervisor.kill_device(sessions[0].device_id, "kill")
            for s in sessions:
                s.submit("(setq n (+ n 1))")
            server.flush()
            st = server.stats
            assert server.pending == 0
            assert st.requests_enqueued == (
                st.requests_completed + st.requests_cancelled
            )


class TestInjectedDeviceLoss:
    """Satellite: ``(inject-fault "device-lost"/"device-hang")`` makes
    whole-device chaos scriptable from Lisp programs."""

    def test_injected_loss_triggers_failover_and_poisons_the_injector(self):
        with fault_failover_server(
            devices=[DEVICE],
            failover_config={"max_ticket_failovers": 2, "breaker_failures": 99},
        ) as server:
            injector = server.open_session("injector")
            bystander = server.open_session("bystander")
            bystander.submit("(setq safe 1)")
            bad = injector.submit('(inject-fault "device-lost")')
            ok = bystander.submit("(+ safe 41)")
            server.flush()
            assert server.pending == 0
            # The injector's request kills every device it runs on: after
            # the per-ticket failover cap it resolves as poisoned.
            assert isinstance(bad.error, DeviceLostError)
            assert ok.output == "42"
            assert server.stats.devices_lost >= 1
            assert server.stats.poisoned_requests == 1

    def test_injected_hang_counts_as_hang(self):
        with fault_failover_server(
            devices=[DEVICE],
            failover_config={"max_ticket_failovers": 1, "breaker_failures": 99},
        ) as server:
            session = server.open_session()
            ticket = session.submit('(inject-fault "device-hang")')
            server.flush()
            assert isinstance(ticket.error, DeviceLostError)
            assert server.stats.device_hangs >= 1

    def test_without_supervisor_loss_degrades_to_quarantine(self):
        """No failover configured: a device-loss error follows the old
        batch-fatal quarantine path and the server keeps serving."""
        opts = InterpreterOptions.fast(enable_fault_injection=True)
        with CuLiServer(
            devices=[DEVICE], gpu_config=GPUDeviceConfig(interpreter=opts)
        ) as server:
            session = server.open_session()
            other = server.open_session()
            bad = session.submit('(inject-fault "device-lost")')
            good = other.submit("(+ 1 2)")
            server.flush()
            assert server.pending == 0
            assert isinstance(bad.error, DeviceLostError)
            assert good.output == "3"
            assert server.stats.devices_lost == 0  # no supervisor counting
            assert other.eval("(+ 2 2)") == "4"


class TestCircuitBreakerUnit:
    def test_opens_after_k_failures_in_window(self):
        brk = CircuitBreaker(failures=2, window=4, cooldown=2)
        assert brk.record_failure(1) == BREAKER_CLOSED
        assert brk.record_failure(2) == BREAKER_OPEN
        assert brk.opens == 1

    def test_window_expiry_forgives_old_failures(self):
        brk = CircuitBreaker(failures=2, window=3, cooldown=1)
        brk.record_failure(1)
        assert brk.record_failure(10) == BREAKER_CLOSED  # round 1 aged out

    def test_cooldown_then_half_open_then_close(self):
        brk = CircuitBreaker(failures=1, window=4, cooldown=2)
        brk.record_failure(1)
        assert brk.state == BREAKER_OPEN
        brk.tick()
        assert brk.state == BREAKER_OPEN
        brk.tick()
        assert brk.state == BREAKER_HALF_OPEN
        brk.on_probe_success()
        assert brk.state == BREAKER_CLOSED
        assert brk.flaps == 0

    def test_half_open_failure_is_a_flap(self):
        brk = CircuitBreaker(failures=1, window=4, cooldown=1, max_flaps=2)
        brk.record_failure(1)
        brk.tick()
        assert brk.state == BREAKER_HALF_OPEN
        brk.record_failure(2)
        assert brk.state == BREAKER_OPEN
        assert brk.flaps == 1 and not brk.flapping
        brk.tick()
        brk.record_failure(3)
        assert brk.flapping

    def test_trip_forces_open(self):
        brk = CircuitBreaker(cooldown=1)
        brk.trip()
        assert brk.state == BREAKER_OPEN
        brk.trip()  # idempotent while not CLOSED
        assert brk.opens == 1


class TestBreakerIntegration:
    def test_repeated_losses_open_then_probe_closes(self):
        with failover_server(
            failover_config={
                "breaker_failures": 2,
                "breaker_window": 50,
                "cooldown_rounds": 1,
            }
        ) as server:
            a = server.open_session("a")  # -> #0
            b = server.open_session("b")  # -> #1
            a.eval("(setq x 1)")
            dev = a.device_id
            supervisor = server.supervisor
            supervisor.kill_device(dev, "first")
            assert supervisor.breaker(dev).state == BREAKER_CLOSED
            supervisor.kill_device(dev, "second")
            assert supervisor.breaker(dev).state == BREAKER_OPEN
            assert server.pool[dev].draining
            assert server.stats.breaker_opens == 1
            # Keep traffic flowing: cooldown ticks between rounds, the
            # half-open probe runs, and the device returns to service.
            for i in range(4):
                b.eval(f"(setq y {i})")
            assert supervisor.breaker(dev).state == BREAKER_CLOSED
            assert not server.pool[dev].draining
            assert server.stats.probes_ok >= 1
            assert a.eval("x") == "1"

    def test_flapping_device_is_evicted(self):
        with failover_server(
            failover_config={
                "breaker_failures": 1,
                "cooldown_rounds": 1,
                "max_flaps": 1,
            }
        ) as server:
            a = server.open_session("a")
            b = server.open_session("b")
            a.eval("(setq x 5)")
            dev = a.device_id
            server.supervisor.kill_device(dev, "first")
            assert server.pool[dev].draining
            # Sabotage the revived device so the half-open probe fails:
            # one flap at max_flaps=1 means permanent eviction.
            server.pool[dev].device.mark_lost("still broken")
            for i in range(4):
                b.eval(f"(setq y {i})")
            assert dev not in server.pool.devices
            assert server.stats.devices_evicted == 1
            # The fleet still serves, sessions intact on the survivor.
            assert a.eval("x") == "5"
            assert a.device_id != dev

    def test_loss_with_victims_does_not_evict(self):
        """A flapping device that dies with sessions resident stays in
        the pool while its victims are recovered; the next loss, with
        nobody resident, evicts it."""
        with failover_server(failover_config={"max_flaps": 1}) as server:
            a = server.open_session("a")
            server.open_session("b")
            a.eval("(setq x 5)")
            dev = a.device_id
            server.supervisor.breaker(dev).flaps = 1  # flapping for good
            server.supervisor.kill_device(dev, "dies with a resident")
            assert dev in server.pool.devices
            assert server.stats.devices_evicted == 0
            assert a.device_id != dev
            assert a.eval("x") == "5"
            server.supervisor.kill_device(dev, "dies empty")
            assert dev not in server.pool.devices
            assert server.stats.devices_evicted == 1

    def test_last_device_is_never_evicted(self):
        with failover_server(
            devices=[DEVICE],
            failover_config={
                "breaker_failures": 1,
                "cooldown_rounds": 1,
                "max_flaps": 1,
            },
        ) as server:
            session = server.open_session()
            session.eval("(setq x 1)")
            server.supervisor.kill_device(session.device_id, "kill")
            assert len(server.pool.devices) == 1
            assert session.eval("x") == "1"


class TestDrainingAutoRecovery:
    """Satellite (regression): a Rebalancer fault-drained device used to
    stay out of service until a manual ``reset_device`` call; the
    breaker's half-open probe now brings it back automatically."""

    def test_fault_drained_device_returns_via_probe(self):
        with fault_failover_server(
            rebalance=True,
            failover_config={"cooldown_rounds": 1},
        ) as server:
            faulty = server.open_session("faulty")   # -> #0
            steady = server.open_session("steady")   # -> #1
            dev = faulty.device_id
            # Three contained faults trip the rebalancer's drain policy.
            for _ in range(3):
                faulty.eval('(inject-fault "arena-exhausted")')
            assert server.pool[dev].draining
            assert server.stats.devices_drained == 1
            # No reset_device call: traffic alone must bring it back
            # (breaker trip -> cooldown -> probe -> close).
            for i in range(4):
                steady.eval(f"(setq y {i})")
            assert not server.pool[dev].draining
            assert server.supervisor.breaker(dev).state == BREAKER_CLOSED
            assert server.stats.probes_ok >= 1
            # Placement uses it again: a new session can land there.
            extra = server.open_session("extra")
            assert extra.device_id == dev

    def test_drained_device_stays_out_until_probe_passes(self):
        with fault_failover_server(
            rebalance=True,
            failover_config={"cooldown_rounds": 3},
        ) as server:
            faulty = server.open_session("faulty")
            steady = server.open_session("steady")
            dev = faulty.device_id
            for _ in range(3):
                faulty.eval('(inject-fault "arena-exhausted")')
            assert server.pool[dev].draining
            steady.eval("(setq y 0)")  # one round: still cooling down
            assert server.pool[dev].draining


class TestPostKillReleveling:
    """Failover dumps every victim on the survivors; the Rebalancer's
    session-leveling rule must spread them back across the revived
    device within its per-round move budget."""

    def test_sessions_re_level_after_a_kill(self):
        with failover_server(rebalance=True) as server:
            sessions = [server.open_session(f"t{i}") for i in range(4)]
            for i, s in enumerate(sessions):
                s.eval(f"(setq n {i})")
            victim_dev = sessions[0].device_id
            server.supervisor.kill_device(victim_dev, "kill")
            survivor = next(
                d for d in server.pool.devices if d != victim_dev
            )
            assert server.pool[survivor].session_count == 4
            # A couple of traffic rounds: leveling moves sessions back.
            for r in range(3):
                for s in sessions:
                    s.eval(f"(setq n (+ n {r}))")
            counts = sorted(
                p.session_count for p in server.pool.devices.values()
            )
            assert counts == [2, 2]
            assert server.stats.sessions_migrated >= 2

    def test_no_leveling_moves_on_an_even_pool(self):
        with failover_server(rebalance=True) as server:
            sessions = [server.open_session(f"t{i}") for i in range(4)]
            for r in range(3):
                for s in sessions:
                    s.eval(f"(setq x {r})")
            assert server.stats.sessions_migrated == 0


class TestCoTenantIsolation:
    def test_survivor_outputs_byte_identical_to_undisturbed_run(self):
        script = [
            "(defun g (x) (+ x 2))",
            "(setq acc (list 1 2 3))",
            "(g 40)",
            "(cons 0 acc)",
        ]

        def run(kill: bool) -> tuple[list[str], list[str]]:
            with failover_server() as server:
                a = server.open_session("a")  # -> #0 (killed)
                b = server.open_session("b")  # -> #1 (survivor)
                outs_a, outs_b = [], []
                for step, command in enumerate(script):
                    outs_a.append(a.eval(command))
                    outs_b.append(b.eval(command))
                    if kill and step == 1:
                        server.supervisor.kill_device(a.device_id, "mid-script")
                return outs_a, outs_b

        disturbed_a, disturbed_b = run(kill=True)
        quiet_a, quiet_b = run(kill=False)
        assert disturbed_b == quiet_b   # survivor: byte-identical
        assert disturbed_a == quiet_a   # victim: replay reconverges exactly

    def test_victim_history_has_no_replay_entries(self):
        """Replay re-executions are internal: the tenant's history shows
        each command exactly once."""
        with failover_server() as server:
            session = server.open_session()
            commands = [f"(setq x {i})" for i in range(5)]
            for command in commands:
                session.eval(command)
            server.supervisor.kill_device(session.device_id, "kill")
            session.eval("x")
            assert len(session.history) == 6  # 5 commands + final read


class TestAvailabilityStats:
    def test_snapshot_and_render_carry_the_failover_section(self):
        with failover_server() as server:
            session = server.open_session()
            session.eval("(setq x 1)")
            session.eval("(setq y 2)")
            server.supervisor.kill_device(session.device_id, "kill")
            session.eval("(+ x y)")
            snap = server.stats.snapshot()
            fo = snap["failover"]
            assert fo["devices_lost"] == 1
            assert fo["sessions_recovered"] == 1
            assert fo["rpo_max_rounds"] <= 2
            assert fo["checkpoints_shipped"] >= 1
            assert set(fo["breaker_states"]) == set(server.pool.devices)
            for d in snap["devices"].values():
                assert 0.0 <= d["uptime"] <= 1.0
            rendered = server.stats.render()
            assert "failover:" in rendered
            assert "sessions recovered" in rendered
            assert "breaker" in rendered
            assert "up " in rendered

    def test_uptime_dips_while_breaker_open(self):
        with failover_server(
            failover_config={"breaker_failures": 1, "cooldown_rounds": 2}
        ) as server:
            a = server.open_session("a")
            b = server.open_session("b")
            a.eval("(setq x 1)")
            dev = a.device_id
            server.supervisor.kill_device(dev, "kill")  # opens immediately
            for i in range(6):
                b.eval(f"(setq y {i})")
            dstats = server.stats.per_device[dev]
            assert dstats.rounds_total > 0
            assert dstats.uptime < 1.0
            assert dstats.losses == 1
