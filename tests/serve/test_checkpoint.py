"""CheckpointStore: interval checkpoints, digest skipping, the suffix
log, and checkpoint-restore atomicity under arena exhaustion.

The atomicity suite is the satellite the failover tentpole leans on: a
mid-restore ``ArenaExhaustedError`` on a recovery target must leave that
device's arena exactly as it was (no half-installed bindings, no leaked
nodes) and the recovery must retry on another device — under both
``gc_policy`` modes, literal included.
"""

from __future__ import annotations

import pytest

from repro.core.interpreter import InterpreterOptions
from repro.cpu.device import CPUDeviceConfig
from repro.gpu.device import GPUDeviceConfig
from repro.serve import CheckpointStore, CuLiServer

DEVICE = "gtx1080"


class TestCheckpointStoreUnit:
    def test_interval_validation(self):
        with pytest.raises(ValueError):
            CheckpointStore(interval=0)

    def test_suffix_log_and_due(self):
        store = CheckpointStore(interval=3)
        store.register("s")
        assert store.suffix("s") == []
        assert store.due_on("d0") == []
        store.record_completed("s", "(+ 1 1)", "d0")
        store.record_completed("s", "(+ 2 2)", "d0")
        assert len(store.suffix("s")) == 2
        assert store.due_on("d0") == []
        store.record_completed("s", "(+ 3 3)", "d0")
        assert store.due_on("d0") == ["s"]
        assert store.suffix("s") == ["(+ 1 1)", "(+ 2 2)", "(+ 3 3)"]

    def test_drop_forgets_everything(self):
        store = CheckpointStore(interval=1)
        store.register("s")
        store.record_completed("s", "x", "d0")
        store.drop("s")
        assert not store.tracked("s")
        assert store.get("s") is None
        assert store.suffix("s") == []

    def test_due_index_follows_the_interval_and_the_device(self):
        """A session is indexed as due on its device when its log
        reaches the interval; a move carries the entry, and a checkpoint,
        a recovery or a drop removes it."""
        store = CheckpointStore(interval=2)
        for sid in ("s", "t"):
            store.register(sid)
            store.record_completed(sid, "(+ 1 1)", "d0")
        assert store.due_on("d0") == []
        store.record_completed("t", "(+ 2 2)", "d0")
        store.record_completed("s", "(+ 2 2)", "d0")
        assert store.due_on("d0") == ["t", "s"]  # in the order they fell due
        store.move("s", "d1")
        store.move("u", "d1")  # not due: nothing to move
        assert store.due_on("d0") == ["t"] and store.due_on("d1") == ["s"]
        store.on_recovered("t")
        store.drop("s")
        assert store.due_on("d0") == [] and store.due_on("d1") == []

    def test_checkpoint_ships_then_skips_when_unchanged(self):
        """Two checkpoints of an unchanged heap: the second digest
        matches, nothing re-ships, but the suffix still resets."""
        with CuLiServer(devices=[DEVICE]) as server:
            session = server.open_session()
            session.eval("(setq x (list 1 2 3))")
            store = CheckpointStore(interval=1)
            store.register(session.session_id)
            store.record_completed(session.session_id, "(setq x (list 1 2 3))", "d0")
            snap1, shipped1 = store.checkpoint(session)
            assert shipped1 and snap1.nbytes > 0
            assert store.get(session.session_id) is snap1
            assert store.suffix(session.session_id) == []
            # A pure read leaves the persistent heap untouched.
            session.eval("(car x)")
            store.record_completed(session.session_id, "(car x)", "d0")
            _, shipped2 = store.checkpoint(session)
            assert not shipped2
            assert store.get(session.session_id) is snap1
            assert store.suffix(session.session_id) == []
            # A write changes the digest: the next checkpoint ships.
            session.eval("(setq x (list 9))")
            store.record_completed(session.session_id, "(setq x (list 9))", "d0")
            snap3, shipped3 = store.checkpoint(session)
            assert shipped3
            assert store.get(session.session_id) is snap3


class TestIntervalCheckpointing:
    def test_due_checkpoint_moves_with_a_migrated_session(self):
        """A session that fell due and then migrated is checkpointed at
        its new device's safe point, on that device's link."""
        with CuLiServer(
            devices=[DEVICE, DEVICE], failover=True, checkpoint_interval=2
        ) as server:
            store = server.supervisor.store
            a = server.open_session(device_id="gtx1080#0")
            a.eval("(setq x (list 1 2))")
            # The second completed command fills the interval, as its
            # ticket would have on device #0.
            store.record_completed(a.session_id, "(car x)", a.device_id)
            assert store.due_on("gtx1080#0") == [a.session_id]
            server.migrate_session(a, "gtx1080#1")
            assert store.due_on("gtx1080#0") == []
            assert store.due_on("gtx1080#1") == [a.session_id]
            busy1 = server.stats.per_device["gtx1080#1"].busy_ms
            # Any batch ends in a sweep of safe points.
            server.open_session(device_id="gtx1080#0").eval("(+ 1 2)")
            assert store.due_on("gtx1080#1") == []
            assert store.suffix(a.session_id) == []
            assert server.stats.checkpoints_shipped == 1
            assert server.stats.per_device["gtx1080#1"].busy_ms > busy1
            assert server.supervisor.sessions_checked == 1

    def test_checkpoints_fire_every_interval(self):
        with CuLiServer(
            devices=[DEVICE], failover=True, checkpoint_interval=3
        ) as server:
            session = server.open_session()
            for i in range(9):
                session.eval(f"(setq x {i})")
            failover = server.stats.snapshot()["failover"]
            assert (
                failover["checkpoints_shipped"]
                + failover["checkpoints_skipped"]
                == 3
            )
            assert server.supervisor.store.suffix(session.session_id) == []

    def test_checkpoint_charges_the_gpu_link(self):
        """A shipped checkpoint's bytes are modeled device->host transfer
        (the clean-path overhead the failover bench bounds)."""
        with CuLiServer(
            devices=[DEVICE], failover=True, checkpoint_interval=1
        ) as server:
            session = server.open_session()
            session.eval("(setq x (list 1 2 3 4 5))")
            assert server.stats.checkpoints_shipped >= 1
            assert server.stats.checkpoint_bytes > 0
            assert server.stats.checkpoint_transfer_ms > 0.0

    def test_digest_skip_charges_nothing(self):
        """Read-only rounds between checkpoints re-ship nothing."""
        with CuLiServer(
            devices=[DEVICE], failover=True, checkpoint_interval=1
        ) as server:
            session = server.open_session()
            session.eval("(setq x 1)")
            shipped_before = server.stats.checkpoints_shipped
            bytes_before = server.stats.checkpoint_bytes
            session.eval("x")
            session.eval("(+ x 1)")
            assert server.stats.checkpoints_shipped == shipped_before
            assert server.stats.checkpoint_bytes == bytes_before
            assert server.stats.checkpoints_skipped >= 2

    def test_cpu_link_checkpoints_are_free(self):
        """CPU devices share memory with the host: shipping charges 0 ms
        (same rule as migrations and command transfers)."""
        with CuLiServer(
            devices=["intel-e5-2620"], failover=True, checkpoint_interval=1
        ) as server:
            session = server.open_session()
            session.eval("(setq x (list 1 2 3))")
            assert server.stats.checkpoints_shipped >= 1
            assert server.stats.checkpoint_transfer_ms == 0.0

    def test_device_fault_commands_stay_out_of_the_suffix(self):
        """A contained fault rolled its job's nursery back — there is no
        state to reproduce, so the command must not be replayed (an
        injected device-killer in the log would re-kill every recovery
        target it replays on)."""
        opts = InterpreterOptions.fast(enable_fault_injection=True)
        with CuLiServer(
            devices=[DEVICE],
            gpu_config=GPUDeviceConfig(interpreter=opts),
            cpu_config=CPUDeviceConfig(interpreter=opts),
            failover=True,
            checkpoint_interval=10,
        ) as server:
            session = server.open_session()
            session.eval("(setq x 1)")
            session.eval('(inject-fault "arena-exhausted")')
            # A Lisp-level error *does* replay: partial effects persist.
            session.eval("(car 5)")
            suffix = server.supervisor.store.suffix(session.session_id)
            assert "(setq x 1)" in suffix
            assert '(inject-fault "arena-exhausted")' not in suffix
            assert "(car 5)" in suffix


def _atomicity_server(gc_policy: str) -> CuLiServer:
    """Two devices with cramped arenas; ``gc_policy='literal'`` builds
    the paper-literal interpreter (explicit default options)."""
    capacity = 700
    if gc_policy == "literal":
        opts = InterpreterOptions(arena_capacity=capacity)
    else:
        opts = InterpreterOptions.fast(
            gc_policy=gc_policy, arena_capacity=capacity
        )
    return CuLiServer(
        devices=[DEVICE, DEVICE],
        gpu_config=GPUDeviceConfig(interpreter=opts),
        cpu_config=CPUDeviceConfig(interpreter=opts),
        failover=True,
        checkpoint_interval=1,
        failover_config={"breaker_failures": 99},
    )


def _chunk(name: str, k: int = 100) -> str:
    return f"(setq {name} (list " + " ".join(str(i) for i in range(k)) + "))"


def _fill(victim, hoarder) -> None:
    """~200 retained nodes on the victim, ~400 on the hoarder: the
    hoarder's device then has too little arena headroom to also hold the
    victim's restored checkpoint, but plenty for its own evals."""
    victim.eval(_chunk("big1"))
    victim.eval(_chunk("big2"))
    for name in ("h1", "h2", "h3", "h4"):
        hoarder.eval(_chunk(name))


class TestRestoreAtomicity:
    """Mid-restore arena exhaustion on the recovery target: the target
    stays clean, the session retries on another device, co-tenants on
    the full device keep their state byte-for-byte."""

    @pytest.mark.parametrize("gc_policy", ["generational", "literal"])
    def test_exhausted_target_is_left_clean_and_recovery_retries(
        self, gc_policy
    ):
        with _atomicity_server(gc_policy) as server:
            victim = server.open_session("victim")    # -> #0
            hoarder = server.open_session("hoarder")  # -> #1
            _fill(victim, hoarder)
            full_pdev = server.pool[hoarder.device_id]
            assert full_pdev.device_id != victim.device_id
            used_before = full_pdev.device.interp.arena.used
            server.supervisor.kill_device(victim.device_id, "test kill")
            # Recovery tried the surviving (full) device first, hit
            # ArenaExhaustedError mid-restore, cleaned up, and fell back
            # to the freshly revived device's empty arena.
            assert victim.session_id in server.sessions
            assert victim.device_id != full_pdev.device_id
            assert victim.eval("(car big1)") == "0"
            assert victim.eval("(length big2)") == "100"
            # Atomicity: the full device's arena holds exactly what it
            # held before the failed attempt — no orphans, no bindings.
            full_pdev.device.interp.collect_major()
            assert full_pdev.device.interp.arena.used == used_before
            # ... and the hoarder never noticed.
            assert hoarder.eval("(car h4)") == "0"

    @pytest.mark.parametrize("gc_policy", ["generational", "literal"])
    def test_co_tenant_state_identical_after_failed_attempt(self, gc_policy):
        """The co-tenant on the exhausted target answers the same bytes
        after the failed restore as a run where no loss ever happened."""
        script = ["(car h1)", "(length h2)", "(setq tail (cdr h3))", "(car tail)"]
        with _atomicity_server(gc_policy) as server:
            victim = server.open_session("victim")
            hoarder = server.open_session("hoarder")
            _fill(victim, hoarder)
            server.supervisor.kill_device(victim.device_id, "test kill")
            disturbed = [hoarder.eval(c) for c in script]
        with _atomicity_server(gc_policy) as server:
            quiet_victim = server.open_session("victim")
            quiet = server.open_session("hoarder")
            _fill(quiet_victim, quiet)
            undisturbed = [quiet.eval(c) for c in script]
        assert disturbed == undisturbed
