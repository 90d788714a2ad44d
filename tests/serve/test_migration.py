"""Live session migration: correctness, isolation, fault-drain, and
whole-fleet persistence.

The differential core: migrating a session between devices must be
invisible in every tenant's outputs — the migrated session *and* the
co-tenants on both the source and the destination device stay
byte-identical to solo runs — and must leave no heap behind on the
source arena. The rebalancer's fault-drain policy evacuates a device
hitting repeated containable faults, and ``CuLiServer.save``/``restore``
carry the whole fleet's tenant state across a server restart.
"""

from __future__ import annotations

import json

import pytest

from repro.core.interpreter import InterpreterOptions
from repro.cpu.device import CPUDeviceConfig
from repro.errors import ArenaExhaustedError
from repro.gpu.device import GPUDeviceConfig
from repro.serve import CuLiServer, Rebalancer
from repro.serve.traces import solo_outputs

DEVICE = "gtx1080"


def session_script(tag: str) -> list[str]:
    return [
        f"(defun f-{tag} (x) (+ x {len(tag)}))",
        f"(setq state-{tag} (list 1 2 {len(tag)}))",
        f"(f-{tag} 10)",
        f"(cons 0 state-{tag})",
    ]


class TestExplicitMigration:
    def test_migrated_session_continues_correctly(self):
        with CuLiServer(devices=[DEVICE, DEVICE]) as server:
            session = server.open_session()
            session.eval("(defun inc (x) (+ x 1))")
            source = session.device_id
            record = session.migrate()
            assert record.source == source
            assert record.dest == session.device_id != source
            assert record.nodes > 0 and record.nbytes > 0
            assert session.eval("(inc 41)") == "42"

    @pytest.mark.parametrize("gc_policy", ["generational"])
    def test_co_tenants_byte_identical_to_solo_runs(self, gc_policy):
        """Tenants on the source and the destination device observe the
        same bytes before and after a migration as they would alone."""
        scripts = {tag: session_script(tag) for tag in ("aa", "bbb", "cccc")}
        outputs = {tag: [] for tag in scripts}
        with CuLiServer(devices=[DEVICE, DEVICE]) as server:
            # Deterministic placement: aa -> #0, bbb -> #1, cccc -> #0.
            sessions = {tag: server.open_session(tag) for tag in scripts}
            for step in range(2):  # first half of each script
                for tag, session in sessions.items():
                    outputs[tag].append(session.eval(scripts[tag][step]))
            migrated = sessions["aa"]
            peer = sessions["bbb"]
            dest = server.pool[peer.device_id].device
            assert dest.interp.options.gc_policy == gc_policy
            record = migrated.migrate(peer.device_id)
            assert migrated.device_id == peer.device_id
            for step in range(2, 4):  # second half, post-migration
                for tag, session in sessions.items():
                    outputs[tag].append(session.eval(scripts[tag][step]))
        for tag, script in scripts.items():
            assert outputs[tag] == solo_outputs(script), tag

    def test_queued_tickets_travel_with_the_session(self):
        with CuLiServer(devices=[DEVICE, DEVICE]) as server:
            session = server.open_session()
            session.submit("(defun add2 (x) (+ x 2))")
            t1 = session.submit("(add2 1)")
            t2 = session.submit("(add2 2)")
            source = server.pool[session.device_id]
            session.migrate()
            dest = server.pool[session.device_id]
            assert source.queue_depth == 0
            assert dest.queue_depth == 3  # submission order preserved
            server.flush()
            assert t1.output == "3" and t2.output == "4"
            assert server.stats.per_device[dest.device_id].requests == 3
            assert server.stats.per_device[source.device_id].requests == 0

    @pytest.mark.parametrize("gc_policy", ["generational"])
    def test_source_arena_fully_reclaimed(self, gc_policy):
        """No arena leak: after a session migrates away, the source
        device's nursery *and* tenured nodes for it are all freed."""
        with CuLiServer(devices=[DEVICE, DEVICE]) as server:
            source = server.pool[f"{DEVICE}#0"]
            assert source.device.interp.options.gc_policy == gc_policy
            baseline = source.device.interp.arena.used
            session = server.open_session()
            assert session.device_id == source.device_id
            for command in session_script("leaky"):
                session.eval(command)
            assert source.device.interp.arena.used > baseline
            session.migrate()
            assert source.device.interp.arena.used == baseline
            assert session.eval("(f-leaky 1)") == "6"

    def test_explicit_target_and_bad_targets(self):
        with CuLiServer(devices=[DEVICE, DEVICE]) as server:
            session = server.open_session()
            here = session.device_id
            with pytest.raises(ValueError):
                session.migrate(here)
            other = next(
                device_id for device_id in server.pool.devices if device_id != here
            )
            record = session.migrate(other)
            assert record.dest == other == session.device_id

    def test_closed_session_cannot_migrate(self):
        with CuLiServer(devices=[DEVICE, DEVICE]) as server:
            session = server.open_session()
            session.close()
            with pytest.raises(RuntimeError):
                session.migrate()

    def test_single_device_pool_refuses_self_migration(self):
        """With nowhere else to go, the default-placement path must
        refuse (like the explicit path), not silently self-migrate and
        charge phantom transfer."""
        with CuLiServer(devices=[DEVICE]) as server:
            session = server.open_session()
            session.eval("(setq v 1)")
            with pytest.raises(ValueError):
                session.migrate()
            assert server.stats.sessions_migrated == 0
            assert server.pool[session.device_id].session_count == 1
            assert session.eval("v") == "1"

    def test_failed_restore_leaves_source_intact(self):
        """An arena-exhausted destination aborts the migration with the
        session still healthy (and still placed) on its source."""
        opts = InterpreterOptions.fast(arena_capacity=2000)
        with CuLiServer(
            devices=[DEVICE, DEVICE],
            gpu_config=GPUDeviceConfig(interpreter=opts),
            cpu_config=CPUDeviceConfig(interpreter=opts),
        ) as server:
            hog = server.open_session("hog")        # -> #0
            mover = server.open_session("mover")    # -> #1
            # Retained state accumulates over several commands (a single
            # command large enough to fill the arena would exhaust it
            # during its own evaluation and roll back instead).
            for k in range(2):
                mover.eval(f"(setq keep-{k} (list " + "7 " * 350 + "))")
            for k in range(4):
                hog.eval(f"(setq fat-{k} (list " + "1 " * 350 + "))")
            source = mover.device_id
            sessions_before = server.pool[hog.device_id].session_count
            with pytest.raises(ArenaExhaustedError):
                mover.migrate(hog.device_id)
            assert mover.device_id == source
            assert server.pool[hog.device_id].session_count == sessions_before
            assert mover.eval("(length keep-0)") == "350"


class TestFaultDrain:
    """A device hitting repeated containable faults gets drained: its
    sessions migrate off and the queue ends empty."""

    def make_server(self, **kwargs):
        opts = InterpreterOptions.fast(enable_fault_injection=True)
        kwargs.setdefault("devices", [DEVICE, DEVICE])
        kwargs.setdefault("rebalance", True)
        return CuLiServer(
            gpu_config=GPUDeviceConfig(interpreter=opts),
            cpu_config=CPUDeviceConfig(interpreter=opts),
            **kwargs,
        )

    def test_faulty_device_drained_and_evacuated(self):
        with self.make_server() as server:
            faulty = server.open_session("faulty")   # -> #0
            bystander = server.open_session("by")    # -> #1
            victim = server.open_session("victim")   # -> #0
            source = faulty.device_id
            for _ in range(3):
                faulty.submit('(inject-fault "arena-exhausted")')
            kept = victim.submit("(+ 40 2)")
            server.flush()
            assert server.pending == 0
            assert kept.ok and kept.output == "42"
            snap = server.stats.snapshot()
            assert snap["faults"]["contained"] == 3
            assert snap["rebalance"]["devices_drained"] == 1
            assert snap["rebalance"]["migrations"] >= 2
            assert server.pool[source].draining
            # Everyone evacuated the drained device...
            assert faulty.device_id != source
            assert victim.device_id != source
            assert victim.eval("(* 6 7)") == "42"
            assert bystander.eval("(+ 1 1)") == "2"
            # ...and new sessions avoid it too.
            assert server.open_session().device_id != source

    def test_reset_device_returns_drained_device_to_service(self):
        """The operator hook: after the fault source is gone, resetting
        the device clears draining and forgives its recorded faults."""
        with self.make_server() as server:
            faulty = server.open_session("faulty")
            source = faulty.device_id
            for _ in range(3):
                faulty.submit('(inject-fault "livelock")')
            server.flush()
            assert server.pool[source].draining
            faulty.close()
            server.rebalancer.reset_device(source)
            assert not server.pool[source].draining
            # New placements use it again, and the forgiven faults do
            # not immediately re-drain it.
            assert any(
                server.open_session().device_id == source for _ in range(2)
            )
            server.flush()
            assert not server.pool[source].draining

    def test_balanced_pool_never_migrates(self):
        """The rebalancer is a no-op while the pool stays healthy and
        balanced — no migrations, no draining, no modeled cost."""
        with self.make_server() as server:
            sessions = [server.open_session() for _ in range(4)]
            for i, session in enumerate(sessions):
                session.submit(f"(+ {i} 1)")
            server.flush()
            snap = server.stats.snapshot()
            assert snap["rebalance"]["migrations"] == 0
            assert snap["rebalance"]["devices_drained"] == 0
            assert snap["rebalance"]["transfer_ms"] == 0.0

    def test_overload_shedding_levels_queues(self):
        """A deeply skewed queue triggers mid-drain migrations toward
        the idle device (the bench asserts the throughput win; this
        asserts the mechanism)."""
        with self.make_server(max_batch=8) as server:
            heavy = [server.open_session(f"h{i}") for i in (0, 1)]
            # Both heavy sessions land on #0 and #1; skew by queue depth.
            for session in heavy:
                for k in range(6):
                    session.submit(f"(+ {k} 1)")
            # Force the skew onto one device: move h1 next to h0 first.
            if heavy[1].device_id != heavy[0].device_id:
                server.migrate_session(heavy[1], heavy[0].device_id)
            migrations_before = server.stats.sessions_migrated
            server.flush()
            assert server.pending == 0
            assert server.stats.sessions_migrated > migrations_before
            for session in heavy:
                assert all(stats.output for stats in session.history)


class TestChainShedding:
    """A batch takes one ticket per session, so one session's chain of
    ``k`` queued tickets drains in ``k`` batches, each paying the
    device's fixed per-batch cost. The rebalancer prices queues by that
    drain and sheds such a chain to the device where it finishes first,
    but never to an equal device, where it would drain just as long."""

    CHAIN = 200

    def run_chain(self, devices, rebalance, loaded_sessions=0):
        """The chain on the first device; ``loaded_sessions`` sessions
        queue 30 cheap tickets each on the second. Returns (makespan ms,
        the chain's outputs and final device, migrations)."""
        with CuLiServer(
            devices=devices, rebalance=rebalance, max_session_queue=256
        ) as server:
            first, second = server.pool.devices
            chain = server.open_session("chain", device_id=first)
            others = [
                server.open_session(f"o{i}", device_id=second)
                for i in range(loaded_sessions)
            ]
            tickets = [chain.submit(f"(+ {k} 1)") for k in range(self.CHAIN)]
            for j in range(30):
                for other in others:
                    other.submit(f"(* {j} 2)")
            server.flush()
            assert server.pending == 0
            return (
                server.scheduler.makespan_ms,
                [t.output for t in tickets],
                chain.device_id,
                server.stats.sessions_migrated,
            )

    def test_chain_sheds_from_a_gpu_to_a_loaded_xeon(self):
        """The Xeon holds 9,000 queued tickets: counted at the amortized
        probe cost they look like half the GPU chain's, yet they drain
        in about a millisecond while the chain takes 200 GPU batches."""
        devices = ["gtx1080", "intel-e5-2620"]
        static_ms, _, _, _ = self.run_chain(devices, False, 300)
        shed_ms, outputs, device_id, moves = self.run_chain(devices, True, 300)
        assert moves == 1
        assert device_id == "intel-e5-2620#1"
        assert static_ms >= 3 * shed_ms
        commands = [f"(+ {k} 1)" for k in range(self.CHAIN)]
        assert outputs == solo_outputs(commands)

    def test_chain_stays_on_an_equal_device(self):
        """On two GTX 1080s with nothing else queued the chain would
        drain in as many batches after a move, plus the move."""
        static_ms, _, _, _ = self.run_chain([DEVICE, DEVICE], False)
        shed_ms, _, device_id, moves = self.run_chain([DEVICE, DEVICE], True)
        assert (moves, device_id) == (0, "gtx1080#0")
        assert shed_ms == static_ms


class TestSaveRestore:
    def test_fleet_round_trips_through_json(self):
        scripts = {tag: session_script(tag) for tag in ("x", "yy")}
        with CuLiServer(devices=[DEVICE, DEVICE]) as server:
            for tag, script in scripts.items():
                session = server.open_session(tag)
                for command in script:
                    session.eval(command)
            saved = json.loads(json.dumps(server.save()))
        with CuLiServer(devices=[DEVICE, DEVICE]) as revived:
            restored = revived.restore(saved)
            assert sorted(restored) == ["x", "yy"]
            assert revived.stats.sessions_restored == 2
            assert restored["x"].eval("(f-x 10)") == "11"
            assert restored["yy"].eval("(cons 9 state-yy)") == "(9 1 2 2)"
            # Two sessions spread over both devices on restore.
            assert len({s.device_id for s in restored.values()}) == 2

    def test_save_flushes_pending_requests(self):
        with CuLiServer(devices=[DEVICE]) as server:
            session = server.open_session()
            ticket = session.submit("(setq n 5)")
            saved = server.save()
            assert ticket.done and server.pending == 0
            assert len(saved["sessions"]) == 1

    def test_bulk_carriers_are_not_saved(self):
        """Internal bulk-carrier sessions are not tenants: a restored
        fleet holds only the real tenants, so carriers never weigh on
        placement as phantom residents."""
        with CuLiServer(devices=[DEVICE, DEVICE]) as server:
            server.gpu_map("(lambda (x) (* x x))", [1, 2, 3, 4])
            tenant = server.open_session("tenant")
            tenant.eval("(setq v 7)")
            saved = server.save()
        assert [e["session_id"] for e in saved["sessions"]] == ["tenant"]
        with CuLiServer(devices=[DEVICE, DEVICE]) as revived:
            restored = revived.restore(saved)
            assert sorted(restored) == ["tenant"]
            assert restored["tenant"].eval("v") == "7"
            assert sum(
                d.session_count for d in revived.pool.devices.values()
            ) == 1

    def test_restore_keeps_the_slo(self):
        """A tenant saved with an SLO comes back with it (and so keeps
        its EDF priority); a payload without the field restores one
        with no SLO."""
        with CuLiServer(devices=[DEVICE]) as server:
            server.open_session("fast", slo_ms=0.5).eval("(setq v 1)")
            server.open_session("bulk-tenant").eval("(setq v 2)")
            saved = json.loads(json.dumps(server.save()))
        with CuLiServer(devices=[DEVICE]) as revived:
            restored = revived.restore(saved)
            assert restored["fast"].slo_ms == 0.5
            assert restored["bulk-tenant"].slo_ms is None
        for entry in saved["sessions"]:
            del entry["slo_ms"]
        with CuLiServer(devices=[DEVICE]) as revived:
            restored = revived.restore(saved)
            assert restored["fast"].slo_ms is None

    def test_restore_targets_the_emptiest_arena(self):
        """The placement satellite end to end: with equal session
        counts, a restored heap lands on the device retaining the
        fewest tenured nodes."""
        with CuLiServer(devices=[DEVICE]) as donor:
            session = donor.open_session("mover")
            session.eval("(setq keep (list 1 2 3))")
            saved = donor.save()
        with CuLiServer(devices=[DEVICE, DEVICE]) as target:
            fat = target.open_session("fat")       # -> #0
            slim = target.open_session("slim")     # -> #1
            fat.eval("(setq big (list " + "1 " * 300 + "))")
            slim.eval("(setq small 1)")
            restored = target.restore(saved)
            assert restored["mover"].device_id == slim.device_id
            assert restored["mover"].eval("(length keep)") == "3"

    def test_restore_duplicate_session_id_rejected(self):
        with CuLiServer(devices=[DEVICE]) as server:
            session = server.open_session("dup")
            session.eval("(setq v 1)")
            saved = server.save()
            with pytest.raises(ValueError):
                server.restore(saved)

    def test_restore_rejects_unknown_fleet_version(self):
        from repro.errors import SnapshotError

        with CuLiServer(devices=[DEVICE]) as server:
            with pytest.raises(SnapshotError):
                server.restore({"version": 2, "sessions": []})
            with pytest.raises(SnapshotError):
                server.restore({})

    def test_failed_restore_rolls_back_and_is_retryable(self):
        """A mid-restore failure closes the sessions restored so far, so
        the same payload restores cleanly on a roomier server."""
        with CuLiServer(devices=[DEVICE]) as donor:
            for tag in ("one", "two", "three"):
                session = donor.open_session(tag)
                session.eval(f"(setq keep-{tag} (list " + "1 " * 150 + "))")
            saved = donor.save()
        small = InterpreterOptions.fast(arena_capacity=450)
        with CuLiServer(
            devices=[DEVICE],
            gpu_config=GPUDeviceConfig(interpreter=small),
            cpu_config=CPUDeviceConfig(interpreter=small),
        ) as cramped:
            with pytest.raises(ArenaExhaustedError):
                cramped.restore(saved)
            assert cramped.sessions == {}
            assert cramped.stats.sessions_restored == 0
            assert all(
                d.session_count == 0 for d in cramped.pool.devices.values()
            )
        with CuLiServer(devices=[DEVICE, DEVICE]) as roomy:
            restored = roomy.restore(saved)
            assert sorted(restored) == ["one", "three", "two"]
            assert restored["two"].eval("(length keep-two)") == "150"


class TestMigrationStats:
    def test_transfer_charged_on_both_gpu_links(self):
        with CuLiServer(devices=[DEVICE, DEVICE]) as server:
            session = server.open_session()
            session.eval("(setq v (list 1 2 3 4))")
            transfer_before = server.stats.phase_totals.transfer_ms
            record = session.migrate()
            assert record.transfer_ms > 0.0
            stats = server.stats
            assert stats.sessions_migrated == 1
            assert stats.migration_nodes == record.nodes
            assert stats.migration_bytes == record.nbytes
            assert stats.migration_transfer_ms == pytest.approx(record.transfer_ms)
            assert stats.phase_totals.transfer_ms == pytest.approx(
                transfer_before + record.transfer_ms
            )
            assert stats.per_device[record.source].migrations_out == 1
            assert stats.per_device[record.dest].migrations_in == 1
            assert "1 migrations" in stats.render()

    def test_cpu_links_are_free(self):
        """CPU devices share memory with the host: their side of a
        migration costs no transfer time, like their command uploads."""
        with CuLiServer(devices=["intel", "intel"]) as server:
            session = server.open_session()
            session.eval("(setq v 1)")
            record = session.migrate()
            assert record.transfer_ms == 0.0
