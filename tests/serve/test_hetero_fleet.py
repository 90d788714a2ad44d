"""Heterogeneous fleets: capability calibration, cost-aware placement,
per-device configs, cross-kind migration, and modeled-time rebalancing.

The tentpole contract: load is accounted in modeled milliseconds, so a
Tesla V100, a GTX 480, and a Xeon can shard one pool without the
policies treating their queues as equal.
"""

from __future__ import annotations

import pytest

from repro.core.interpreter import InterpreterOptions
from repro.core.nodes import NODE_BYTES
from repro.cpu.device import CPUDeviceConfig
from repro.gpu.device import GPUDeviceConfig
from repro.serve import (
    CuLiServer,
    PROBE_FORMS,
    DevicePool,
    batch_cost_ms,
    capability_probe_ms,
    capability_score,
    generate_trace,
    restore_ms_per_byte,
)

MIXED = ["gtx1080", "tesla-v100", "intel-e5-2620"]


class TestCapabilityCalibration:
    def test_probe_is_deterministic_and_cached(self):
        first = capability_probe_ms("gtx1080")
        assert first == capability_probe_ms("gtx1080")
        assert first > 0.0

    def test_registry_ordering_matches_the_model(self):
        """The calibrated ordering the specs docstring documents:
        CPUs beat every GPU on single-command interactive work (the
        paper's CPU-vs-GPU result), V100 beats the GTX 1080, and the
        small-but-high-clocked GTX 480 beats them all among GPUs."""
        ms = {
            name: capability_probe_ms(name)
            for name in (
                "gtx480", "gtx680", "gtx1080", "tesla-m40",
                "tesla-v100", "intel-e5-2620", "amd-6272",
            )
        }
        assert ms["intel-e5-2620"] < ms["amd-6272"] < ms["gtx480"]
        assert ms["gtx480"] < ms["tesla-v100"] < ms["gtx680"]
        assert ms["gtx680"] < ms["gtx1080"] < ms["tesla-m40"]

    def test_score_is_relative_to_gtx1080(self):
        assert capability_score("gtx1080") == pytest.approx(1.0)
        assert capability_score("tesla-v100") > 1.0
        assert capability_score("tesla-m40") < 1.0
        assert capability_score("intel-e5-2620") > 50.0

    def test_two_point_fit_spans_the_probe_batch(self):
        """``batch_cost_ms`` splits the probe: the fit's 16-request batch
        is the probe batch, both parts are positive, and the V100 pays
        the heaviest fixed cost per batch of the three."""
        fits = {name: batch_cost_ms(name) for name in MIXED}
        for name, (batch_ms, request_ms) in fits.items():
            assert batch_ms > 0.0 and request_ms > 0.0
            n = len(PROBE_FORMS)
            assert batch_ms + n * request_ms == pytest.approx(
                n * capability_probe_ms(name)
            )
        assert fits["tesla-v100"][0] > fits["gtx1080"][0] > fits["intel-e5-2620"][0]
        pool = DevicePool(MIXED)
        try:
            for pdev in pool.devices.values():
                assert (pdev.batch_ms, pdev.request_ms) == fits[pdev.name]
        finally:
            pool.close()

    def test_pooled_device_carries_capability(self):
        pool = DevicePool(MIXED)
        try:
            by_name = {d.name: d for d in pool.devices.values()}
            assert by_name["tesla-v100"].probe_ms == capability_probe_ms(
                "tesla-v100"
            )
            assert by_name["intel-e5-2620"].capability > by_name[
                "tesla-v100"
            ].capability > by_name["gtx1080"].capability
        finally:
            pool.close()


class TestCostPlacement:
    def test_empty_fleet_fills_fastest_first(self):
        pool = DevicePool(MIXED)
        try:
            assert pool.place_session().name == "intel-e5-2620"
        finally:
            pool.close()

    def test_sessions_balance_by_backlog_not_count(self):
        """On gtx1080 + Xeon the modeled-time equilibrium parks almost
        every idle session on the ~88x-faster CPU: the GPU's one-session
        demand already outweighs dozens of CPU sessions."""
        with CuLiServer(devices=["gtx1080", "intel-e5-2620"]) as server:
            sessions = [server.open_session() for _ in range(12)]
            on_cpu = sum(
                1 for s in sessions if s.device_id.startswith("intel")
            )
            assert on_cpu >= 10
            # ...but never starves the GPU entirely: an idle device has
            # zero backlog, so it still absorbs a session.
            assert on_cpu < 12

    def test_unknown_placement_rejected(self):
        for placement in ("weird", "count"):
            with pytest.raises(ValueError, match="placement"):
                CuLiServer(devices=["gtx1080"], placement=placement)

    def test_incoming_snapshot_bytes_weigh_the_pcie_leg(self):
        """A restore arriving with a fat heap prefers the free CPU link
        over an otherwise-equal PCIe device."""
        pool = DevicePool(["gtx1080", "intel-e5-2620"])
        try:
            devices = list(pool.devices.values())
            gpu = next(d for d in devices if d.kind == "gpu")
            cpu = next(d for d in devices if d.kind == "cpu")
            nbytes = 1 << 20
            assert restore_ms_per_byte(gpu.device.spec) > 0.0
            assert restore_ms_per_byte(cpu.device.spec) == 0.0
            key_gpu = gpu.placement_key(incoming_nbytes=nbytes)
            key_cpu = cpu.placement_key(incoming_nbytes=nbytes)
            assert key_cpu < key_gpu
        finally:
            pool.close()

    def test_restore_lands_fastest_capable_first(self):
        """Whole-fleet restore on a mixed pool places victims on the
        lowest-backlog (here: fastest) device."""
        with CuLiServer(devices=["gtx1080"]) as donor:
            session = donor.open_session("mover")
            session.eval("(setq keep (list 1 2 3))")
            saved = donor.save()
        with CuLiServer(devices=MIXED) as target:
            restored = target.restore(saved)
            assert restored["mover"].device_id.startswith("intel")
            assert restored["mover"].eval("(length keep)") == "3"


def _chain_key(pdev, incoming_nbytes=0):
    """The placement key spelled through the pool's load properties, in
    the float order ``placement_key`` must keep: resident demand, queued
    work, retained session heap, then the arriving snapshot."""
    per_byte = restore_ms_per_byte(pdev.device.spec)
    backlog = (
        pdev.resident_demand_ms
        + pdev.queue_backlog_ms
        + pdev.session_retained_nodes * NODE_BYTES * per_byte
    )
    return (
        backlog + incoming_nbytes * per_byte,
        pdev.probe_ms,
        pdev.session_count,
        pdev.retained_nodes,
        pdev.queue_depth,
    )


def _chain_place(pool, exclude=(), incoming_nbytes=0):
    """``place_session`` as ``min`` over the chained keys, with the same
    candidate fallbacks."""
    devices = list(pool.devices.values())
    candidates = (
        [d for d in devices if not d.draining and d.device_id not in exclude]
        or [d for d in devices if d.device_id not in exclude]
        or devices
    )
    return min(candidates, key=lambda d: _chain_key(d, incoming_nbytes))


class TestPlacementKeyPin:
    """``placement_key`` reads plain attributes once each; the pin is
    the same key built from the properties the rebalancer reads, equal
    to the bit, on a loaded mixed fleet."""

    NBYTES = (0, 1, 4096, 1 << 20, 12_345_677)

    def _loaded(self, server):
        """Residents everywhere, a retained defun and queued tickets."""
        pinned = [server.open_session(device_id=d) for d in server.pool.devices]
        placed = [server.open_session() for _ in range(9)]
        for session in pinned:
            session.eval("(defun poly (x) (+ (* x x) (* 3 x) 7))")
        for k, session in enumerate(pinned + placed):
            for j in range(1 + k % 3):
                session.submit(f"(+ {k} {j})")
        return server.pool

    def _assert_keys_match(self, pool):
        for pdev in pool.devices.values():
            for nbytes in self.NBYTES:
                assert pdev.placement_key(nbytes) == _chain_key(pdev, nbytes)

    def test_key_equals_the_property_chain(self):
        with CuLiServer(devices=MIXED) as server:
            pool = self._loaded(server)
            devices = list(pool.devices.values())
            assert all(d.session_count and d.queue_depth for d in devices)
            assert any(d.session_retained_nodes for d in devices)
            self._assert_keys_match(pool)
            # Many (sessions, depth) pairs, so a term summed in another
            # order rounds differently somewhere.
            sessions = list(server.sessions.values())
            for k in range(120):
                if k % 3 == 0:
                    sessions.append(server.open_session())
                sessions[k % len(sessions)].submit(f"(+ {k} 1)")
                self._assert_keys_match(pool)
            server.flush()

    def test_place_session_picks_the_same_winners(self):
        with CuLiServer(devices=MIXED) as server:
            pool = self._loaded(server)
            ids = list(pool.devices)
            excludes = [(), *([i] for i in ids), ids[:2], ids[1:], ids]
            winners = set()
            for draining in [(), *([i] for i in ids), ids]:
                for device_id in ids:
                    pool[device_id].draining = device_id in draining
                for exclude in excludes:
                    for nbytes in self.NBYTES:
                        got = pool.place_session(exclude, nbytes)
                        assert got is _chain_place(pool, exclude, nbytes)
                        winners.add(got.device_id)
            for device_id in ids:
                pool[device_id].draining = False
            assert winners == set(ids)
            server.flush()

    def test_equal_keys_keep_the_first_device(self):
        pool = DevicePool(["gtx1080", "gtx1080", *MIXED])
        try:
            first, twin, *_ = pool.devices.values()
            assert first.placement_key(64) == twin.placement_key(64)
            others = [d.device_id for d in pool.devices.values() if d.name != "gtx1080"]
            assert pool.place_session(others, 64) is first
            assert pool.place_session([first.device_id, *others], 64) is twin
        finally:
            pool.close()


class TestPerDeviceConfigs:
    def test_each_slot_gets_its_own_arena(self):
        big = GPUDeviceConfig(
            interpreter=InterpreterOptions.fast(arena_capacity=100_000)
        )
        small = CPUDeviceConfig(
            interpreter=InterpreterOptions.fast(arena_capacity=20_000)
        )
        pool = DevicePool(
            ["gtx1080", "intel-e5-2620"], device_configs=[big, small]
        )
        try:
            by_name = {d.name: d for d in pool.devices.values()}
            assert by_name["gtx1080"].device.interp.arena.capacity == 100_000
            assert (
                by_name["intel-e5-2620"].device.interp.arena.capacity
                == 20_000
            )
        finally:
            pool.close()

    def test_none_slots_fall_back_to_shared_config(self):
        shared = GPUDeviceConfig(
            interpreter=InterpreterOptions.fast(arena_capacity=30_000)
        )
        pool = DevicePool(
            ["gtx1080", "gtx1080"],
            gpu_config=shared,
            device_configs=[
                None,
                GPUDeviceConfig(
                    interpreter=InterpreterOptions.fast(arena_capacity=50_000)
                ),
            ],
        )
        try:
            caps = sorted(
                d.device.interp.arena.capacity for d in pool.devices.values()
            )
            assert caps == [30_000, 50_000]
        finally:
            pool.close()

    def test_misaligned_configs_rejected(self):
        with pytest.raises(ValueError, match="align"):
            DevicePool(["gtx1080", "gtx1080"], device_configs=[None])

    def test_kind_mismatch_rejected(self):
        with pytest.raises(TypeError, match="kind mismatch"):
            DevicePool(
                ["gtx1080"],
                device_configs=[
                    CPUDeviceConfig(interpreter=InterpreterOptions.fast())
                ],
            )

    def test_revive_rebuilds_from_the_slot_config(self):
        override = GPUDeviceConfig(
            interpreter=InterpreterOptions.fast(arena_capacity=40_000)
        )
        pool = DevicePool(["gtx1080"], device_configs=[override])
        try:
            pdev = pool["gtx1080#0"]
            assert pdev.device.interp.arena.capacity == 40_000
            pool.revive("gtx1080#0")
            assert pdev.device.interp.arena.capacity == 40_000
            assert pdev.session_retained_nodes == 0
        finally:
            pool.close()

    def test_server_threads_device_configs(self):
        configs = [
            GPUDeviceConfig(
                interpreter=InterpreterOptions.fast(arena_capacity=60_000)
            ),
            None,
        ]
        with CuLiServer(
            devices=["gtx1080", "intel-e5-2620"], device_configs=configs
        ) as server:
            gpu = server.pool["gtx1080#0"]
            assert gpu.device.interp.arena.capacity == 60_000
            session = server.open_session()
            assert session.eval("(+ 1 2)") == "3"


class TestCrossKindMigration:
    """GPU->CPU and CPU->GPU session moves: asymmetric link charges
    (the CPU leg is free shared memory, the PCIe leg pays the model)
    and byte-identical restored state."""

    SCRIPT = [
        "(defun poly (x) (+ (* x x) (* 3 x) 7))",
        "(setq memo (list 10 20 30))",
        "(poly 5)",
        "(cons (poly 2) memo)",
    ]

    def _solo(self, device):
        with CuLiServer(devices=[device]) as server:
            session = server.open_session()
            return [session.eval(c) for c in self.SCRIPT]

    @pytest.mark.parametrize(
        "source,dest", [("gtx1080", "intel-e5-2620"), ("intel-e5-2620", "gtx1080")]
    )
    def test_cross_kind_move_is_transcript_invisible(self, source, dest):
        with CuLiServer(devices=[source, dest]) as server:
            session = server.open_session(device_id=f"{source}#0")
            outputs = [session.eval(c) for c in self.SCRIPT[:2]]
            record = session.migrate(f"{dest}#1")
            assert record.source == f"{source}#0"
            assert record.dest == f"{dest}#1"
            outputs += [session.eval(c) for c in self.SCRIPT[2:]]
        # Byte-identical to never-migrated runs on either device.
        assert outputs == self._solo(source) == self._solo(dest)

    def test_gpu_to_cpu_charges_only_the_pcie_leg(self):
        with CuLiServer(devices=["gtx1080", "intel-e5-2620"]) as server:
            session = server.open_session(device_id="gtx1080#0")
            session.eval("(setq v (list 1 2 3 4))")
            record = session.migrate("intel-e5-2620#1")
            gpu_leg = server.pool["gtx1080#0"].device.spec.transfer_ms(
                record.nbytes
            )
            assert record.transfer_ms == pytest.approx(gpu_leg)
            # The CPU side contributed nothing.
            dstats = server.stats.per_device["intel-e5-2620#1"]
            assert dstats.busy_ms == 0.0

    def test_cpu_to_gpu_charges_only_the_pcie_leg(self):
        with CuLiServer(devices=["intel-e5-2620", "gtx1080"]) as server:
            session = server.open_session(device_id="intel-e5-2620#0")
            session.eval("(setq v (list 1 2 3 4))")
            busy_before = server.stats.per_device["intel-e5-2620#0"].busy_ms
            record = session.migrate("gtx1080#1")
            gpu_leg = server.pool["gtx1080#1"].device.spec.transfer_ms(
                record.nbytes
            )
            assert record.transfer_ms == pytest.approx(gpu_leg)
            assert server.stats.per_device["intel-e5-2620#0"].busy_ms == (
                busy_before
            )


class TestCostRebalancing:
    def test_leveling_never_pulls_sessions_onto_a_slower_device(self):
        """The cost/benefit veto: a loaded Xeon next to an idle GTX 1080
        stays loaded: one session on the GPU costs more service time
        than all of them on the CPU, so a session-count gap alone never
        moves one."""
        with CuLiServer(
            devices=["intel-e5-2620", "gtx1080"], rebalance=True
        ) as server:
            sessions = []
            for k in range(6):
                s = server.open_session(f"t{k}")
                # Pin everything onto the CPU regardless of placement.
                if not s.device_id.startswith("intel"):
                    server.migrate_session(s, "intel-e5-2620#0")
                sessions.append(s)
            migrations_before = server.stats.sessions_migrated
            for s in sessions:
                s.submit("(+ 1 2)")
            server.flush()
            assert server.stats.sessions_migrated == migrations_before

    def test_homogeneous_shedding_still_levels_queues(self):
        """On an equal-device pool the ms gates still fire on a deep
        queue skew."""
        with CuLiServer(
            devices=["gtx1080", "gtx1080"], rebalance=True, max_batch=8
        ) as server:
            heavy = [server.open_session(f"h{i}") for i in (0, 1)]
            for session in heavy:
                for k in range(6):
                    session.submit(f"(+ {k} 1)")
            if heavy[1].device_id != heavy[0].device_id:
                server.migrate_session(heavy[1], heavy[0].device_id)
            migrations_before = server.stats.sessions_migrated
            server.flush()
            assert server.pending == 0
            assert server.stats.sessions_migrated > migrations_before


class TestFleetMetrics:
    def test_utilization_spread_and_capability_reported(self):
        with CuLiServer(devices=MIXED) as server:
            sessions = [server.open_session() for _ in range(6)]
            for s in sessions:
                s.submit("(* 6 7)")
            server.flush()
            snap = server.stats.snapshot()
            assert snap["fleet"]["devices"] == 3
            spread = snap["fleet"]["utilization_spread"]
            assert 0.0 <= spread <= 1.0
            assert spread == server.stats.utilization_spread()
            for entry in snap["devices"].values():
                assert entry["capability_ms"] > 0.0
            rendered = server.stats.render()
            assert "utilization spread" in rendered
            assert "ms/req" in rendered

    def test_single_device_spread_is_zero(self):
        with CuLiServer(devices=["gtx1080"]) as server:
            session = server.open_session()
            session.eval("(+ 1 1)")
            assert server.stats.utilization_spread() == 0.0

    def test_pipeline_reports_engine_utilization(self):
        with CuLiServer(devices=["gtx1080"]) as server:
            session = server.open_session()
            for k in range(4):
                session.submit(f"(+ {k} 1)")
            server.flush()
            sched = server.stats.snapshot()["scheduler"]
            gauge = sched["devices"]["gtx1080#0"]
            assert gauge["engine_busy_ms"] > 0.0
            assert 0.0 < gauge["utilization"] <= 1.0


class TestZipfTrace:
    def test_zipf_is_heavy_tailed_but_clamped(self):
        trace = generate_trace(
            seed=3, tenants=400, requests=2_000, weighting="zipf"
        )
        counts: dict[int, int] = {}
        for req in trace:
            counts[req.tenant] = counts.get(req.tenant, 0) + 1
        # Every tenant appears (the long tail is sessions, not silence).
        assert len(counts) == 400
        head = max(counts.values())
        tail_median = sorted(counts.values())[len(counts) // 2]
        assert head >= 8 * tail_median      # genuinely heavy-tailed...
        assert head <= 0.02 * 2_000 + 1     # ...but clamped to ~2%

    def test_zipf_trace_is_seed_deterministic(self):
        a = generate_trace(seed=7, tenants=100, requests=500, weighting="zipf")
        b = generate_trace(seed=7, tenants=100, requests=500, weighting="zipf")
        assert a == b

    def test_zipf_emits_exactly_the_request_budget(self):
        # The old max(1, round(share)) per-tenant rounding drifted the
        # emitted count both above (forced tail 1s) and below (clipped
        # head mass) the budget; the apportionment is now exact.
        for tenants, requests in [(400, 2_000), (100, 5_000), (16, 64)]:
            trace = generate_trace(
                seed=3, tenants=tenants, requests=requests, weighting="zipf"
            )
            assert len(trace) == max(requests, tenants)

    def test_zipf_budget_exact_at_10k_tenants(self):
        # The roadmap-scale shape: 10k sessions sharing a 12k budget.
        trace = generate_trace(
            seed=2018,
            tenants=10_000,
            requests=12_000,
            duration_ms=5.0,
            weighting="zipf",
            zipf_exponent=1.1,
        )
        assert len(trace) == 12_000
        counts: dict[int, int] = {}
        for req in trace:
            counts[req.tenant] = counts.get(req.tenant, 0) + 1
        assert len(counts) == 10_000            # every tenant appears
        assert max(counts.values()) <= 240      # 2% head clamp holds

    def test_zipf_floor_when_tenants_exceed_requests(self):
        # requests < tenants: the one-request floor wins and the budget
        # is the tenant count, each exactly once.
        trace = generate_trace(
            seed=1, tenants=50, requests=10, weighting="zipf"
        )
        assert len(trace) == 50
        assert sorted({req.tenant for req in trace}) == list(range(50))

    def test_step_weighting_unchanged_by_default(self):
        a = generate_trace(seed=5, tenants=16, requests=128)
        b = generate_trace(seed=5, tenants=16, requests=128, weighting="step")
        assert a == b

    def test_unknown_weighting_rejected(self):
        with pytest.raises(ValueError, match="weighting"):
            generate_trace(weighting="uniform")
