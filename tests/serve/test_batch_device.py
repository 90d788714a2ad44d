"""Device-level batched submission: correctness and cost amortization."""

import pytest

from repro.core.interpreter import InterpreterOptions
from repro.cpu.device import CPUDevice
from repro.cpu.specs import INTEL_E5_2620
from repro.errors import (
    DeviceLostError,
    DeviceShutdownError,
    HostProtocolError,
    LivelockError,
)
from repro.gpu.device import GPUDevice, GPUDeviceConfig
from repro.gpu.specs import GTX1080
from repro.runtime.batch import BatchRequest
from repro.runtime.devices import resolve_spec

FORMS = ["(+ 1 2)", "(* 6 7)", "(append '(a) '(b c))", "(if (< 1 2) 'yes 'no)"]
EXPECTED = ["3", "42", "(a b c)", "yes"]


@pytest.fixture
def gpu():
    device = GPUDevice(GTX1080)
    yield device
    device.close()


@pytest.fixture
def cpu():
    device = CPUDevice(INTEL_E5_2620)
    yield device
    device.close()


class TestCorrectness:
    @pytest.mark.parametrize("make", ["gpu", "cpu"])
    def test_batch_outputs_match_sequential(self, make, gpu, cpu):
        device = gpu if make == "gpu" else cpu
        result = device.submit_batch([BatchRequest(f) for f in FORMS])
        assert result.outputs == EXPECTED
        assert result.size == len(FORMS)
        assert not result.errors

    def test_empty_batch(self, gpu):
        result = gpu.submit_batch([])
        assert result.size == 0 and result.times.total_ms == 0.0

    def test_closed_device_rejects_batch(self, gpu):
        gpu.close()
        with pytest.raises(DeviceShutdownError):
            gpu.submit_batch([BatchRequest("1")])

    def test_default_env_is_global(self, gpu):
        gpu.submit_batch([BatchRequest("(setq shared 9)")])
        assert gpu.submit("shared").output == "9"

    def test_nested_parallel_degrades_inside_batch(self, gpu):
        """A ||| inside a served ||| row runs in that row's worker: CuLi
        has a single master, so it falls back to sequential eval, is
        counted, and still produces correct results."""
        env = gpu.create_session_env()
        gpu.submit_batch(
            [BatchRequest("(defun inner (x) (car (||| 1 + (1) (2))))", env=env)]
        )
        result = gpu.submit_batch([BatchRequest("(||| 4 inner (0 0 0 0))", env=env)])
        assert result.outputs == ["(3 3 3 3)"]
        assert result.jobs == 4
        assert result.nested_fallbacks == gpu.engine.nested_fallbacks >= 1


def _engine_figures(engine) -> tuple:
    return (
        engine.distribute_cycles,
        engine.worker_wall_cycles,
        engine.collect_cycles,
        engine.spin_cycles,
        engine.jobs,
        engine.nested_fallbacks,
        [(r.jobs, r.warps_touched, r.wall_cycles, r.groups) for r in engine.rounds],
    )


def _gpu_map(k: int) -> str:
    body = " ".join(str(x % 13) for x in range(k))
    return f"(gpu-map (lambda (x) (+ (* x x) 3)) ({body}))"


class TestMasterMode:
    """A served request whose plan is one parallel form runs as Alg. 1
    does for a single command: the master evaluates it and the engine
    distributes its rows over the device's workers."""

    @pytest.mark.parametrize("jit", [False, True], ids=["tree", "jit"])
    @pytest.mark.parametrize("spec", ["gtx1080", "tesla-v100"])
    @pytest.mark.parametrize("k", [8, 256])
    def test_served_gpu_map_matches_single_command(self, spec, jit, k):
        options = InterpreterOptions.fast(jit=True) if jit else None
        config = GPUDeviceConfig(interpreter=options)
        text = _gpu_map(k)
        single = GPUDevice(resolve_spec(spec), config)
        served = GPUDevice(resolve_spec(spec), config)
        try:
            stats = single.submit(text, env=single.create_session_env("t"))
            env = served.create_session_env("t")
            result = served.submit_batch([BatchRequest(text, env)])
            assert result.outputs == [stats.output]
            assert result.jobs == k
            assert result.nested_fallbacks == 0
            assert _engine_figures(served.engine) == _engine_figures(single.engine)
            # A 1-request batch's eval is the single command's: the
            # master's share of the batch plus the rounds' worker wall.
            item = result.items[0].stats.times
            assert item.eval_ms == pytest.approx(stats.times.eval_ms, rel=1e-12)
            assert item.worker_ms == stats.times.worker_ms
        finally:
            single.close()
            served.close()

    def test_master_mode_beside_service_requests(self, gpu):
        """A parallel form and plain requests in one batch: the form's
        rows take the engine's rounds, the others one service round."""
        env = gpu.create_session_env()
        result = gpu.submit_batch(
            [
                BatchRequest("(+ 1 2)", env=env),
                BatchRequest(_gpu_map(40), env=env),
                BatchRequest("(preduce + (1 2 3 4 5))", env=env),
                BatchRequest("(* 6 7)", env=env),
            ]
        )
        assert result.outputs[0] == "3" and result.outputs[3] == "42"
        assert result.outputs[2] == "15"
        assert result.jobs == 2 + 40 + (2 + 1 + 1)
        assert result.nested_fallbacks == 0

    def test_parallel_form_not_at_the_head_stays_in_its_lane(self, gpu):
        """Only a plan that is one parallel form runs in master mode: a
        form inside a request, or a second top-level form, is reached by
        the request's worker and runs in its lane."""
        result = gpu.submit_batch(
            [
                BatchRequest("(car (gpu-map (lambda (x) x) (5 6 7)))"),
                BatchRequest("(+ 1 1) (gpu-map (lambda (x) x) (5 6 7))"),
            ]
        )
        assert result.outputs == ["5", "2 (5 6 7)"]
        assert result.jobs == 2
        assert result.nested_fallbacks == 2

    def test_master_mode_error_is_contained(self, gpu):
        """A master-mode request that fails (here in a worker's row)
        resolves with its error; its co-tenants complete."""
        result = gpu.submit_batch(
            [
                BatchRequest("(gpu-map car (1 2 3))"),
                BatchRequest("(+ 2 2)"),
            ]
        )
        assert result.outputs[0].startswith("error:")
        assert result.outputs[1] == "4"
        assert gpu.submit("(gpu-map (lambda (x) (* 2 x)) (1 2))").output == "(2 4)"

    @pytest.mark.parametrize(
        "config",
        [
            GPUDeviceConfig(enable_block_sync_flag=False),
            GPUDeviceConfig(disable_master_block_workers=False),
        ],
        ids=["fig13-sync-flag", "fig12-master-block"],
    )
    def test_configuration_livelock_aborts_master_mode_batch(self, config):
        """The Fig. 12/13 livelocks of the kernel's configuration abort
        the transaction, even when a master-mode request's rounds raise
        them inside its contained evaluation."""
        device = GPUDevice(GTX1080, config=config)
        with pytest.raises(LivelockError):
            device.submit_batch([BatchRequest(_gpu_map(8))])
        assert not device.interp.arena.region_active
        device.close()


class TestAmortization:
    def test_batch_cheaper_than_sequential_commands(self, gpu):
        """One batch of k commands beats k single submissions: the
        handshake and PCIe latency are paid once, and tenants evaluate
        concurrently on worker warps."""
        envs = [gpu.create_session_env(f"t{i}") for i in range(8)]
        work = "(defun loop-sum (n acc) (if (< n 1) acc (loop-sum (- n 1) (+ acc n))))"
        for env in envs:
            gpu.submit_batch([BatchRequest(work, env=env)])
        command = "(loop-sum 40 0)"
        sequential_ms = sum(
            gpu.submit(command, env=env).times.total_ms for env in envs
        )
        batched = gpu.submit_batch([BatchRequest(command, env=env) for env in envs])
        assert batched.outputs == ["820"] * 8
        assert batched.times.total_ms < sequential_ms

    def test_one_handshake_per_batch(self, gpu):
        single = gpu.submit("(+ 1 1)")
        batch = gpu.submit_batch([BatchRequest("(+ 1 1)") for _ in range(6)])
        # other_ms is the per-command handshake: charged once per batch.
        assert batch.times.other_ms == pytest.approx(single.times.other_ms)

    def test_shared_rounds_amortize_distribution(self, gpu):
        batch = gpu.submit_batch([BatchRequest("(* 3 3)") for _ in range(6)])
        assert batch.rounds == 1  # six tenants, one distribution round
        assert batch.jobs == 6

    def test_worker_wall_below_lane_sum(self, gpu):
        """Tenants placed one per warp run concurrently: round wall time
        is far below the sum of per-request eval times."""
        batch = gpu.submit_batch(
            [BatchRequest(f"(* {i} {i})") for i in range(1, 9)]
        )
        lane_sum = sum(item.stats.times.worker_ms for item in batch.items)
        assert batch.times.worker_ms < lane_sum
        assert batch.times.worker_ms > 0

    def test_cpu_batch_waves(self, cpu):
        n = cpu.spec.hw_threads + 1  # force a second wave
        batch = cpu.submit_batch([BatchRequest("(+ 1 1)") for _ in range(n)])
        assert batch.outputs == ["2"] * n
        assert batch.rounds >= 2
        assert batch.times.other_ms == pytest.approx(
            cpu.spec.command_overhead_us / 1000.0
        )

    def test_per_item_stats_additive_shares(self, gpu):
        batch = gpu.submit_batch([BatchRequest("(+ 2 2)") for _ in range(4)])
        shared = sum(item.stats.times.other_ms for item in batch.items)
        assert shared == pytest.approx(batch.times.other_ms)
        transfer = sum(item.stats.times.transfer_ms for item in batch.items)
        assert transfer == pytest.approx(batch.times.transfer_ms)


@pytest.mark.parametrize("make", ["gpu", "cpu"])
class TestLossAndShutdown:
    """The entry check both device kinds share: a lost device raises
    DeviceLostError, a closed one DeviceShutdownError, on both the
    single-command and the batched path."""

    def test_lost_device_refuses_work(self, make, gpu, cpu):
        device = gpu if make == "gpu" else cpu
        assert not device.lost
        used = device.interp.arena.used
        allocs = device.interp.arena.stats.allocs
        device.mark_lost("test: fell off the bus")
        assert device.lost
        with pytest.raises(DeviceLostError, match="fell off the bus"):
            device.submit("(+ 1 2)")
        with pytest.raises(DeviceLostError, match="fell off the bus"):
            device.submit_batch([BatchRequest("(+ 1 2)")])
        # Nothing was parsed: the refusal came before the transaction.
        assert device.interp.arena.used == used
        assert device.interp.arena.stats.allocs == allocs

    def test_closed_device_refuses_work(self, make, gpu, cpu):
        device = gpu if make == "gpu" else cpu
        device.close()
        assert device.closed and not device.lost
        with pytest.raises(DeviceShutdownError):
            device.submit("(+ 1 2)")
        with pytest.raises(DeviceShutdownError):
            device.submit_batch([BatchRequest("(+ 1 2)")])

    def test_shutdown_wins_over_loss(self, make, gpu, cpu):
        device = gpu if make == "gpu" else cpu
        device.mark_lost()
        device.close()
        assert device.lost
        with pytest.raises(DeviceShutdownError):
            device.submit("(+ 1 2)")
        with pytest.raises(DeviceShutdownError):
            device.submit_batch([BatchRequest("(+ 1 2)")])


class TestDeviceLevelInvariants:
    def test_over_capacity_batch_refused_whole(self, gpu):
        """Two individually-valid 40 KiB commands exceed the 64 KiB
        buffer together: the device does not split them (the scheduler
        is the one packer) — ``host_upload`` refuses the batch before
        any device state changes, and the device serves the next one."""
        big = "(+ " + " ".join(["1"] * 20000) + ")"  # ~40 KiB each
        allocs = gpu.interp.arena.stats.allocs
        with pytest.raises(HostProtocolError, match="exceeds command buffer"):
            gpu.submit_batch([BatchRequest(big), BatchRequest(big)])
        # Nothing was uploaded and nothing parsed.
        assert gpu.cmdbuf.command_buffer == "" and gpu.cmdbuf.buffer_length == 0
        assert gpu.cmdbuf.dev_sync == 0
        assert gpu.interp.arena.stats.allocs == allocs
        assert not gpu.interp.arena.region_active
        result = gpu.submit_batch([BatchRequest(big), BatchRequest("(+ 1 1)")])
        assert result.outputs == ["20000", "2"]
        payload = len(big) + 1 + len("(+ 1 1)")
        assert result.upload_ms == gpu.spec.transfer_ms(payload)

    def test_master_block_ablation_livelocks_service_round(self):
        """Fig. 12 applies to service rounds exactly as to ||| rounds."""
        device = GPUDevice(
            GTX1080, config=GPUDeviceConfig(disable_master_block_workers=False)
        )
        with pytest.raises(LivelockError):
            device.submit_batch([BatchRequest("(+ 1 1)")])
        device.close()

    def test_volta_without_sync_flag_skips_flag_charges(self):
        """On Volta (independent thread scheduling) a disabled sync flag
        is safe, and its ATOMIC_RMW traffic must not be charged."""
        from repro.gpu.specs import TESLA_V100

        with_flag = GPUDevice(TESLA_V100)
        without_flag = GPUDevice(
            TESLA_V100, config=GPUDeviceConfig(enable_block_sync_flag=False)
        )
        r_on = with_flag.submit_batch([BatchRequest("(* 2 2)")] * 3)
        r_off = without_flag.submit_batch([BatchRequest("(* 2 2)")] * 3)
        assert r_off.outputs == r_on.outputs == ["4"] * 3
        assert r_off.times.distribute_ms < r_on.times.distribute_ms
        with_flag.close()
        without_flag.close()

    def test_worker_print_output_is_charged(self, gpu):
        """princ inside a served request charges the worker context, as
        in single-command mode: eval cost grows with printed length."""
        short = gpu.submit_batch([BatchRequest('(princ "ab")')])
        long = gpu.submit_batch([BatchRequest('(princ "' + "x" * 400 + '")')])
        assert long.items[0].stats.times.eval_ms > short.items[0].stats.times.eval_ms


class TestFailureModes:
    def test_sync_flag_ablation_livelocks_service_round(self):
        device = GPUDevice(
            GTX1080, config=GPUDeviceConfig(enable_block_sync_flag=False)
        )
        with pytest.raises(LivelockError):
            device.submit_batch([BatchRequest("(+ 1 1)"), BatchRequest("(+ 2 2)")])
        device.close()

    def test_cpu_arena_exhaustion_contained_and_collected(self):
        """Arena exhaustion mid-batch is contained to the exhausting
        request (fault isolation): co-tenants complete, the faulted
        request's partial trees are reclaimed, and the arena does not
        leak across the batch."""
        from repro.core.interpreter import InterpreterOptions
        from repro.cpu.device import CPUDeviceConfig
        from repro.errors import ArenaExhaustedError

        device = CPUDevice(
            INTEL_E5_2620,
            config=CPUDeviceConfig(
                interpreter=InterpreterOptions(arena_capacity=600)
            ),
        )
        used_before = device.interp.arena.stats.allocs - device.interp.arena.stats.frees
        result = device.submit_batch(
            [BatchRequest("(+ 1 1)"), BatchRequest("(list " + "1 " * 400 + ")")]
        )
        assert result.outputs[0] == "2"
        assert isinstance(result.items[1].error, ArenaExhaustedError)
        assert result.items[1].faulted
        used_after = device.interp.arena.stats.allocs - device.interp.arena.stats.frees
        assert used_after <= used_before + 5  # partial trees were reclaimed
        assert device.submit("(+ 2 2)").output == "4"  # still healthy
        device.close()

    def test_batch_survives_mixed_errors(self, gpu):
        result = gpu.submit_batch(
            [
                BatchRequest("(+ 1 2)"),
                BatchRequest("(car 5)"),
                BatchRequest("(unclosed"),
                BatchRequest("(* 2 2)"),
            ]
        )
        assert result.outputs[0] == "3"
        assert result.outputs[1].startswith("error:")
        assert result.outputs[2].startswith("error:")
        assert result.outputs[3] == "4"
        assert len(result.errors) == 2
        # The device is still healthy afterwards.
        assert gpu.submit("(+ 40 2)").output == "42"
