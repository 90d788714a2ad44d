"""The master/worker kernel engine: rounds, warp timing, livelock
(paper §III-C/D, Alg. 1, Figs. 12/13)."""

import pytest

from repro.errors import LivelockError
from repro.gpu.device import GPUDevice, GPUDeviceConfig
from repro.runtime.batch import BatchRequest
from repro.runtime.fidelity import Fidelity
from tests.conftest import make_tiny_gpu_spec

FIB = "(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))"


def run_parallel(device, n, fn="fib", arg="5"):
    args = " ".join([arg] * n)
    return device.submit(f"(||| {n} {fn} ({args}))")


class TestRounds:
    def test_single_round_when_jobs_fit(self, tiny_gpu):
        tiny_gpu.submit(FIB)
        stats = run_parallel(tiny_gpu, 10)
        assert stats.rounds == 1
        assert stats.jobs == 10

    def test_multiple_rounds_when_jobs_exceed_workers(self, tiny_gpu):
        # tiny GPU: 4 blocks => 96 workers; 200 jobs => 3 rounds.
        assert tiny_gpu.grid.worker_count == 96
        tiny_gpu.submit(FIB)
        stats = run_parallel(tiny_gpu, 200)
        assert stats.rounds == 3
        assert stats.output == "(" + " ".join(["5"] * 200) + ")"

    def test_round_reports(self, tiny_gpu):
        tiny_gpu.submit(FIB)
        run_parallel(tiny_gpu, 200)
        jobs = [r.jobs for r in tiny_gpu.engine.rounds]
        assert jobs == [96, 96, 8]

    def test_exact_fit_single_round(self, tiny_gpu):
        tiny_gpu.submit(FIB)
        stats = run_parallel(tiny_gpu, 96)
        assert stats.rounds == 1


class TestLivelock:
    def test_sync_flag_disabled_nonmultiple_livelocks(self, tiny_gpu_spec):
        device = GPUDevice(
            tiny_gpu_spec, config=GPUDeviceConfig(enable_block_sync_flag=False)
        )
        device.submit(FIB)
        with pytest.raises(LivelockError, match="lockstep"):
            run_parallel(device, 10)  # 10 % 32 != 0
        device.close()

    def test_sync_flag_disabled_multiple_of_32_works(self, tiny_gpu_spec):
        device = GPUDevice(
            tiny_gpu_spec, config=GPUDeviceConfig(enable_block_sync_flag=False)
        )
        device.submit(FIB)
        stats = run_parallel(device, 64)
        assert stats.output.count("5") == 64
        device.close()

    def test_sync_flag_enabled_any_count_works(self, tiny_gpu):
        tiny_gpu.submit(FIB)
        stats = run_parallel(tiny_gpu, 10)
        assert stats.output == "(5 5 5 5 5 5 5 5 5 5)"

    def test_master_block_workers_enabled_livelocks(self, tiny_gpu_spec):
        device = GPUDevice(
            tiny_gpu_spec,
            config=GPUDeviceConfig(disable_master_block_workers=False),
        )
        device.submit(FIB)
        with pytest.raises(LivelockError, match="master"):
            run_parallel(device, 4)
        device.close()


class TestTiming:
    def test_worker_wall_positive(self, tiny_gpu):
        tiny_gpu.submit(FIB)
        run_parallel(tiny_gpu, 8)
        assert tiny_gpu.engine.worker_wall_cycles > 0

    def test_distribution_scales_with_jobs(self, tiny_gpu):
        tiny_gpu.submit(FIB)
        run_parallel(tiny_gpu, 4)
        small = tiny_gpu.engine.distribute_cycles
        run_parallel(tiny_gpu, 64)
        large = tiny_gpu.engine.distribute_cycles
        assert large > small * 4

    def test_spin_energy_accounted(self, tiny_gpu):
        tiny_gpu.submit(FIB)
        stats = run_parallel(tiny_gpu, 8)
        # 88 idle workers spin for the whole round.
        assert stats.times.spin_cycles > 0

    def test_heterogeneous_warp_serializes_divergent_paths(self, tiny_gpu):
        """Paper §III-D-d: divergent lanes "finish one after another" —
        a mixed warp costs the sum of its distinct task groups."""
        tiny_gpu.submit(FIB)
        # One fib(12) + 7 fib(1) in the same warp.
        stats = tiny_gpu.submit("(||| 8 fib (12 1 1 1 1 1 1 1))")
        hetero_wall = tiny_gpu.engine.rounds[-1].wall_cycles
        tiny_gpu.submit("(||| 8 fib (1 1 1 1 1 1 1 1))")
        light_wall = tiny_gpu.engine.rounds[-1].wall_cycles
        tiny_gpu.submit("(||| 8 fib (12 12 12 12 12 12 12 12))")
        heavy_wall = tiny_gpu.engine.rounds[-1].wall_cycles
        # Serialized divergence: heavy path + light path, nothing more.
        assert hetero_wall == pytest.approx(heavy_wall + light_wall, rel=0.01)
        assert hetero_wall > heavy_wall
        assert hetero_wall > light_wall * 10
        assert stats.output.startswith("(144")

    def test_uniform_warp_has_no_divergence_penalty(self, tiny_gpu):
        """Identical tasks stay lockstep: warp time == one lane's time."""
        tiny_gpu.submit(FIB)
        tiny_gpu.submit("(||| 1 fib (9))")
        single = tiny_gpu.engine.rounds[-1].wall_cycles
        tiny_gpu.submit("(||| 32 fib (" + " ".join(["9"] * 32) + "))")
        full_warp = tiny_gpu.engine.rounds[-1].wall_cycles
        assert full_warp == pytest.approx(single, rel=0.01)

    def test_divergence_respects_warp_boundaries(self, tiny_gpu):
        """Different tasks in *different* warps run concurrently: wall is
        the max over warps, so grouping comparable-cost tasks by warp
        beats interleaving them within warps. (The penalty of a mixed
        warp is the smaller group's time, so the tasks must be of the
        same order for the effect to show: fib(12) vs fib(11).)"""
        tiny_gpu.submit(FIB)
        heavy = ["12"] * 32
        medium = ["11"] * 32
        tiny_gpu.submit(f"(||| 64 fib ({' '.join(heavy + medium)}))")
        split_wall = tiny_gpu.engine.rounds[-1].wall_cycles
        interleaved = [v for pair in zip(heavy, medium) for v in pair]
        tiny_gpu.submit(f"(||| 64 fib ({' '.join(interleaved)}))")
        mixed_wall = tiny_gpu.engine.rounds[-1].wall_cycles
        # Mixed warps serialize both paths: ~ t12 + t11 vs max(t12, t11).
        assert mixed_wall > split_wall * 1.4


class TestFidelityModes:
    def test_warp_mode_groups_identical_jobs(self, tiny_gpu):
        tiny_gpu.submit(FIB)
        run_parallel(tiny_gpu, 64)
        assert tiny_gpu.engine.rounds[-1].groups == 1

    def test_full_mode_no_grouping(self, full_fidelity_gpu):
        full_fidelity_gpu.submit(FIB)
        run_parallel(full_fidelity_gpu, 64)
        assert full_fidelity_gpu.engine.rounds[-1].groups == 64

    def test_modes_agree_on_output_and_time(self, tiny_gpu, full_fidelity_gpu):
        for device in (tiny_gpu, full_fidelity_gpu):
            device.submit(FIB)
        a = run_parallel(tiny_gpu, 48)
        b = run_parallel(full_fidelity_gpu, 48)
        assert a.output == b.output
        assert a.times.eval_ms == pytest.approx(b.times.eval_ms, rel=0.02)
        assert a.times.worker_ms == pytest.approx(b.times.worker_ms, rel=0.02)


class TestNestedParallel:
    def test_nested_falls_back_to_sequential(self, tiny_gpu):
        tiny_gpu.submit("(defun inner (x) (car (||| 1 + (1) (2))))")
        stats = tiny_gpu.submit("(||| 2 inner (0 0))")
        assert stats.output == "(3 3)"
        assert tiny_gpu.engine.nested_fallbacks >= 1


# -- exact figures --------------------------------------------------------------
#
# Every accumulator a command leaves on the engine, pinned with ==. The
# tiny spec's costs are whole cycles, so every sum is exact and no figure
# depends on how a Python version sums floats. ``|||`` rows fill warps
# densely; ``gpu-map`` and ``preduce`` rows are spread one per warp
# first, so their rounds touch all three warps of the tiny grid.

#: The forms, each with its output, (distribute, worker wall, collect,
#: spin) cycles, and its rounds as (jobs, warps touched, wall cycles).
ENGINE_PINS = {
    "multi-round |||": (
        "(||| 200 fib (" + " ".join(["5"] * 200) + "))",
        "(" + " ".join(["5"] * 200) + ")",
        (103680.0, 352929.0, 12000.0, 10352584.0),
        [(96, 3, 117643.0), (96, 3, 117643.0), (8, 1, 117643.0)],
    ),
    "two signatures in a warp": (
        "(||| 8 fib (6 1 1 1 1 1 1 1))",
        "(8 1 1 1 1 1 1 1)",
        (4332.0, 206434.0, 480.0, 19576064.0),
        [(8, 1, 206434.0)],
    ),
    "gpu-map": (
        "(gpu-map (lambda (x) (* x x)) (1 2 3 4 5 6 7 8 9 10))",
        "(1 4 9 16 25 36 49 64 81 100)",
        (5360.0, 12404.0, 600.0, 1159774.0),
        [(10, 3, 12404.0)],
    ),
    "preduce": (
        "(preduce + (1 2 3 4 5 6 7 8 9 10 11))",
        "66",
        (6740.0, 7015.0, 600.0, 659410.0),
        [(5, 3, 2806.0), (3, 3, 1403.0), (1, 1, 1403.0), (1, 1, 1403.0)],
    ),
}

#: Task groups per round under WARP fidelity (FULL runs one per job).
WARP_GROUPS = {
    "multi-round |||": [1, 1, 1],
    "two signatures in a warp": [2],
    "gpu-map": [10],
    "preduce": [5, 3, 1, 1],
}


def engine_figures(device):
    engine = device.engine
    return (
        (
            engine.distribute_cycles,
            engine.worker_wall_cycles,
            engine.collect_cycles,
            engine.spin_cycles,
        ),
        engine.jobs,
        [(r.jobs, r.warps_touched, r.wall_cycles, r.groups) for r in engine.rounds],
    )


@pytest.mark.parametrize("fidelity", [Fidelity.WARP, Fidelity.FULL])
@pytest.mark.parametrize("case", sorted(ENGINE_PINS))
def test_engine_figures_pinned(case, fidelity, tiny_gpu_spec):
    form, output, cycles, rounds = ENGINE_PINS[case]
    device = GPUDevice(tiny_gpu_spec, config=GPUDeviceConfig(fidelity=fidelity))
    device.submit(FIB)
    stats = device.submit(form)
    if fidelity is Fidelity.WARP:
        groups = WARP_GROUPS[case]
    else:
        groups = [jobs for jobs, _, _ in rounds]
    assert stats.output == output
    assert engine_figures(device) == (
        cycles,
        sum(jobs for jobs, _, _ in rounds),
        [round_ + (g,) for round_, g in zip(rounds, groups)],
    )
    device.close()


#: Lane cycles of each served request text, for the service pin below.
SERVICE_LANE_CYCLES = {
    "(+ k 1)": 2257.0,
    "(fib 0)": 5915.0,
    "(fib 1)": 5915.0,
    "(fib 2)": 21205.0,
    "(fib 3)": 36927.0,
    "(fib 4)": 68803.0,
    "(fib 5)": 117697.0,
    "(fib 6)": 200627.0,
}


def _fib(n):
    return n if n < 2 else _fib(n - 1) + _fib(n - 2)


def test_service_batch_figures_pinned(tiny_gpu, monkeypatch):
    """100 tenant requests on 96 workers: a full round spread one job
    per warp, then a 4-job round spread over all three warps."""
    env = tiny_gpu.create_session_env("t")
    tiny_gpu.submit_batch([BatchRequest(FIB, env)])
    texts = [f"(fib {k % 7})" if k % 3 else f"(+ {k} 1)" for k in range(100)]
    engine = tiny_gpu.engine
    lanes = []
    run = type(engine).run_service_batch

    def recorded(self, interp, jobs):
        lanes.extend(run(self, interp, jobs))
        return lanes

    monkeypatch.setattr(type(engine), "run_service_batch", recorded)
    result = tiny_gpu.submit_batch([BatchRequest(t, env) for t in texts])
    assert result.outputs == [
        str(_fib(k % 7)) if k % 3 else str(k + 1) for k in range(100)
    ]
    assert lanes == [
        SERVICE_LANE_CYCLES[t if t.startswith("(fib") else "(+ k 1)"] for t in texts
    ]
    assert engine_figures(tiny_gpu) == (
        (27660.0, 2242603.0, 6000.0, 211018716.0),
        100,
        [(96, 3, 2041976.0, 96), (4, 3, 200627.0, 4)],
    )
