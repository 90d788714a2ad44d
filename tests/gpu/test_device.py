"""The GPU device: lifecycle, submission, timing composition."""

import pytest

from repro.errors import DeviceShutdownError, UnbalancedInputError
from repro.gpu.device import GPUDevice
from repro.gpu.specs import ALL_GPUS, GTX480, GTX680, GTX1080


class TestLifecycle:
    def test_base_latency_positive_and_composed(self, gpu_device):
        spec_part = gpu_device.spec.base_latency_ms
        assert gpu_device.base_latency_ms > spec_part  # env build adds time

    def test_close_is_idempotent(self, gpu_device):
        gpu_device.close()
        gpu_device.close()
        assert gpu_device.closed

    def test_submit_after_close_raises(self, gpu_device):
        gpu_device.close()
        with pytest.raises(DeviceShutdownError):
            gpu_device.submit("(+ 1 2)")

    def test_close_deactivates_postboxes(self, gpu_device):
        gpu_device.close()
        assert gpu_device.postboxes[5].active.value == 0
        assert gpu_device.cmdbuf.dev_active == 0


class TestSubmission:
    def test_basic_arithmetic(self, gpu_device):
        stats = gpu_device.submit("(+ 1 2)")
        assert stats.output == "3"

    def test_environment_persists_across_commands(self, gpu_device):
        gpu_device.submit("(setq x 5)")
        gpu_device.submit("(defun add-x (y) (+ x y))")
        assert gpu_device.submit("(add-x 10)").output == "15"

    def test_sanitizes_multiline_input(self, gpu_device):
        assert gpu_device.submit("(+ 1\n   2)").output == "3"

    def test_unbalanced_refused_by_host(self, gpu_device):
        with pytest.raises(UnbalancedInputError):
            gpu_device.submit("(+ 1 2")

    def test_gc_keeps_arena_bounded(self, gpu_device):
        gpu_device.submit("(defun f (x) (list x x x))")
        levels = []
        for _ in range(5):
            gpu_device.submit("(f (list 1 2 3))")
            levels.append(gpu_device.interp.arena.used)
        assert len(set(levels)) == 1  # steady state


class TestTimingComposition:
    def test_phase_times_positive(self, gpu_device):
        t = gpu_device.submit("(* 2 (+ 4 3) 6)").times
        assert t.parse_ms > 0
        assert t.eval_ms > 0
        assert t.print_ms > 0
        assert t.other_ms > 0
        assert t.transfer_ms > 0
        assert t.total_ms > t.kernel_ms

    def test_cache_stats_recorded(self, gpu_device):
        t = gpu_device.submit("(+ " + " ".join(["1"] * 200) + ")").times
        assert t.cache_misses > 0
        assert t.cache_hits > 0

    def test_parse_time_scales_with_input(self, gpu_device):
        small = gpu_device.submit("(+ 1 1)").times.parse_ms
        large = gpu_device.submit("(+ " + " ".join(["1"] * 500) + ")").times.parse_ms
        assert large > small * 20

    def test_print_time_scales_with_output(self, gpu_device):
        small = gpu_device.submit("(list 1)").times.print_ms
        large = gpu_device.submit("(list " + " ".join(["1"] * 500) + ")").times.print_ms
        assert large > small * 20

    def test_distribute_collect_within_eval(self, gpu_device):
        gpu_device.submit("(defun s (x) x)")
        t = gpu_device.submit("(||| 32 s (" + " ".join(["7"] * 32) + "))").times
        assert t.distribute_ms > 0
        assert t.collect_ms > 0
        assert t.worker_ms > 0
        assert t.eval_ms >= t.distribute_ms + t.collect_ms + t.worker_ms - 1e-9


class TestDeviceFleet:
    @pytest.mark.parametrize("spec", ALL_GPUS, ids=lambda s: s.name)
    def test_every_paper_gpu_boots_and_computes(self, spec):
        device = GPUDevice(spec)
        try:
            assert device.submit("(+ 20 22)").output == "42"
            assert device.base_latency_ms > 0
        finally:
            device.close()

    def test_base_latency_ordering_matches_paper(self):
        devices = {spec.name: GPUDevice(spec) for spec in (GTX480, GTX680, GTX1080)}
        try:
            lat = {name: d.base_latency_ms for name, d in devices.items()}
            assert lat["gtx480"] < lat["gtx680"] < lat["gtx1080"]
        finally:
            for d in devices.values():
                d.close()

    def test_memory_map_disjoint(self, gpu_device):
        regions = [
            gpu_device.input_region,
            gpu_device.output_region,
            gpu_device.arena_region,
            gpu_device.postbox_region,
        ]
        for i, a in enumerate(regions):
            for b in regions[i + 1:]:
                assert a.base + a.size <= b.base or b.base + b.size <= a.base
