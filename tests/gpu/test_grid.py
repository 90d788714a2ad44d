"""Grid geometry (paper §III-C-c, Fig. 12)."""

import pytest

from repro.gpu.grid import GridConfig
from repro.gpu.specs import GTX480, GTX1080, TESLA_C2075


class TestForSpec:
    def test_one_warp_per_block(self):
        grid = GridConfig.for_spec(GTX480)
        assert grid.block_size == 32
        assert grid.n_blocks == GTX480.resident_blocks

    def test_total_threads_multiple_of_32(self):
        for spec in (GTX480, GTX1080, TESLA_C2075):
            grid = GridConfig.for_spec(spec)
            assert grid.total_threads % 32 == 0


class TestWorkerMapping:
    def test_master_block_disabled_loses_a_block(self):
        grid = GridConfig.for_spec(GTX480)
        assert grid.worker_count == (grid.n_blocks - 1) * 32

    def test_master_block_enabled_loses_one_thread(self):
        grid = GridConfig.for_spec(GTX480, master_block_disabled=False)
        assert grid.worker_count == grid.total_threads - 1

    def test_worker_tids_skip_block_zero(self):
        grid = GridConfig.for_spec(GTX480)
        assert grid.worker_tid(0) == 32
        assert grid.worker_tid(31) == 63
        assert grid.worker_tid(32) == 64

    def test_worker_tid_bounds(self):
        grid = GridConfig.for_spec(GTX480)
        with pytest.raises(IndexError):
            grid.worker_tid(-1)
        with pytest.raises(IndexError):
            grid.worker_tid(grid.worker_count)

    def test_block_and_lane(self):
        """Worker slots skip block 0: worker 0 is lane 0 of block 1 and
        worker 33 lane 1 of block 2."""
        grid = GridConfig.for_spec(GTX480)
        assert divmod(grid.worker_tid(0), grid.block_size) == (1, 0)
        assert divmod(grid.worker_tid(33), grid.block_size) == (2, 1)


class TestWarpsForJobs:
    @pytest.mark.parametrize("jobs,warps", [(1, 1), (31, 1), (32, 1), (33, 2), (96, 3)])
    def test_ceiling_division(self, gpu_device, jobs, warps):
        """A dense round fills warps in order, so ``jobs`` jobs touch
        ceil(jobs / 32) warps (the kernel's round layout)."""
        assert gpu_device.engine._layout(False, jobs)[2] == warps


class TestPaperCapacities:
    def test_fermi_resident_workers(self):
        # Fermi: 8 blocks/SM resident; GTX 480 has 15 SMs => 120 blocks,
        # block 0 reserved => 119 * 32 = 3808 workers.
        assert GridConfig.for_spec(GTX480).worker_count == 3808

    def test_pascal_can_hold_the_full_sweep(self):
        # GTX 1080: 20 SMs x 32 blocks => one round for 4096 jobs.
        assert GridConfig.for_spec(GTX1080).worker_count >= 4096
