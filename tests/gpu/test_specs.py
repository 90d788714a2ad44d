"""GPU specifications and the base-latency/derived-quantity model."""

import dataclasses

import pytest

from repro.gpu.costs import ARCH_COSTS, Arch
from repro.gpu.grid import GridConfig
from repro.gpu.specs import (
    ALL_GPUS,
    GPU_BY_NAME,
    GTX480,
    GTX680,
    GTX1080,
    TESLA_C2075,
    TESLA_K20,
    TESLA_M40,
)


class TestCatalog:
    def test_six_paper_gpus_plus_future(self):
        assert len(ALL_GPUS) == 6  # the paper's evaluation fleet
        assert set(GPU_BY_NAME) == {
            "tesla-c2075", "tesla-k20", "tesla-m40", "gtx480", "gtx680", "gtx1080",
            "tesla-v100",  # future-work projection, outside ALL_GPUS
        }

    def test_architectures(self):
        assert TESLA_C2075.arch is Arch.FERMI
        assert GTX480.arch is Arch.FERMI
        assert TESLA_K20.arch is Arch.KEPLER
        assert GTX680.arch is Arch.KEPLER
        assert TESLA_M40.arch is Arch.MAXWELL
        assert GTX1080.arch is Arch.PASCAL

    def test_cost_table_defaults_to_arch(self):
        for spec in ALL_GPUS:
            assert spec.costs is ARCH_COSTS[spec.arch]

    def test_fermi_l2_and_bus_story(self):
        # The paper's §IV explanation: 768 -> 512 KiB L2, 384 -> 256 bit.
        assert GTX480.l2_kib == 768 and GTX680.l2_kib == 512
        assert GTX480.bus_width_bits == 384 and GTX680.bus_width_bits == 256


class TestDerived:
    def test_cuda_cores(self):
        assert GTX480.sm_count * GTX480.cores_per_sm == 480
        assert GTX1080.sm_count * GTX1080.cores_per_sm == 2560
        assert TESLA_K20.sm_count * TESLA_K20.cores_per_sm == 2496

    def test_resident_blocks_and_workers(self):
        assert GTX480.resident_blocks == 15 * 8
        workers = GridConfig.for_spec(GTX480).worker_count
        assert workers == (GTX480.resident_blocks - 1) * 32

    def test_cycles_to_ms(self):
        assert GTX480.cycles_to_ms(1.4e6) == pytest.approx(1.0)

    def test_transfer_ms_has_latency_floor(self):
        assert GTX480.transfer_ms(0) == pytest.approx(GTX480.pcie_latency_us / 1e3)


class TestBaseLatencyModel:
    def test_more_vram_costs_more(self):
        small = dataclasses.replace(GTX1080, name="s", vram_gib=2.0)
        big = dataclasses.replace(GTX1080, name="b", vram_gib=16.0)
        assert big.base_latency_ms > small.base_latency_ms

    def test_paper_ordering(self):
        assert TESLA_C2075.base_latency_ms < TESLA_K20.base_latency_ms
        assert TESLA_K20.base_latency_ms < TESLA_M40.base_latency_ms
        assert GTX480.base_latency_ms < GTX680.base_latency_ms
        assert GTX680.base_latency_ms < GTX1080.base_latency_ms


class TestValidation:
    def test_bad_sm_count(self):
        with pytest.raises(ValueError):
            dataclasses.replace(GTX480, sm_count=0)

    def test_bad_warp_size(self):
        with pytest.raises(ValueError):
            dataclasses.replace(GTX480, warp_size=31)
