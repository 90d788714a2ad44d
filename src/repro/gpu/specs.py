"""Device specifications for the six GPUs in the paper's evaluation.

Hardware parameters (SM counts, clocks, cache sizes, bus widths, VRAM)
are the published specifications of the physical cards. The base-latency
model parameters (``driver_base_ms``, ``vram_map_ms_per_gib``) and the
per-command handshake overhead are calibrated to the paper's Fig. 14:
newer GPUs pay more for CUDA context creation (more VRAM to map, heavier
runtime), the GTX 680 starts ~6x faster than the GTX 1080 / Tesla M40,
and CPUs start >30x faster than any GPU.

Capability calibration (serving layer): every registry spec — the
paper's six cards, the Tesla V100, and the CPU backends — additionally
carries an empirical **capability** figure used by heterogeneous-fleet
placement: the modeled ms one request of a fixed probe batch costs on
that device, measured by :func:`repro.serve.capability.capability_probe_ms`
against the simulator itself (so it reflects per-arch op costs, service
-round parallelism, command overhead, and transfer — not a spec-sheet
guess). The same probe's two-point fit splits a batch's cost into a
fixed per-batch part and a per-request part
(:func:`repro.serve.capability.batch_cost_ms`: a batch of ``n`` costs
about ``batch_ms + n * request_ms``), which prices a session's chain of
queued tickets, one ticket per batch. The calibrated figures, with
scores relative to the GTX 1080:

===============  ================  ==================  ========  ==========
spec             probe ms/request  score (gtx1080=1x)  batch ms  request ms
===============  ================  ==================  ========  ==========
gtx480           0.00677           2.87x               0.04576   0.00391
gtx680           0.01517           1.28x               0.04046   0.01264
gtx1080          0.01940           1.00x               0.04836   0.01638
tesla-m40        0.04077           0.48x               0.06797   0.03652
tesla-v100       0.01155           1.68x               0.09431   0.00566
intel-e5-2620    0.00022           88.2x               0.00304   0.00003
amd-6272         0.00028           69.4x               0.00407   0.00003
===============  ================  ==================  ========  ==========

(tesla-c2075 and tesla-k20 probe like their arch siblings gtx480 and
gtx680 scaled by clocks.) The CPUs dominating on a *single* interactive
command is the paper's own CPU-vs-GPU result — one REPL command has
little parallelism for a GPU to exploit — and is exactly the asymmetry
capability-aware placement uses: latency-style traffic leans on CPU
devices, while wide batch sweeps still belong to the GPUs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ops import CostTable
from .costs import ARCH_COSTS, Arch

__all__ = [
    "GPUSpec",
    "TESLA_C2075",
    "TESLA_K20",
    "TESLA_M40",
    "GTX480",
    "GTX680",
    "GTX1080",
    "TESLA_V100",
    "ALL_GPUS",
    "FUTURE_GPUS",
    "GPU_BY_NAME",
]

WARP_SIZE = 32


@dataclass(frozen=True)
class GPUSpec:
    """Static description of one simulated GPU."""

    name: str
    arch: Arch
    year: int
    compute_capability: tuple[int, int]
    sm_count: int
    cores_per_sm: int
    core_clock_ghz: float
    mem_clock_eff_gtps: float        #: effective memory transfer rate, GT/s
    bus_width_bits: int
    l2_kib: int
    vram_gib: float
    max_blocks_per_sm: int           #: resident-block limit per SM
    pcie_gbps: float = 6.0           #: effective host<->device bandwidth
    pcie_latency_us: float = 5.0     #: per-transfer latency
    warp_size: int = WARP_SIZE
    driver_base_ms: float = 0.01     #: context-create fixed cost
    vram_map_ms_per_gib: float = 0.012
    command_overhead_us: float = 25.0  #: mapped-memory handshake per command
    l2_line_bytes: int = 128
    l2_assoc: int = 16
    max_recursion_depth: int = 512   #: device-stack limit for the evaluator
    #: Volta+ per-thread program counters: diverged lanes make forward
    #: progress, so the paper's busy-wait livelocks cannot occur.
    independent_thread_scheduling: bool = False
    costs: CostTable = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.costs is None:
            object.__setattr__(self, "costs", ARCH_COSTS[self.arch])
        if self.sm_count <= 0 or self.cores_per_sm <= 0:
            raise ValueError("SM configuration must be positive")
        if self.warp_size <= 0 or self.warp_size % 2:
            raise ValueError("warp size must be a positive even number")

    # -- derived quantities --------------------------------------------------

    @property
    def resident_blocks(self) -> int:
        """Blocks a persistent kernel may launch (all must be resident)."""
        return self.sm_count * self.max_blocks_per_sm

    @property
    def base_latency_ms(self) -> float:
        """Setup + graceful-stop time (paper Fig. 14).

        Modeled as CUDA context creation (driver fixed cost + VRAM
        mapping) plus kernel launch/teardown handshakes. The global-env
        build cost is added by the device at startup on top of this.
        """
        return self.driver_base_ms + self.vram_map_ms_per_gib * self.vram_gib

    @property
    def cycles_per_ms(self) -> float:
        """Core cycles per millisecond: ``cycles_to_ms`` divides by it."""
        return self.core_clock_ghz * 1e6

    def cycles_to_ms(self, cycles: float) -> float:
        return cycles / self.cycles_per_ms

    def transfer_ms(self, nbytes: int) -> float:
        """PCIe transfer time for one host<->device copy."""
        return self.pcie_latency_us / 1e3 + nbytes / (self.pcie_gbps * 1e6)


# ---------------------------------------------------------------------------
# The paper's GPU fleet (published card specifications)
# ---------------------------------------------------------------------------

TESLA_C2075 = GPUSpec(
    name="tesla-c2075", arch=Arch.FERMI, year=2011, compute_capability=(2, 0),
    sm_count=14, cores_per_sm=32, core_clock_ghz=1.15,
    mem_clock_eff_gtps=3.0, bus_width_bits=384, l2_kib=768, vram_gib=6.0,
    max_blocks_per_sm=8,
    driver_base_ms=0.010, vram_map_ms_per_gib=0.012,
)

TESLA_K20 = GPUSpec(
    name="tesla-k20", arch=Arch.KEPLER, year=2012, compute_capability=(3, 5),
    sm_count=13, cores_per_sm=192, core_clock_ghz=0.706,
    mem_clock_eff_gtps=5.2, bus_width_bits=320, l2_kib=1280, vram_gib=5.0,
    max_blocks_per_sm=16,
    driver_base_ms=0.012, vram_map_ms_per_gib=0.022,
)

TESLA_M40 = GPUSpec(
    name="tesla-m40", arch=Arch.MAXWELL, year=2015, compute_capability=(5, 2),
    sm_count=24, cores_per_sm=128, core_clock_ghz=0.948,
    mem_clock_eff_gtps=6.0, bus_width_bits=384, l2_kib=3072, vram_gib=12.0,
    max_blocks_per_sm=32,
    driver_base_ms=0.020, vram_map_ms_per_gib=0.026,
)

GTX480 = GPUSpec(
    name="gtx480", arch=Arch.FERMI, year=2010, compute_capability=(2, 0),
    sm_count=15, cores_per_sm=32, core_clock_ghz=1.40,
    mem_clock_eff_gtps=3.7, bus_width_bits=384, l2_kib=768, vram_gib=1.5,
    max_blocks_per_sm=8,
    driver_base_ms=0.010, vram_map_ms_per_gib=0.012,
)

GTX680 = GPUSpec(
    name="gtx680", arch=Arch.KEPLER, year=2012, compute_capability=(3, 0),
    sm_count=8, cores_per_sm=192, core_clock_ghz=1.006,
    mem_clock_eff_gtps=6.0, bus_width_bits=256, l2_kib=512, vram_gib=2.0,
    max_blocks_per_sm=16,
    driver_base_ms=0.010, vram_map_ms_per_gib=0.022,
)

GTX1080 = GPUSpec(
    name="gtx1080", arch=Arch.PASCAL, year=2016, compute_capability=(6, 1),
    sm_count=20, cores_per_sm=128, core_clock_ghz=1.607,
    mem_clock_eff_gtps=10.0, bus_width_bits=256, l2_kib=2048, vram_gib=8.0,
    max_blocks_per_sm=32,
    driver_base_ms=0.030, vram_map_ms_per_gib=0.040,
)

ALL_GPUS: tuple[GPUSpec, ...] = (
    TESLA_C2075, TESLA_K20, TESLA_M40, GTX480, GTX680, GTX1080,
)

# ---------------------------------------------------------------------------
# The Volta generation (paper Conclusion: "CuLi profits from new hardware
# generations"). A first-class registry member — available to the serving
# fleet and every device API — but deliberately *not* in ALL_GPUS: that
# tuple is the paper's published evaluation sweep (Figs. 13-16), which
# the V100 was never part of. The F1 trend experiment and the
# heterogeneous-fleet serving benches are its consumers.
# ---------------------------------------------------------------------------

TESLA_V100 = GPUSpec(
    name="tesla-v100", arch=Arch.VOLTA, year=2017, compute_capability=(7, 0),
    sm_count=80, cores_per_sm=64, core_clock_ghz=1.53,
    mem_clock_eff_gtps=1.75, bus_width_bits=4096, l2_kib=6144, vram_gib=16.0,
    max_blocks_per_sm=32, pcie_gbps=10.0,
    driver_base_ms=0.050, vram_map_ms_per_gib=0.045,
    independent_thread_scheduling=True,
)

#: Registry members beyond the paper's evaluation sweep. (The name is
#: historical — the V100 is a first-class device now; it just post-dates
#: the paper's figures, so ALL_GPUS must not grow it.)
FUTURE_GPUS: tuple[GPUSpec, ...] = (TESLA_V100,)

GPU_BY_NAME: dict[str, GPUSpec] = {
    spec.name: spec for spec in (*ALL_GPUS, *FUTURE_GPUS)
}
