"""CPU specifications for the paper's two baseline systems (§IV).

"The only system that has no GPU is equipped with four AMD 6272 CPUs
(64 cores, 1.8 GHz and 128 GiB DDR3 RAM). All other nodes are equipped
with an Intel Xeon E5-2620 CPU (6 core + hyperthreads, 2.00 GHz, and
16 GiB DDR3 RAM)."

The base-latency model reflects what the paper measured: CPU startup is
just allocating the node array and building the global environment — no
CUDA context, no kernel launch — which is why CPUs start >30x faster
than any GPU (Fig. 14).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..gpu.costs import CPU_AMD_COSTS, CPU_INTEL_COSTS
from ..ops import CostTable

__all__ = ["CPUSpec", "INTEL_E5_2620", "AMD_6272", "ALL_CPUS", "CPU_BY_NAME"]


@dataclass(frozen=True)
class CPUSpec:
    """Static description of one simulated CPU system."""

    name: str
    year: int
    sockets: int
    cores_per_socket: int
    threads_per_core: int
    clock_ghz: float
    ram_gib: int
    setup_us: float                 #: malloc + misc process setup
    command_overhead_us: float      #: condvar wake + queue handling
    max_recursion_depth: int = 4096
    costs: CostTable = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.costs is None:
            raise ValueError("CPUSpec requires a cost table")

    @property
    def cores(self) -> int:
        return self.sockets * self.cores_per_socket

    @property
    def hw_threads(self) -> int:
        return self.cores * self.threads_per_core

    @property
    def cycles_per_ms(self) -> float:
        """Core cycles per millisecond: ``cycles_to_ms`` divides by it."""
        return self.clock_ghz * 1e6

    def cycles_to_ms(self, cycles: float) -> float:
        return cycles / self.cycles_per_ms


INTEL_E5_2620 = CPUSpec(
    name="intel-e5-2620",
    year=2012,
    sockets=1,
    cores_per_socket=6,
    threads_per_core=2,   # "6 core + hyperthreads"
    clock_ghz=2.00,
    ram_gib=16,
    setup_us=0.45,
    command_overhead_us=2.0,
    costs=CPU_INTEL_COSTS,
)

AMD_6272 = CPUSpec(
    name="amd-6272",
    year=2011,
    sockets=4,
    cores_per_socket=16,  # "four AMD 6272 CPUs (64 cores)"
    threads_per_core=1,
    clock_ghz=1.80,
    ram_gib=128,
    setup_us=0.60,
    command_overhead_us=3.0,
    costs=CPU_AMD_COSTS,
)

ALL_CPUS: tuple[CPUSpec, ...] = (INTEL_E5_2620, AMD_6272)
CPU_BY_NAME: dict[str, CPUSpec] = {spec.name: spec for spec in ALL_CPUS}
