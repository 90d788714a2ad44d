"""Grid geometry (paper §III-C-c).

"CuLi uses a CUDA kernel with a one-dimensional grid of thread blocks
... Since each block has 32 threads (exactly the size of a warp), the
grid size is a multiple of 32."

The persistent kernel launches exactly the number of blocks that can be
*resident* (every block spins in the worker loop, so a non-resident
block would never run). Block 0, thread 0 is the master; the other 31
threads of block 0 are disabled (Fig. 12) unless the ablation switch
re-enables them to demonstrate the livelock.
"""

from __future__ import annotations

from dataclasses import dataclass

from .specs import GPUSpec

__all__ = ["GridConfig"]


@dataclass(frozen=True)
class GridConfig:
    """Thread/block layout for one kernel launch."""

    n_blocks: int
    block_size: int
    master_block_disabled: bool = True

    @classmethod
    def for_spec(cls, spec: GPUSpec, master_block_disabled: bool = True) -> "GridConfig":
        return cls(
            n_blocks=spec.resident_blocks,
            block_size=spec.warp_size,
            master_block_disabled=master_block_disabled,
        )

    @property
    def total_threads(self) -> int:
        return self.n_blocks * self.block_size

    @property
    def master_tid(self) -> int:
        return 0

    @property
    def worker_count(self) -> int:
        """Threads available for ||| jobs."""
        if self.master_block_disabled:
            return (self.n_blocks - 1) * self.block_size
        return self.total_threads - 1  # everyone but the master itself

    def worker_tid(self, worker_index: int) -> int:
        """Global thread id of the i-th worker slot."""
        if worker_index < 0 or worker_index >= self.worker_count:
            raise IndexError(f"worker index {worker_index} out of range")
        if self.master_block_disabled:
            return self.block_size + worker_index  # skip block 0 entirely
        return worker_index + 1  # skip only the master thread
