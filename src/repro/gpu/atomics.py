"""Atomic memory operations with serialization accounting.

The paper's kernel reads and writes postbox flags "using atomic memory
functions ... to prevent CUDA's transparent caching" and notes the
resulting performance penalty. We model each atomic cell as a value plus
a contention counter: concurrent RMWs on one cell serialize, so the k-th
simultaneous access pays k times the base cost. Spin-wait loads are
tracked separately — they do not delay completion (the spinner was idle
anyway) but burn energy, which the paper calls out as the core
inefficiency of GPU busy-waiting.
"""

from __future__ import annotations

from ..context import ExecContext
from ..ops import Op

__all__ = ["AtomicCell", "AtomicCounter"]


class AtomicCell:
    """One word of global memory accessed atomically."""

    __slots__ = ("value", "rmw_count", "load_count")

    def __init__(self, value: int = 0) -> None:
        self.value = value
        self.rmw_count = 0
        self.load_count = 0

    def load(self, ctx: ExecContext) -> int:
        ctx.charge(Op.ATOMIC_LOAD)
        self.load_count += 1
        return self.value

    def store(self, value: int, ctx: ExecContext) -> None:
        ctx.charge(Op.ATOMIC_RMW)
        self.rmw_count += 1
        self.value = value


class AtomicCounter:
    """A fetch-and-add counter (e.g. a shared arena cursor).

    ``fetch_add_contended`` charges the serialization penalty of ``width``
    threads hitting the counter in the same step: accesses queue at the
    memory unit, so the average thread waits ``(width+1)/2`` slots. Used
    by the shared-cursor arena ablation.
    """

    __slots__ = ("value", "rmw_count")

    def __init__(self, value: int = 0) -> None:
        self.value = value
        self.rmw_count = 0

    def fetch_add_contended(self, n: int, ctx: ExecContext, width: int) -> int:
        if width < 1:
            width = 1
        ctx.charge(Op.ATOMIC_RMW, (width + 1) / 2)
        self.rmw_count += 1
        old = self.value
        self.value += n
        return old
