"""Atomic memory operations with serialization accounting.

The paper's kernel reads and writes postbox flags "using atomic memory
functions ... to prevent CUDA's transparent caching" and notes the
resulting performance penalty. We model each atomic cell as a value
whose every access is charged to the context that makes it, as an
``ATOMIC_RMW`` or ``ATOMIC_LOAD`` op; the charged op rows are the only
record of the traffic. Concurrent RMWs on one counter serialize, so
``width`` simultaneous accesses cost ``(width+1)/2`` RMWs on average.
Spin-wait loads are charged as loads — they do not delay completion (the
spinner was idle anyway) but burn energy, which the paper calls out as
the core inefficiency of GPU busy-waiting.
"""

from __future__ import annotations

from ..context import ExecContext
from ..ops import Op

__all__ = ["AtomicCell", "AtomicCounter"]


class AtomicCell:
    """One word of global memory accessed atomically."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0) -> None:
        self.value = value

    def load(self, ctx: ExecContext) -> int:
        ctx.charge(Op.ATOMIC_LOAD)
        return self.value

    def store(self, value: int, ctx: ExecContext) -> None:
        ctx.charge(Op.ATOMIC_RMW)
        self.value = value


class AtomicCounter:
    """A fetch-and-add counter (e.g. a shared arena cursor).

    ``fetch_add_contended`` charges the serialization penalty of ``width``
    threads hitting the counter in the same step: accesses queue at the
    memory unit, so the average thread waits ``(width+1)/2`` slots. Used
    by the shared-cursor arena ablation.
    """

    __slots__ = ("value",)

    def __init__(self, value: int = 0) -> None:
        self.value = value

    def fetch_add_contended(self, n: int, ctx: ExecContext, width: int) -> int:
        if width < 1:
            width = 1
        ctx.charge(Op.ATOMIC_RMW, (width + 1) / 2)
        old = self.value
        self.value += n
        return old
