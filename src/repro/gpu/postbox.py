"""Per-thread postboxes (paper Fig. 10/11).

"Each thread has its own, exclusive postbox which is stored in an array
in global memory." A postbox carries the ``active``/``work``/``sync``
flags and the ``io`` slot through which the master hands a sub-tree to a
worker and the worker returns its result. All flag traffic is atomic.
"""

from __future__ import annotations

from typing import Any

from ..context import ExecContext
from ..ops import Op
from .atomics import AtomicCell

__all__ = ["Postbox", "PostboxArray"]


class Postbox:
    """One worker's mailbox in global memory."""

    __slots__ = ("thread_id", "active", "work", "sync", "io")

    def __init__(self, thread_id: int) -> None:
        self.thread_id = thread_id
        self.active = AtomicCell(1)   # 0 => worker loop exits (kernel stop)
        self.work = AtomicCell(0)     # 1 => a job is waiting in io
        self.sync = AtomicCell(0)     # master/worker completion handshake
        self.io: Any = None           # the expression / result sub-tree

    def assign(self, expr: Any, ctx: ExecContext) -> None:
        """Master side: deposit a job and raise the flags (Fig. 11)."""
        self.io = expr
        self._store_flags(1, ctx)

    def complete(self, result: Any, ctx: ExecContext) -> None:
        """Worker side: deposit result, clear flags."""
        self.io = result
        self._store_flags(0, ctx)

    def _store_flags(self, value: int, ctx: ExecContext) -> None:
        """Store ``value`` into the work and sync flags: two atomic
        stores, charged as one ``ATOMIC_RMW`` of count 2 (an exact
        integer fold, DESIGN.md "Host-side charge folding")."""
        ctx.charge(Op.ATOMIC_RMW, 2)
        self.work.value = self.sync.value = value

    def collect(self, ctx: ExecContext) -> Any:
        """Master side: read the result back."""
        ctx.charge(Op.POSTBOX_READ)
        result = self.io
        self.io = None
        return result

    def deactivate(self, ctx: ExecContext) -> None:
        self.active.store(0, ctx)


class PostboxArray:
    """The global-memory array of postboxes, one per thread in the grid.

    A :class:`Postbox` object is built on first access. A box nobody has
    touched is still in its initial state (active, no work, no result),
    so it needs no object: a big grid costs nothing until its workers
    are used. Deactivating the never-touched boxes is charged as one
    bulk ``ATOMIC_RMW`` of the same count, so op-count rows and every
    box's flags equal those of an eagerly built array.
    """

    def __init__(self, n_threads: int) -> None:
        if n_threads <= 0:
            raise ValueError("postbox array needs at least one thread")
        self.n_threads = n_threads
        self._boxes: dict[int, Postbox] = {}
        #: deactivate_all sweeps so far: each stored 0 into the active
        #: flag of every box, including those not yet built.
        self._sweeps = 0

    def __len__(self) -> int:
        return self.n_threads

    def __getitem__(self, thread_id: int) -> Postbox:
        box = self._boxes.get(thread_id)
        if box is not None:
            return box
        if thread_id < 0:
            thread_id += self.n_threads
        if not 0 <= thread_id < self.n_threads:
            raise IndexError("postbox index out of range")
        box = self._boxes.get(thread_id)
        if box is None:
            box = self._boxes[thread_id] = Postbox(thread_id)
            if self._sweeps:
                box.active.value = 0
        return box

    def deactivate_all(self, ctx: ExecContext) -> None:
        """Master thread terminates: clear every worker's active flag."""
        for box in self._boxes.values():
            box.deactivate(ctx)
        untouched = self.n_threads - len(self._boxes)
        if untouched:
            ctx.charge(Op.ATOMIC_RMW, float(untouched))
        self._sweeps += 1
