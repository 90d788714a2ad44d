"""Execution contexts: how interpreter work is charged to a device.

The interpreter (``repro.core``) never knows which device it runs on. It
receives an :class:`ExecContext` and calls :meth:`ExecContext.charge` for
every primitive action. Device back-ends subclass or configure contexts:

* :class:`NullContext` — charging disabled; used by the sequential
  backend, by unit tests of pure semantics, and for the fast replication
  path in warp-representative fidelity.
* :class:`CountingContext` — accumulates op counts per phase; the GPU and
  CPU back-ends convert counts into cycles via a device cost table.

Contexts also carry the per-thread view of device services the interpreter
needs: the parallel-execution hook and the maximum recursion depth.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .ops import Op, OpCounts, Phase

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .gpu.cache import SetAssociativeCache

__all__ = ["ExecContext", "NullContext", "CountingContext"]


class ExecContext:
    """Base execution context.

    Subclasses override :meth:`charge` (the hot path) and optionally
    :meth:`touch_memory` for cache-model integration.
    """

    __slots__ = ("phase", "max_depth", "thread_id")

    def __init__(self, max_depth: int = 1024, thread_id: int = 0) -> None:
        self.phase = Phase.EVAL
        self.max_depth = max_depth
        self.thread_id = thread_id

    # -- hot path ----------------------------------------------------------

    def charge(self, op: Op, n: float = 1.0) -> None:  # pragma: no cover
        raise NotImplementedError

    def charge_many(self, ops: tuple, n: float = 1.0) -> None:
        """Charge several ops ``n`` times each in one call.

        The tight loops of the simulator (parser char scan, printer
        append) issue a fixed tuple of ops per step; folding them into
        one call halves the Python dispatch overhead on the hot path
        without changing any recorded count.
        """
        for op in ops:
            self.charge(op, n)

    def touch_memory(self, addr: int, size: int = 1) -> None:
        """Route an access through the cache model, if one is attached."""

    def touch_each(self, addr: int, size: int) -> None:
        """``size`` one-byte :meth:`touch_memory` calls from ``addr``, in
        order, made as one call (a scanned run of characters)."""

    def touch_spans(self, addr: int, sizes: list[int]) -> None:
        """One :meth:`touch_memory` call per size, for consecutive spans
        from ``addr`` in order, made as one call (a printed run)."""

    # -- phase bookkeeping ---------------------------------------------------

    def set_phase(self, phase: Phase) -> None:
        self.phase = phase


class NullContext(ExecContext):
    """A context that records nothing. Semantics only."""

    __slots__ = ()

    def charge(self, op: Op, n: float = 1.0) -> None:
        pass

    def charge_many(self, ops: tuple, n: float = 1.0) -> None:
        pass


class CountingContext(ExecContext):
    """Accumulates per-phase op counts; optionally drives a cache model.

    The ``cache`` (if set) is consulted by :meth:`touch_memory`; cache
    misses charge extra cycles into ``extra_cycles`` (indexed by phase)
    because miss penalties are expressed directly in cycles, not ops.
    """

    __slots__ = ("counts", "_row", "cache", "extra_cycles", "miss_penalty")

    def __init__(
        self,
        max_depth: int = 1024,
        thread_id: int = 0,
        cache: Optional["SetAssociativeCache"] = None,
        miss_penalty: float = 0.0,
    ) -> None:
        super().__init__(max_depth=max_depth, thread_id=thread_id)
        self.counts = OpCounts()
        self._row = self.counts.rows[self.phase]
        self.cache = cache
        self.miss_penalty = miss_penalty
        self.extra_cycles = [0.0, 0.0, 0.0, 0.0]

    def charge(self, op: Op, n: float = 1.0) -> None:
        self._row[op] += n

    def charge_many(self, ops: tuple, n: float = 1.0) -> None:
        row = self._row
        for op in ops:
            row[op] += n

    def set_phase(self, phase: Phase) -> None:
        self.phase = phase
        self._row = self.counts.rows[phase]

    def touch_memory(self, addr: int, size: int = 1) -> None:
        cache = self.cache
        if cache is None:
            return
        if not cache.access(addr, size):
            self.extra_cycles[self.phase] += self.miss_penalty

    def touch_each(self, addr: int, size: int) -> None:
        cache = self.cache
        if cache is None:
            return
        misses = cache.access_each(addr, size)
        if misses:
            # One add per miss, as the per-byte touches made them: a
            # product could round differently from the repeated adds.
            extra = self.extra_cycles[self.phase]
            penalty = self.miss_penalty
            for _ in range(misses):
                extra += penalty
            self.extra_cycles[self.phase] = extra

    def touch_spans(self, addr: int, sizes: list[int]) -> None:
        cache = self.cache
        if cache is None:
            return
        misses = cache.access_spans(addr, sizes)
        if misses:
            # One penalty add per missed span, as touch_memory adds it.
            extra = self.extra_cycles[self.phase]
            penalty = self.miss_penalty
            for _ in range(misses):
                extra += penalty
            self.extra_cycles[self.phase] = extra

    def reset(self) -> None:
        """Zero the counts (in place, no new rows) and the extra cycles."""
        self.counts.reset()
        self._row = self.counts.rows[self.phase]
        self.extra_cycles = [0.0, 0.0, 0.0, 0.0]

    def snapshot(self) -> OpCounts:
        return self.counts.copy()
