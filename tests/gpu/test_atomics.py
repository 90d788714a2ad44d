"""Atomic cells and counters."""

from repro.context import CountingContext
from repro.gpu.atomics import AtomicCell, AtomicCounter
from repro.ops import Op


class TestAtomicCell:
    def test_load_store(self):
        ctx = CountingContext()
        cell = AtomicCell(3)
        assert cell.load(ctx) == 3
        cell.store(7, ctx)
        assert cell.load(ctx) == 7
        assert ctx.counts.count_of(Op.ATOMIC_RMW) == 1
        assert ctx.counts.count_of(Op.ATOMIC_LOAD) == 2

    def test_charging(self):
        ctx = CountingContext()
        cell = AtomicCell()
        cell.store(1, ctx)
        cell.load(ctx)
        assert ctx.counts.count_of(Op.ATOMIC_RMW) == 1
        assert ctx.counts.count_of(Op.ATOMIC_LOAD) == 1


class TestAtomicCounter:
    def test_fetch_add(self):
        """A lone thread's fetch-add returns the old value and costs one RMW."""
        ctx = CountingContext()
        counter = AtomicCounter()
        assert counter.fetch_add_contended(3, ctx, width=1) == 0
        assert counter.fetch_add_contended(2, ctx, width=1) == 3
        assert counter.value == 5
        assert ctx.counts.count_of(Op.ATOMIC_RMW) == 2

    def test_contended_serialization_cost(self):
        """k simultaneous RMWs serialize: average wait (k+1)/2 slots."""
        ctx = CountingContext()
        counter = AtomicCounter()
        counter.fetch_add_contended(1, ctx, width=31)
        assert ctx.counts.count_of(Op.ATOMIC_RMW) == 16.0

    def test_contended_with_single_thread_is_plain(self):
        ctx = CountingContext()
        AtomicCounter().fetch_add_contended(1, ctx, width=1)
        assert ctx.counts.count_of(Op.ATOMIC_RMW) == 1.0

    def test_width_floor(self):
        ctx = CountingContext()
        AtomicCounter().fetch_add_contended(1, ctx, width=0)
        assert ctx.counts.count_of(Op.ATOMIC_RMW) == 1.0
