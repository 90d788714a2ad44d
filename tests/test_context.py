"""Execution contexts (repro.context)."""

from repro.context import CountingContext, NullContext
from repro.gpu.cache import SetAssociativeCache
from repro.ops import Op, Phase


class TestNullContext:
    def test_charge_is_noop(self):
        ctx = NullContext()
        ctx.charge(Op.ALU, 1000)

    def test_touch_memory_is_noop(self):
        NullContext().touch_memory(123, 4)

    def test_carries_depth_and_thread(self):
        ctx = NullContext(max_depth=7, thread_id=3)
        assert ctx.max_depth == 7
        assert ctx.thread_id == 3


class TestCountingContext:
    def test_charges_into_current_phase(self):
        ctx = CountingContext()
        ctx.set_phase(Phase.PARSE)
        ctx.charge(Op.CHAR_LOAD, 5)
        ctx.set_phase(Phase.PRINT)
        ctx.charge(Op.CHAR_STORE, 3)
        assert ctx.counts.count_of(Op.CHAR_LOAD, Phase.PARSE) == 5
        assert ctx.counts.count_of(Op.CHAR_LOAD, Phase.PRINT) == 0
        assert ctx.counts.count_of(Op.CHAR_STORE, Phase.PRINT) == 3

    def test_reset_clears_counts_and_extra(self):
        ctx = CountingContext(miss_penalty=10.0)
        ctx.charge(Op.ALU)
        ctx.extra_cycles[ctx.phase] = 99.0
        ctx.reset()
        assert ctx.counts.total_count() == 0
        assert sum(ctx.extra_cycles) == 0

    def test_snapshot_is_copy(self):
        ctx = CountingContext()
        ctx.charge(Op.ALU)
        snap = ctx.snapshot()
        ctx.charge(Op.ALU)
        assert snap.count_of(Op.ALU) == 1
        assert ctx.counts.count_of(Op.ALU) == 2

    def test_cache_miss_penalty_accrues_per_phase(self):
        cache = SetAssociativeCache(64)
        ctx = CountingContext(cache=cache, miss_penalty=50.0)
        ctx.set_phase(Phase.PARSE)
        ctx.touch_memory(0)       # miss
        ctx.touch_memory(0)       # hit
        ctx.set_phase(Phase.PRINT)
        ctx.touch_memory(100_000)  # miss in another phase
        assert ctx.extra_cycles[Phase.PARSE] == 50.0
        assert ctx.extra_cycles[Phase.PRINT] == 50.0
        assert ctx.extra_cycles[Phase.EVAL] == 0.0

    def test_no_cache_no_penalty(self):
        ctx = CountingContext(miss_penalty=50.0)
        ctx.touch_memory(0)
        assert sum(ctx.extra_cycles) == 0.0
