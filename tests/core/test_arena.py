"""The fixed-size node arena (paper §III-A-c)."""

import pytest

from repro.context import CountingContext, NullContext
from repro.core.arena import NodeArena
from repro.core.nodes import NodeType
from repro.errors import ArenaExhaustedError
from repro.ops import Op
from tests.conftest import allocated_nodes


@pytest.fixture
def ctx():
    return NullContext()


class TestCapacity:
    def test_exhaustion_raises(self, ctx):
        arena = NodeArena(capacity=3)
        for _ in range(3):
            arena.alloc(NodeType.N_INT, ctx)
        with pytest.raises(ArenaExhaustedError, match="exhausted"):
            arena.alloc(NodeType.N_INT, ctx)

    def test_free_makes_room(self, ctx):
        arena = NodeArena(capacity=1)
        node = arena.alloc(NodeType.N_INT, ctx)
        arena.free(node)
        arena.alloc(NodeType.N_SYMBOL, ctx)  # must not raise

    def test_free_count(self, ctx):
        """Capacity minus the nodes in use is what still fits."""
        arena = NodeArena(capacity=10)
        arena.alloc(NodeType.N_INT, ctx)
        assert arena.used == 1
        for _ in range(9):
            arena.alloc(NodeType.N_INT, ctx)
        with pytest.raises(ArenaExhaustedError):
            arena.alloc(NodeType.N_INT, ctx)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            NodeArena(capacity=0)

    def test_double_free_detected(self, ctx):
        arena = NodeArena(capacity=2)
        node = arena.alloc(NodeType.N_INT, ctx)
        arena.free(node)
        with pytest.raises(ArenaExhaustedError, match="double free"):
            arena.free(node)


class TestRecycling:
    def test_reused_node_is_reset(self, ctx):
        arena = NodeArena(capacity=1)
        node = arena.alloc(NodeType.N_LIST, ctx)
        node.set_str("junk")
        node.first = node  # deliberately leave garbage wiring behind
        node.linked = True
        node.seal()
        node.first = None  # break the self-cycle before freeing
        arena.free(node)
        again = arena.alloc(NodeType.N_INT, ctx)
        assert again is node
        assert again.ntype == NodeType.N_INT
        assert again.sval == ""
        assert again.first is None
        assert not again.sealed
        assert not again.linked

    def test_freed_node_leaks_no_prior_request_state(self, ctx):
        """Regression: a node returned to the free list must not carry
        its previous life's symbol id, parameter list, or subgraph
        pointers — neither while parked on the free list (where stale
        pointers would pin dead subgraphs) nor when recycled."""
        arena = NodeArena(capacity=4)
        params = arena.alloc(NodeType.N_LIST, ctx).seal()
        form = arena.alloc(NodeType.N_FORM, ctx)
        form.set_str("secret-fn").set_params(params)
        form.sym_id = 42
        form.first = arena.alloc(NodeType.N_INT, ctx).seal()
        form.seal()
        arena.free(form)
        # Parked on the free list: every value/link field is cleared.
        assert form.sym_id == -1
        assert form.params is None
        assert form.first is None
        assert form.sval == ""
        assert not form.sealed
        recycled = arena.alloc(NodeType.N_SYMBOL, ctx)
        assert recycled is form
        assert recycled.sym_id == -1
        assert recycled.params is None

    def test_stats_track_allocs_frees_peak(self, ctx):
        arena = NodeArena(capacity=8)
        nodes = [arena.alloc(NodeType.N_INT, ctx) for _ in range(5)]
        for node in nodes[:2]:
            arena.free(node)
        assert arena.stats.allocs == 5
        assert arena.stats.frees == 2
        assert arena.stats.peak_used == 5
        assert arena.used == 3


class TestConstructors:
    def test_new_number_dispatches_on_type(self, ctx):
        arena = NodeArena(capacity=8)
        assert arena.new_number(3, ctx).ntype == NodeType.N_INT
        assert arena.new_number(3.0, ctx).ntype == NodeType.N_FLOAT

    def test_new_number_rejects_bool(self, ctx):
        arena = NodeArena(capacity=8)
        with pytest.raises(TypeError):
            arena.new_number(True, ctx)

    def test_new_bool(self, ctx):
        arena = NodeArena(capacity=8)
        assert arena.new_bool(True, ctx).ntype == NodeType.N_TRUE
        assert arena.new_bool(False, ctx).ntype == NodeType.N_NIL

    def test_constructors_seal(self, ctx):
        arena = NodeArena(capacity=8)
        for node in (
            arena.new_int(1, ctx),
            arena.new_float(1.5, ctx),
            arena.new_string("s", ctx),
            arena.new_symbol("x", ctx),
            arena.new_nil(ctx),
            arena.new_true(ctx),
        ):
            assert node.sealed


class TestCharging:
    def test_alloc_charges_node_alloc(self):
        cctx = CountingContext()
        arena = NodeArena(capacity=8)
        arena.alloc(NodeType.N_INT, cctx)
        assert cctx.counts.count_of(Op.NODE_ALLOC) == 1

    def test_atomic_cursor_mode_charges_contended_rmw(self):
        cctx = CountingContext()
        arena = NodeArena(capacity=8, atomic_cursor=True)
        arena.contention_width = 31
        arena.alloc(NodeType.N_INT, cctx)
        # (width + 1) / 2 = 16 serialized slots
        assert cctx.counts.count_of(Op.ATOMIC_RMW) == 16

    def test_default_mode_charges_no_atomics(self):
        cctx = CountingContext()
        arena = NodeArena(capacity=8)
        arena.alloc(NodeType.N_INT, cctx)
        assert cctx.counts.count_of(Op.ATOMIC_RMW) == 0

    def test_allocated_nodes_snapshot(self):
        ctx = NullContext()
        arena = NodeArena(capacity=8)
        a = arena.alloc(NodeType.N_INT, ctx)
        b = arena.alloc(NodeType.N_INT, ctx)
        snap = allocated_nodes(arena)
        assert snap == {a, b}
        arena.free(a)
        assert allocated_nodes(arena) == {b}
        assert snap == {a, b}  # a copy, not a live view
