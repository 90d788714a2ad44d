"""Environment trees (paper §III-B-a)."""

import pytest

from repro.context import CountingContext, NullContext
from repro.core.environment import Environment
from repro.core.nodes import Node, NodeType
from repro.ops import Op


@pytest.fixture
def ctx():
    return NullContext()


def val(n: int) -> Node:
    node = Node(n, NodeType.N_INT)
    node.ival = n
    return node.seal()


class TestDefineLookup:
    def test_define_then_lookup(self, ctx):
        env = Environment()
        env.define("x", val(1), ctx)
        assert env.lookup("x", ctx).ival == 1

    def test_missing_symbol_returns_none(self, ctx):
        assert Environment().lookup("nope", ctx) is None

    def test_local_shadows_parent(self, ctx):
        parent = Environment()
        parent.define("x", val(1), ctx)
        child = parent.child()
        child.define("x", val(2), ctx)
        assert child.lookup("x", ctx).ival == 2
        assert parent.lookup("x", ctx).ival == 1

    def test_parent_chain_reachable(self, ctx):
        root = Environment()
        root.define("g", val(9), ctx)
        leaf = root.child().child().child()
        assert leaf.lookup("g", ctx).ival == 9

    def test_redefine_shadows_in_same_env(self, ctx):
        env = Environment()
        env.define("x", val(1), ctx)
        env.define("x", val(2), ctx)
        # The newest binding is found first (prepend semantics).
        assert env.lookup("x", ctx).ival == 2

    def test_lookup_local_ignores_parent(self, ctx):
        parent = Environment()
        parent.define("x", val(1), ctx)
        child = parent.child()
        assert child._find_here("x", ctx) is None
        assert parent._find_here("x", ctx).node.ival == 1


class TestSetNearest:
    def test_updates_local_binding(self, ctx):
        env = Environment()
        env.define("x", val(1), ctx)
        assert env.set_nearest("x", val(5), ctx) is True
        assert env.lookup("x", ctx).ival == 5

    def test_updates_nearest_not_outer(self, ctx):
        parent = Environment()
        parent.define("x", val(1), ctx)
        child = parent.child()
        child.define("x", val(2), ctx)
        child.set_nearest("x", val(7), ctx)
        assert child.lookup("x", ctx).ival == 7
        assert parent.lookup("x", ctx).ival == 1

    def test_updates_global_through_chain(self, ctx):
        root = Environment()
        root.define("x", val(1), ctx)
        leaf = root.child().child()
        leaf.set_nearest("x", val(3), ctx)
        assert root.lookup("x", ctx).ival == 3

    def test_unbound_symbol_lands_in_global(self, ctx):
        root = Environment()
        leaf = root.child().child()
        assert leaf.set_nearest("fresh", val(4), ctx) is False
        assert root.lookup("fresh", ctx).ival == 4  # root has no parent


class TestStructure:
    def test_global_env_walks_to_root(self):
        root = Environment()
        leaf = root.child().child()
        assert leaf.global_env() is root

    def test_depth(self):
        root = Environment()
        assert root.depth() == 0
        assert root.child().child().depth() == 2

    def test_len_counts_entries(self, ctx):
        env = Environment()
        for i in range(4):
            env.define(f"v{i}", val(i), ctx)
        assert len(env) == 4

    def test_entries_are_newest_first(self, ctx):
        env = Environment()
        env.define("a", val(1), ctx)
        env.define("b", val(2), ctx)
        assert [e.symbol for e in env.entries()] == ["b", "a"]


class TestCharging:
    def test_lookup_charges_env_steps_and_char_compares(self):
        cctx = CountingContext()
        env = Environment()
        env.define("alpha", val(1), cctx)
        env.define("beta", val(2), cctx)
        cctx.reset()
        env.lookup("alpha", cctx)
        # Walks beta (1 step, cmp mismatch) then alpha (1 step, full cmp).
        assert cctx.counts.count_of(Op.ENV_STEP) == 2
        assert cctx.counts.count_of(Op.SYM_CHAR_CMP) > 0

    def test_define_charges_allocation(self):
        cctx = CountingContext()
        Environment().define("x", val(1), cctx)
        assert cctx.counts.count_of(Op.NODE_ALLOC) == 1
        assert cctx.counts.count_of(Op.NODE_WRITE) == 2
