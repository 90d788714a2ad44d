"""Generational region GC (DESIGN.md deviation #7): nursery regions,
promotion write barriers, minor/major policy, and root dedup."""

import pytest

from repro.context import CountingContext, NullContext
from repro.core.arena import NodeArena
from repro.core.gc import collect_major, gather_roots
from repro.core.interpreter import Interpreter, InterpreterOptions
from repro.core.nodes import (
    REGION_FREE,
    REGION_TENURED,
    NodeType,
    promote_subgraph,
)
from repro.ops import Op


@pytest.fixture
def gen():
    return Interpreter(options=InterpreterOptions(gc_policy="generational"))


def run(interp, src):
    return interp.process(src, NullContext())


class TestRegions:
    def test_begin_and_reset(self):
        ctx = NullContext()
        arena = NodeArena(capacity=16)
        setup = arena.alloc(NodeType.N_INT, ctx)
        assert setup.region == REGION_TENURED
        rid = arena.begin_region()
        assert rid > REGION_TENURED
        nursery = [arena.alloc(NodeType.N_INT, ctx) for _ in range(3)]
        assert all(node.region == rid for node in nursery)
        freed, promoted = arena.reset_region()
        assert (freed, promoted) == (3, 0)
        assert not arena.region_active
        assert all(node.region == REGION_FREE for node in nursery)
        assert setup.region == REGION_TENURED
        assert arena.used == 1

    def test_begin_is_idempotent_within_a_batch(self):
        arena = NodeArena(capacity=8)
        rid = arena.begin_region()
        assert arena.begin_region() == rid

    def test_promoted_nodes_survive_reset(self):
        ctx = NullContext()
        arena = NodeArena(capacity=16)
        arena.begin_region()
        keep = arena.alloc(NodeType.N_INT, ctx)
        dies = arena.alloc(NodeType.N_INT, ctx)
        promote_subgraph(keep)
        freed, promoted = arena.reset_region()
        assert (freed, promoted) == (1, 1)
        assert keep.region == REGION_TENURED
        assert dies.region == REGION_FREE

    def test_reset_skips_a_node_already_freed(self):
        """A nursery node freed on its own is neither freed again nor
        counted as promoted by the reset, and the free list holds each
        node once."""
        ctx = NullContext()
        arena = NodeArena(capacity=16)
        arena.begin_region()
        nursery = [arena.alloc(NodeType.N_INT, ctx) for _ in range(4)]
        arena.free(nursery[1])
        assert arena.reset_region() == (3, 0)
        assert arena.gc_stats.nodes_promoted == 0
        assert arena.gc_stats.pure_resets == 1
        assert arena.used == 0
        assert arena.stats.frees == 4
        assert sorted(node.idx for node in arena._free) == [n.idx for n in nursery]

    def test_release_lists_freed_nodes_around_skipped_ones_in_order(self):
        ctx = NullContext()
        arena = NodeArena(capacity=16)
        arena.begin_region()
        nodes = [arena.alloc(NodeType.N_INT, ctx) for _ in range(6)]
        promote_subgraph(nodes[3])
        arena.free(nodes[1])
        arena._free.clear()
        freed, kept = arena.release(nodes, nodes[0].region)
        assert (freed, kept) == (4, [nodes[3]])
        assert arena._free == [nodes[0], nodes[2], nodes[4], nodes[5]]

    def test_promote_subgraph_walks_structure(self):
        ctx = NullContext()
        arena = NodeArena(capacity=16)
        arena.begin_region()
        lst = arena.alloc(NodeType.N_LIST, ctx)
        a = arena.alloc(NodeType.N_INT, ctx).seal()
        b = arena.alloc(NodeType.N_INT, ctx).seal()
        lst.append_child(a).append_child(b).seal()
        assert promote_subgraph(lst) == 3
        assert a.region == b.region == REGION_TENURED

    def test_link_barrier_promotes_child_under_tenured_tail(self):
        ctx = NullContext()
        arena = NodeArena(capacity=16)
        tenured = arena.alloc(NodeType.N_LIST, ctx)  # setup: tenured
        arena.begin_region()
        child = arena.alloc(NodeType.N_INT, ctx).seal()
        tenured.append_child(child)
        assert child.region == REGION_TENURED
        freed, _ = arena.reset_region()
        assert freed == 0


class TestGenerationalInterpreter:
    def test_temporaries_reclaimed_defuns_survive(self, gen):
        run(gen, "(defun sq (x) (* x x))")
        gen.collect_garbage()
        settled = gen.arena.used
        for _ in range(5):
            assert run(gen, "(sq 9)") == "81"
            freed = gen.collect_garbage()
            assert freed > 0
            assert gen.arena.used == settled
        assert gen.gc_stats.minor_collections == 6
        assert gen.gc_stats.major_collections == 0

    def test_pure_reset_when_nothing_escapes(self, gen):
        gen.collect_garbage()  # drop setup-command leftovers
        before = gen.gc_stats.pure_resets
        run(gen, "(+ 1 2 (* 3 4))")
        gen.collect_garbage()
        assert gen.gc_stats.pure_resets == before + 1

    def test_setq_value_survives_minor_collection(self, gen):
        run(gen, "(setq stash (list 1 2 3))")
        gen.collect_garbage()
        assert run(gen, "stash") == "(1 2 3)"

    def test_cons_shared_tail_with_tenured_head_survives(self, gen):
        """Regression: cons shares its tail chain by rewiring the head's
        sibling pointer. A previously-defined (tenured, never-linked)
        head is reused as-is, so that write is a tenured->nursery edge
        that must promote the tail before the region resets."""
        run(gen, "(setq x (+ 2 3))")
        gen.collect_garbage()
        run(gen, "(setq y (cons x (list 1 2)))")
        gen.collect_garbage()
        assert run(gen, "y") == "(5 1 2)"
        gen.collect_garbage()
        assert run(gen, "y") == "(5 1 2)"

    def test_setq_rebinding_promotes_new_value(self, gen):
        run(gen, "(setq stash 1)")
        gen.collect_garbage()
        run(gen, "(setq stash (list 4 5 6))")
        gen.collect_garbage()
        assert run(gen, "stash") == "(4 5 6)"

    def test_minor_collection_charges_o1_when_pure(self, gen):
        run(gen, "(+ 1 2 (* 3 4))")
        gctx = CountingContext()
        gen.collect_garbage(gctx)
        # One bump-pointer reset, no per-node work, no marking.
        assert gctx.counts.count_of(Op.NODE_WRITE) == 1
        assert gctx.counts.count_of(Op.NODE_READ) == 0

    def test_minor_collection_cost_scales_with_survivors_not_heap(self, gen):
        # Grow the tenured heap, then measure a no-escape command's cost.
        for i in range(64):
            run(gen, f"(defun helper-{i} (x) (+ x {i}))")
            gen.collect_garbage()
        run(gen, "(helper-3 4)")
        gctx = CountingContext()
        gen.collect_garbage(gctx)
        assert gctx.counts.total_count() == 1  # still the O(1) reset

    def test_pressure_triggers_major_collection(self):
        interp = Interpreter(
            options=InterpreterOptions(
                gc_policy="generational",
                arena_capacity=2048,
                gc_major_watermark=0.05,
            )
        )
        run(interp, "(setq junk (list 1 2 3 4 5 6 7 8))")
        interp.collect_garbage()
        # Re-binding makes the old tenured list garbage; only the
        # watermark-triggered major can reclaim it.
        run(interp, "(setq junk 1)")
        interp.collect_garbage()
        assert interp.gc_stats.major_collections >= 1
        assert run(interp, "junk") == "1"

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: past the watermark, every command runs a major "
        "collection even when it can free nothing"))
    def test_no_fruitless_major_collections(self):
        """The fresh interpreter's 130 nodes already pass the 120-node
        watermark of a 160-node arena. Ten commands that promote nothing
        and drop no binding leave no tenured garbage, so at most one major
        is due; today each of the ten runs one and frees 0 nodes."""
        interp = Interpreter(
            options=InterpreterOptions(gc_policy="generational", arena_capacity=160)
        )
        for _ in range(10):
            assert run(interp, "(+ 1 2)") == "3"
            interp.collect_garbage()
        assert interp.gc_stats.major_collections <= 1

    def test_explicit_collect_without_region_is_major(self, gen):
        env = gen.create_session_env()
        run_env = lambda src: gen.process(src, NullContext(), env=env)
        run_env("(setq big (list 1 2 3 4 5))")
        gen.collect_garbage()
        gen.release_session_env(env)
        freed = gen.collect_garbage()  # no open region -> full sweep
        assert freed > 0
        assert gen.gc_stats.major_collections >= 1

    def test_collect_major_is_oracle_noop_after_minor(self, gen):
        run(gen, "(defun keep (x) x)")
        gen.collect_garbage()
        # The fallback full sweep finds nothing the minor path missed.
        assert collect_major(gen) == 0

    def test_collect_major_refuses_dead_nursery_nodes(self, gen):
        """Between commands every live node is tenured; a sweep inside an
        open nursery must not quietly keep (or free) its dead nodes."""
        gen.arena.begin_region()
        dead = gen.arena.alloc(NodeType.N_INT, NullContext())
        with pytest.raises(RuntimeError, match="nursery"):
            collect_major(gen)
        assert dead.region > REGION_TENURED

    def test_literal_mode_never_opens_a_region(self):
        interp = Interpreter()  # gc_policy="literal"
        run(interp, "(defun sq (x) (* x x))")
        interp.collect_garbage()
        run(interp, "(sq 5)")
        interp.collect_garbage()
        assert not interp.arena.region_active
        assert interp.gc_stats.minor_collections == 0

    def test_literal_collection_is_uncharged(self):
        interp = Interpreter()
        run(interp, "(list 1 2 3)")
        gctx = CountingContext()
        interp.collect_garbage(gctx)
        assert gctx.counts.total_count() == 0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="gc_policy"):
            Interpreter(options=InterpreterOptions(gc_policy="bogus"))


class TestRootDedup:
    def test_shared_parent_scopes_visited_once(self):
        interp = Interpreter()
        n_global = len(interp.global_env)
        envs = [interp.create_session_env(f"t{i}") for i in range(8)]
        ctx = NullContext()
        for env in envs:
            env.define("private", interp.arena.new_int(1, ctx), ctx)
        roots = gather_roots(interp)
        # global scope contributes once, not once per session.
        assert len(roots) == n_global + len(envs) + 2  # + nil/true

    def test_dedup_does_not_lose_tenant_bindings(self):
        interp = Interpreter()
        a = interp.create_session_env("a")
        b = interp.create_session_env("b")
        run_a = lambda src: interp.process(src, NullContext(), env=a)
        run_b = lambda src: interp.process(src, NullContext(), env=b)
        run_a("(setq mine (list 1 2))")
        run_b("(setq mine (list 3 4))")
        interp.collect_garbage()
        assert run_a("mine") == "(1 2)"
        assert run_b("mine") == "(3 4)"


class TestEpochMarking:
    def test_major_sweep_never_hashes_nodes(self, monkeypatch):
        interp = Interpreter()
        run(interp, "(list 1 2 3)")
        monkeypatch.setattr(
            "repro.core.nodes.Node.__hash__",
            lambda self: pytest.fail("sweep hashed a node"),
        )
        interp.collect_garbage()

    def test_epoch_advances_per_major(self):
        interp = Interpreter()
        e0 = interp.arena._epoch
        interp.collect_garbage()
        interp.collect_garbage()
        assert interp.arena._epoch == e0 + 2
