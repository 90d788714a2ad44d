"""ParseCache: memoized parse trees must be cheaper than re-parsing and
must never share structure between requests."""

import pytest

from repro.context import CountingContext, NullContext
from repro.core.interpreter import Interpreter, InterpreterOptions
from repro.ops import Op, Phase
from repro.runtime.parse_cache import ParseCache


def make_interp(capacity: int = 8) -> Interpreter:
    return Interpreter(
        options=InterpreterOptions(parse_cache_capacity=capacity)
    )


class TestCacheMechanics:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ParseCache(0)

    def test_hit_after_miss(self):
        interp = make_interp()
        ctx = NullContext()
        interp.prepare_command("(+ 1 2)", ctx)
        assert interp.parse_cache.stats.misses == 1
        interp.prepare_command("(+ 1 2)", ctx)
        assert interp.parse_cache.stats.hits == 1
        assert interp.parse_cache.stats.hit_rate == 0.5

    def test_lru_eviction(self):
        interp = make_interp(capacity=2)
        ctx = NullContext()
        interp.prepare_command("(+ 1 1)", ctx)
        interp.prepare_command("(+ 2 2)", ctx)
        interp.prepare_command("(+ 1 1)", ctx)  # refresh the first entry
        interp.prepare_command("(+ 3 3)", ctx)  # evicts (+ 2 2)
        cache = interp.parse_cache
        assert "(+ 1 1)" in cache and "(+ 3 3)" in cache
        assert "(+ 2 2)" not in cache
        assert cache.stats.evictions == 1

    def test_materialized_tree_matches_fresh_parse(self):
        interp = make_interp()
        ctx = NullContext()
        text = "(alpha (1 2.5) \"s\" nil T)"
        first = interp.prepare_command(text, ctx).steps[0].form
        second = interp.prepare_command(text, ctx).steps[0].form
        assert first is not second  # a private copy, never the template

        def shape(node):
            return (
                node.ntype,
                node.ival,
                node.fval,
                node.sval,
                node.sealed,
                node.linked,
                [shape(kid) for kid in node.children()],
            )

        assert shape(first) == shape(second)

    def test_gc_cannot_corrupt_templates(self):
        """Templates live outside the arena: collecting every request's
        garbage must not disturb later materializations."""
        interp = make_interp()
        ctx = NullContext()
        out1 = interp.process("(* 6 7)", ctx)
        interp.collect_garbage()
        out2 = interp.process("(* 6 7)", ctx)
        interp.collect_garbage()
        assert out1 == out2 == "42"

    def test_hit_charges_less_than_parse(self):
        """The point of the cache: a hit's PARSE-phase cycles are node
        copies, not CHAR_LOADs — far cheaper on parse-bound devices."""
        interp = make_interp()
        text = "(defun loop-sum (n acc) (if (< n 1) acc (loop-sum (- n 1) (+ acc n))))"

        miss_ctx = CountingContext()
        miss_ctx.set_phase(Phase.PARSE)
        interp.prepare_command(text, miss_ctx)

        hit_ctx = CountingContext()
        hit_ctx.set_phase(Phase.PARSE)
        interp.prepare_command(text, hit_ctx)

        assert miss_ctx.counts.count_of(Op.CHAR_LOAD) > len(text) - 1
        assert hit_ctx.counts.count_of(Op.CHAR_LOAD) == 0
        assert hit_ctx.counts.count_of(Op.PARSE_STEP) == 0
        assert hit_ctx.counts.count_of(Op.NODE_ALLOC) > 0

    def test_disabled_by_default(self):
        interp = Interpreter()
        assert interp.parse_cache is None


class TestNoLeakBetweenRequests:
    def test_results_do_not_alias_cached_trees(self):
        """Evaluating a materialized tree links its nodes into result
        lists; the next request must still see the original program."""
        interp = make_interp()
        ctx = NullContext()
        # The quoted list is returned (and linked) as the result.
        for _ in range(3):
            assert interp.process("'(1 2 3)", ctx) == "(1 2 3)"
            interp.collect_garbage()

    def test_redefinition_uses_private_body(self):
        interp = make_interp()
        ctx = NullContext()
        define = "(defun f (x) (+ x 1))"
        interp.process(define, ctx)
        assert interp.process("(f 1)", ctx) == "2"
        interp.collect_garbage()
        # Redefine through the cache hit; the old form becomes garbage.
        interp.process(define, ctx)
        interp.collect_garbage()
        assert interp.process("(f 1)", ctx) == "2"

    def test_env_sensitivity_preserved(self):
        """The same cached text must evaluate against each request's own
        environment, not capture the first one."""
        interp = make_interp()
        ctx = NullContext()
        assert interp.process("x", ctx) == "x"  # unbound: late binding
        interp.process("(setq x 5)", ctx)
        assert interp.process("x", ctx) == "5"  # same text, new meaning
