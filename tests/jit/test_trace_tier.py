"""Unit and regression tests for the trace tier itself: what compiles,
what bails, how guards fall back, and how the parse cache owns traces.

The differential property suite pins *behaviour*; this file pins the
*mechanism* — specific compile-bail reasons, guard-bail fallbacks after
redefinitions, the loud mid-trace invalidation corner, and the eviction
regression where a recycled cache key must never serve a stale trace.
"""

from __future__ import annotations

import pytest

from repro.context import CountingContext, NullContext
from repro.core.interpreter import Interpreter, InterpreterOptions
from repro.errors import ArityError, LispError
from repro.jit import (
    SPECIALS,
    TOp,
    TraceInvalidatedError,
    compile_form,
)
from repro.ops import Op


def jit_interp(threshold: int = 1, capacity: int = 64) -> Interpreter:
    return Interpreter(
        InterpreterOptions.fast(
            jit=True, jit_threshold=threshold, parse_cache_capacity=capacity
        )
    )


def template_of(interp: Interpreter, source: str):
    """Snapshot ``source``'s first top-level form as a cache template
    (what the compiler consumes). Runs the text once — the cache entry
    is populated at parse time, before any evaluation error."""
    ctx = NullContext(max_depth=256)
    try:
        interp.process(source, ctx)
    except LispError:
        interp.abort_command()
    entry = interp.parse_cache._entries[source]
    return entry.templates[0]


def compiled(interp: Interpreter, source: str):
    return compile_form(template_of(interp, source), interp)


class TestCompiler:
    def test_traceable_form_shapes(self):
        interp = jit_interp()
        for source in (
            "(+ 1 2)",
            "(setq x (* 2 3) y 4)",
            "(if (> a 1) (+ a 1) (- a 1))",
            "(progn 1 2 (+ 3 4))",
            "(and 1 (or x 2))",
            "(quote (a b c))",
            "()",
            "42",
            "just-a-symbol",
            "(user-fn 1 2 3)",  # unknown head: traced as a call guard
        ):
            assert compiled(interp, source) is not None, source

    def test_ret_is_always_last(self):
        interp = jit_interp()
        trace = compiled(interp, "(if 1 (+ 1 2) 3)")
        assert trace.instrs[-1].op == TOp.RET
        assert all(ins.op != TOp.RET for ins in trace.instrs[:-1])

    def test_compile_bails(self):
        interp = jit_interp()
        for source in (
            "(while (> x 0) (setq x (- x 1)))",  # node-level control flow
            "(cond ((> x 1) 2))",
            "(defun f (x) x)",                   # definitions stay walked
            "(lambda (x) x)",
            "(let ((x 1)) x)",
            "(mapcar f xs)",                     # higher-order family
            "(funcall f 1)",
            "((lambda (x) x) 1)",                # non-symbol head
            "(quote 1 2)",                       # malformed special shapes
            "(setq x)",
            "(setq 5 1)",
            "(if 1)",
            "(+ (setq - 9) (- 1))",              # setq target collides with head
            "(car)",                             # static arity violation
            "(car 1 2)",
        ):
            assert compiled(interp, source) is None, source

    def test_empty_list_compiles_to_pushnil(self):
        interp = jit_interp()
        trace = compiled(interp, "()")
        assert [ins.op for ins in trace.instrs] == [TOp.PUSHNIL, TOp.RET]

    def test_specials_all_guarded(self):
        """Every structurally-compiled special head gets a guard slot."""
        interp = jit_interp()
        trace = compiled(interp, "(progn (setq x (if 1 2 3)) (and x (or x 1)))")
        guarded = {slot.name for slot in trace.heads if slot.expect}
        assert guarded == {"progn", "setq", "if", "and", "or"}
        assert guarded <= SPECIALS

    def test_head_slots_deduplicated(self):
        interp = jit_interp()
        trace = compiled(interp, "(+ (+ 1 2) (+ 3 4) (+ 5 6))")
        assert len([s for s in trace.heads if s.name == "+"]) == 1


class TestGuardBailRegressions:
    """Redefining a name a compiled trace depends on must fall back to
    the tree-walker (or re-resolve) with correct results — never run a
    stale target and never crash."""

    def run_all(self, commands: list) -> list:
        interp = jit_interp(threshold=1)
        ctx = NullContext(max_depth=1024)
        return [interp.process(command, ctx) for command in commands]

    def check_against_treewalk(self, commands: list) -> list:
        jit_out = self.run_all(commands)
        walk = Interpreter(InterpreterOptions.fast())
        ctx = NullContext(max_depth=1024)
        walk_out = [walk.process(command, ctx) for command in commands]
        assert jit_out == walk_out
        return jit_out

    def test_defun_redefinition_is_picked_up(self):
        """Preflight re-resolves by name each run: a same-name defun
        swap changes the traced call's behaviour immediately."""
        out = self.check_against_treewalk(
            [
                "(defun f (x) (+ x 1))",
                "(f 10)", "(f 10)", "(f 10)",   # heat: trace through N_FORM f
                "(defun f (x) (* x 2))",
                "(f 10)",
            ]
        )
        assert out[1:4] == ["11", "11", "11"]
        assert out[-1] == "20"

    def test_defun_redefined_as_macro_bails(self):
        """An N_MACRO target fails the call-head guard: the hot text
        falls back to the tree-walker and expands the macro correctly."""
        interp = jit_interp(threshold=1)
        ctx = NullContext(max_depth=1024)
        commands = [
            "(defun g (x) (+ x 1))",
            "(g 4)", "(g 4)", "(g 4)",
            "(defmacro g (x) (list (quote *) x x))",
            "(g 4)",
        ]
        outputs = [interp.process(command, ctx) for command in commands]
        assert outputs[1:4] == ["5", "5", "5"]
        assert outputs[-1] == "16"
        assert interp.jit_stats.trace_hits >= 1
        assert interp.jit_stats.guard_bails >= 1

    def test_arity_change_matches_treewalk_error(self):
        """Same-name redefinition with a new arity: the traced call must
        raise the same Lisp-level error the tree-walker raises."""
        interp = jit_interp(threshold=1)
        ctx = NullContext(max_depth=1024)
        for command in (
            "(defun h (x) x)",
            "(h 1)", "(h 1)", "(h 1)",
            "(defun h (x y) (+ x y))",
        ):
            interp.process(command, ctx)
        with pytest.raises(ArityError):
            interp.process("(h 1)", ctx)
        interp.abort_command()
        assert interp.process("(h 1 2)", ctx) == "3"

    def test_unbound_head_heats_then_traces_after_defun(self):
        """A call to a not-yet-defined function bails (late binding
        prints the form) until the defun lands; then the same text runs
        traced with the new binding — no recompilation needed."""
        interp = jit_interp(threshold=1)
        ctx = NullContext(max_depth=1024)
        assert interp.process("(mystery 2)", ctx) == "(mystery 2)"
        assert interp.process("(mystery 2)", ctx) == "(mystery 2)"
        bails_before = interp.jit_stats.guard_bails
        assert bails_before >= 1
        interp.process("(defun mystery (x) (* x 21))", ctx)
        hits_before = interp.jit_stats.trace_hits
        assert interp.process("(mystery 2)", ctx) == "42"
        assert interp.jit_stats.trace_hits == hits_before + 1

    def test_builtin_shadowed_by_form_uses_form(self):
        """Session scope can shadow a builtin with a defun; the trace's
        preflight resolves the nearest binding, like the tree-walker."""
        self.check_against_treewalk(
            [
                "(+ 1 2)", "(+ 1 2)", "(+ 1 2)",
                "(defun plus2 (a b) (* a b))",
                "(plus2 1 2)", "(plus2 3 4)", "(plus2 3 4)",
            ]
        )

    def test_mid_trace_rebind_raises_loudly(self):
        """The documented corner (DESIGN.md deviation #10): a traced
        form whose user-form call rebinds a *later* head of the same
        trace fails loudly instead of running a stale target."""
        interp = jit_interp(threshold=1)
        ctx = NullContext(max_depth=1024)
        interp.process("(defun sneaky (x) (defun tail-fn (y) (* y 9)))", ctx)
        interp.process("(defun tail-fn (y) (+ y 1))", ctx)
        hot = "(progn (sneaky 0) (tail-fn 1))"
        # First sighting compiles; executions afterwards run traced and
        # hit the rebinding mid-trace.
        with pytest.raises(TraceInvalidatedError):
            for _ in range(3):
                interp.process(hot, ctx)
                interp.collect_garbage()
        interp.abort_command()
        # The session survives and the rebound function is live.
        assert interp.process("(tail-fn 1)", ctx) == "9"


class TestTraceChargesOnlyWhenRunning:
    def test_traced_run_charges_trace_steps(self):
        interp = jit_interp(threshold=1)
        ctx = CountingContext(max_depth=256)
        interp.process("(+ 1 2)", ctx)
        assert ctx.counts.count_of(Op.TRACE_STEP) == 0  # populating miss
        interp.process("(+ 1 2)", ctx)
        assert ctx.counts.count_of(Op.TRACE_STEP) > 0
        assert ctx.counts.count_of(Op.GUARD_CHECK) > 0

    def test_cold_threshold_never_charges(self):
        interp = Interpreter(
            InterpreterOptions.fast(jit=True, jit_threshold=10**9)
        )
        ctx = CountingContext(max_depth=256)
        for _ in range(5):
            interp.process("(+ 1 2)", ctx)
        assert ctx.counts.count_of(Op.TRACE_STEP) == 0
        assert ctx.counts.count_of(Op.GUARD_CHECK) == 0


class TestParseCacheTraceOwnership:
    """Satellite regression: traces live on the CacheEntry, so eviction
    and re-population drop them with the templates — a recycled key can
    never serve a stale trace for different source text."""

    def entry(self, interp, text):
        return interp.parse_cache._entries.get(text)

    def test_eviction_drops_compiled_traces(self):
        interp = jit_interp(threshold=1, capacity=2)
        ctx = NullContext(max_depth=256)
        hot = "(+ 1 2)"
        interp.process(hot, ctx)
        interp.process(hot, ctx)
        assert self.entry(interp, hot).traces is not None
        compiled_before = interp.jit_stats.traces_compiled
        # Two fresh texts evict the hot entry (capacity 2, LRU).
        interp.process("(+ 3 4)", ctx)
        interp.process("(+ 5 6)", ctx)
        assert self.entry(interp, hot) is None
        # Re-running the text re-parses, re-heats, and re-compiles.
        assert interp.process(hot, ctx) == "3"
        assert interp.process(hot, ctx) == "3"
        assert interp.jit_stats.traces_compiled > compiled_before

    def test_entry_reuse_counts_and_threshold(self):
        """Default threshold 3: miss + two hits -> third sighting runs
        traced; until then the tree-walker runs and no trace exists."""
        interp = jit_interp(threshold=3)
        ctx = CountingContext(max_depth=256)
        interp.process("(* 2 3)", ctx)
        interp.process("(* 2 3)", ctx)
        assert ctx.counts.count_of(Op.TRACE_STEP) == 0
        assert interp.jit_stats.traces_compiled == 0
        interp.process("(* 2 3)", ctx)
        assert interp.jit_stats.traces_compiled == 1
        assert ctx.counts.count_of(Op.TRACE_STEP) > 0

    def test_untraceable_text_marks_failure_once(self):
        """A hot-but-untraceable text records trace_failed so the
        compiler runs once per cached text, not once per request."""
        interp = jit_interp(threshold=1)
        ctx = NullContext(max_depth=256)
        text = "(let ((x 1)) x)"
        for _ in range(4):
            assert interp.process(text, ctx) == "1"
        entry = self.entry(interp, text)
        assert entry.trace_failed
        assert interp.jit_stats.traces_compiled == 0
        assert interp.jit_stats.trace_hits == 0

    def test_mixed_command_traces_only_traceable_forms(self):
        """A multi-form command traces the flat forms and walks the
        rest, step by step, with correct combined output."""
        interp = jit_interp(threshold=1)
        ctx = NullContext(max_depth=256)
        text = "(setq a 5) (let ((b 2)) (+ a b)) (* a 2)"
        first = interp.process(text, ctx)
        second = interp.process(text, ctx)
        assert first == second == "5 7 10"
        assert interp.jit_stats.trace_hits >= 1

    def test_jit_requires_parse_cache(self):
        with pytest.raises(ValueError):
            Interpreter(InterpreterOptions(jit=True))


class TestLiteralMaterialization:
    @staticmethod
    def hot_materializations(n: int) -> tuple[int, int]:
        """Nodes built and builder calls made by one traced execution of
        a form with ``n`` literal arguments."""
        interp = jit_interp(threshold=1)
        cache = interp.parse_cache
        calls = 0
        build = cache._build

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return build(*args, **kwargs)

        cache._build = counted
        text = "(+ " + " ".join(["1"] * n) + ")"
        ctx = NullContext(max_depth=256)
        assert interp.process(text, ctx) == str(n)  # compiles the trace
        calls = 0
        built0 = cache.stats.nodes_materialized
        assert interp.process(text, ctx) == str(n)  # runs it
        assert interp.jit_stats.trace_hits == 1
        return cache.stats.nodes_materialized - built0, calls

    def test_sibling_tail_walk_is_linear_in_literals(self):
        """Each literal rebuilds its sibling chain only up to the first
        link an earlier literal already wired; walking every chain to
        its end made a wide form quadratic in host time."""
        small, mid, large = (
            self.hot_materializations(n) for n in (1000, 2000, 4000)
        )
        assert small[0] >= 1000
        for fewer, more in ((small, mid), (mid, large)):
            assert more[0] <= 2.2 * fewer[0]  # nodes built
            assert more[1] <= 2.2 * fewer[1]  # builder calls
