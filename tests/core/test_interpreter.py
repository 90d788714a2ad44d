"""The Interpreter facade: process(), node utilities, output plumbing."""

import sys

import pytest

from repro.context import CountingContext, NullContext
from repro.core.interpreter import Interpreter, InterpreterOptions
from repro.core.nodes import NodeType
from repro.ops import Op, Phase


class TestProcess:
    def test_multiple_top_level_forms_print_all(self, run):
        assert run("(+ 1 1) (+ 2 2) (+ 3 3)") == "2 4 6"

    def test_phase_attribution(self, interp):
        ctx = CountingContext()
        interp.process("(+ 1 2)", ctx)
        assert ctx.counts.count_of(Op.CHAR_LOAD, Phase.PARSE) > 0
        assert ctx.counts.count_of(Op.CALL, Phase.EVAL) > 0
        assert ctx.counts.count_of(Op.CHAR_STORE, Phase.PRINT) > 0
        # No parse charges during eval or print:
        assert ctx.counts.count_of(Op.CHAR_LOAD, Phase.EVAL) == 0

    def test_custom_environment(self, interp, ctx):
        env = interp.global_env.child()
        env.define("x", interp.arena.new_int(9, ctx), ctx)
        assert interp.process("x", ctx, env=env) == "9"
        # An empty child env must still be honoured (not swapped for
        # the global env by a falsy-container bug).
        empty = interp.global_env.child()
        assert interp.process("(+ 1 1)", ctx, env=empty) == "2"


class TestNodeUtilities:
    def test_copy_node_shares_children(self, interp, ctx):
        from repro.core.reader import Parser

        (lst,) = Parser(interp, ctx).parse("(1 2 3)")
        clone = interp.copy_node(lst, ctx)
        assert clone is not lst
        assert clone.first is lst.first  # structure shared
        assert not clone.linked

    def test_linkable_copies_only_linked(self, interp, ctx):
        fresh = interp.arena.new_int(5, ctx)
        assert interp.linkable(fresh, ctx) is fresh
        fresh.linked = True
        assert interp.linkable(fresh, ctx) is not fresh

    def test_truthy_rules(self, interp, ctx):
        assert not interp.truthy(interp.nil, ctx)
        assert interp.truthy(interp.true, ctx)
        assert interp.truthy(interp.arena.new_int(0, ctx), ctx)
        empty = interp.arena.alloc(NodeType.N_LIST, ctx).seal()
        assert not interp.truthy(empty, ctx)


class TestOutputPlumbing:
    def test_scratch_output_when_none_pushed(self, interp):
        ctx = NullContext()
        out = interp.current_output(ctx)
        out.append("x")
        assert interp.current_output(ctx) is out

    def test_push_pop(self, interp, ctx):
        from repro.gpu.memory import OutputBuffer

        buf = OutputBuffer()
        buf.bind(ctx)
        interp.push_output(buf)
        assert interp.current_output(ctx) is buf
        assert interp.pop_output() is buf


class TestOptions:
    def test_arena_capacity_respected(self):
        interp = Interpreter(options=InterpreterOptions(arena_capacity=2048))
        assert interp.arena.capacity == 2048

    def test_setup_charges_go_to_given_context(self):
        ctx = CountingContext()
        ctx.set_phase(Phase.OTHER)
        Interpreter(setup_ctx=ctx)
        # ~100 builtins: one function node + one env entry each.
        assert ctx.counts.count_of(Op.NODE_ALLOC, Phase.OTHER) > 150

    def test_registry_size(self, interp):
        assert len(interp.registry) >= 95

    def test_building_an_interpreter_keeps_the_recursion_limit(self):
        """The package raises the limit once, on import; an interpreter
        never changes process state."""
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(5_000)
        try:
            Interpreter()
            assert sys.getrecursionlimit() == 5_000
        finally:
            sys.setrecursionlimit(saved)
