"""The result printer (paper §III-B-d)."""

import pytest

from repro.context import CountingContext, NullContext
from repro.core.nodes import NodeType
from repro.core.printer import Printer
from repro.core.reader import Parser
from repro.gpu.memory import OutputBuffer
from repro.ops import Op
from tests.conftest import print_text


@pytest.fixture
def show(interp, ctx):
    def _show(source, readable=True):
        parsed = Parser(interp, ctx).parse(source)
        return " ".join(print_text(n, ctx, readable=readable) for n in parsed)

    return _show


class TestPrimitives:
    def test_integers(self, show):
        assert show("42") == "42"
        assert show("-7") == "-7"

    def test_floats_keep_a_marker(self, show):
        assert show("2.5") == "2.5"
        assert show("2.0") == "2.0"  # never prints as bare '2'

    def test_nil_and_t(self, show):
        assert show("nil") == "nil"
        assert show("T") == "T"

    def test_symbols(self, show):
        assert show("foo") == "foo"

    def test_strings_readable_vs_princ(self, show):
        assert show('"hi"') == '"hi"'
        assert show('"hi"', readable=False) == "hi"


class TestLists:
    def test_flat(self, show):
        assert show("(1 2 3)") == "(1 2 3)"

    def test_nested(self, show):
        assert show("(1 (2 (3)) 4)") == "(1 (2 (3)) 4)"

    def test_empty(self, show):
        assert show("()") == "()"

    def test_mixed_types(self, show):
        assert show('(x 1 2.5 "s" nil)') == '(x 1 2.5 "s" nil)'


class TestCallables:
    def test_builtin_rendering(self, run):
        assert run("+").startswith("#<builtin")

    def test_form_rendering(self, run):
        run("(defun f (x) x)")
        assert run("f") == "#<form f>"

    def test_lambda_rendering(self, run):
        assert run("(lambda (x) x)") == "#<form lambda>"

    def test_macro_rendering(self, run):
        run("(defmacro m (x) x)")
        assert run("m") == "#<macro m>"


class TestCharging:
    def test_chars_are_charged(self, interp):
        cctx = CountingContext()
        node = interp.arena.new_int(12345, cctx)
        out = OutputBuffer()
        out.bind(cctx)
        Printer(cctx).print_node(node, out)
        assert out.getvalue() == "12345"
        assert cctx.counts.count_of(Op.CHAR_STORE) == 5
        assert cctx.counts.count_of(Op.PRINT_STEP) == 5
        # itoa: one integer division per digit
        assert cctx.counts.count_of(Op.IDIV) == 5

    def test_deep_lists_print_iteratively(self, interp):
        # 10k-deep nesting must not hit Python's recursion limit.
        ctx = NullContext()
        node = interp.arena.new_int(1, ctx)
        for _ in range(10_000):
            lst = interp.arena.alloc(NodeType.N_LIST, ctx)
            lst.append_child(node)
            node = lst.seal()
        text = print_text(node, ctx)
        assert text == "(" * 10_000 + "1" + ")" * 10_000
