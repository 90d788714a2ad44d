"""The char-by-char parser (paper §III-B-b)."""

import random

import pytest

from repro.context import CountingContext
from repro.core import reader
from repro.core.nodes import NodeType
from repro.core.reader import Parser
from repro.errors import ParseError
from repro.ops import Op


@pytest.fixture
def parse(interp, ctx):
    def _parse(text):
        return Parser(interp, ctx).parse(text)

    return _parse


class TestAtoms:
    def test_integer(self, parse):
        (node,) = parse("42")
        assert node.ntype == NodeType.N_INT and node.ival == 42

    def test_negative_integer(self, parse):
        (node,) = parse("-17")
        assert node.ntype == NodeType.N_INT and node.ival == -17

    def test_float_with_dot(self, parse):
        (node,) = parse("2.5")
        assert node.ntype == NodeType.N_FLOAT and node.fval == 2.5

    def test_float_exponent_without_dot(self, parse):
        # strtod semantics: 2E3 is a float even without a dot.
        (node,) = parse("2E3")
        assert node.ntype == NodeType.N_FLOAT and node.fval == 2000.0

    def test_plus_alone_is_symbol(self, parse):
        # The paper's first-char rule would call '+' numeric; the number
        # parse fails and the token falls back to a symbol.
        (node,) = parse("+")
        assert node.ntype == NodeType.N_SYMBOL and node.sval == "+"

    def test_nil_and_t(self, parse):
        nil, t = parse("nil T")
        assert nil.ntype == NodeType.N_NIL
        assert t.ntype == NodeType.N_TRUE

    def test_string(self, parse):
        (node,) = parse('"hello world"')
        assert node.ntype == NodeType.N_STRING and node.sval == "hello world"

    def test_string_keeps_parens_and_spaces(self, parse):
        (node,) = parse('"a (b) c"')
        assert node.sval == "a (b) c"

    def test_symbol(self, parse):
        (node,) = parse("foo-bar!")
        assert node.ntype == NodeType.N_SYMBOL and node.sval == "foo-bar!"

    def test_dotted_number_like_symbol(self, parse):
        (node,) = parse("1.2.3")
        assert node.ntype == NodeType.N_SYMBOL  # trailing junk => not a number


class TestLists:
    def test_flat_list(self, parse):
        (lst,) = parse("(+ 1 2)")
        kinds = [c.ntype for c in lst.children()]
        assert kinds == [NodeType.N_SYMBOL, NodeType.N_INT, NodeType.N_INT]

    def test_nested_lists(self, parse):
        (lst,) = parse("(* 2 (+ 4 3) 6)")  # the paper's §III-A example
        children = list(lst.children())
        assert children[0].sval == "*"
        assert children[2].ntype == NodeType.N_LIST
        inner = list(children[2].children())
        assert inner[0].sval == "+" and inner[1].ival == 4

    def test_empty_list(self, parse):
        (lst,) = parse("()")
        assert lst.ntype == NodeType.N_LIST and lst.first is None

    def test_multiple_top_level_forms(self, parse):
        forms = parse("(+ 1 2) 7 (list)")
        assert len(forms) == 3

    def test_whitespace_variants(self, parse):
        (lst,) = parse("  (\t1   2\n3 )  ")
        assert [c.ival for c in lst.children()] == [1, 2, 3]

    def test_parse_tree_nodes_are_sealed(self, parse):
        (lst,) = parse("(1 (2) 3)")
        stack = [lst]
        while stack:
            node = stack.pop()
            assert node.sealed
            stack.extend(node.children())


class TestComments:
    def test_line_comment_skipped(self, parse):
        forms = parse("; a comment\n(+ 1 2) ; trailing\n7")
        assert len(forms) == 2
        assert forms[1].ival == 7

    def test_comment_inside_list(self, parse):
        (lst,) = parse("(1 ; ignored 9 9\n 2)")
        assert [c.ival for c in lst.children()] == [1, 2]

    def test_semicolon_in_string_is_literal(self, parse):
        (node,) = parse('"a;b"')
        assert node.sval == "a;b"


class TestQuoteSugar:
    def test_quote_expands(self, parse):
        (lst,) = parse("'x")
        children = list(lst.children())
        assert children[0].sval == "quote"
        assert children[1].sval == "x"


class TestErrors:
    @pytest.mark.parametrize(
        "text,match",
        [
            ("(1 2", "missing"),
            (")", "unexpected"),
            ('"abc', "unterminated"),
            ("", "empty input"),
            ("   ", "empty input"),
        ],
    )
    def test_bad_input(self, parse, text, match):
        with pytest.raises(ParseError, match=match):
            parse(text)

    def test_deep_nesting_rejected(self, parse):
        with pytest.raises(ParseError, match="nesting"):
            parse("(" * 600 + ")" * 600)


class TestCharging:
    def test_each_char_loaded_about_once(self, interp):
        cctx = CountingContext()
        text = "(+ 1 2 (* 3 4))"
        Parser(interp, cctx).parse(text)
        loads = cctx.counts.count_of(Op.CHAR_LOAD)
        # single-pass cursor: n chars + 1 terminator
        assert loads == len(text) + 1

    def test_longer_input_costs_more(self, interp):
        short, long = CountingContext(), CountingContext()
        Parser(interp, short).parse("(+ 1 2)")
        Parser(interp, long).parse("(+ " + " ".join(["1"] * 100) + ")")
        assert sum(long.counts.rows[long.phase]) > sum(short.counts.rows[short.phase])


def _regex_tokens(text):
    """The token regex's matches up to the end of the text, which it
    matches as an empty token."""
    tokens = reader._TOKEN.findall(text)
    return tokens[:tokens.index("")]


class TestTokens:
    """A plain text is split at whitespace, any other text is cut by the
    token regex, and error and exhaustion positions re-find tokens with
    the regex: on a plain text both cuts must agree token for token."""

    PLAIN = [c for c in map(chr, range(256)) if not reader._NOT_PLAIN.search(c)]

    def test_plain_characters_split_like_the_scan(self):
        for c in self.PLAIN:
            assert (c.split() == []) == (c in reader._WHITESPACE), repr(c)
        assert set("'\";").isdisjoint(self.PLAIN)

    def test_plain_texts_split_into_the_regex_tokens(self):
        rng = random.Random(0)
        alphabet = self.PLAIN + ["(", ")", " ", "12", "foo"] * 8
        for _ in range(2000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
            tokens, ascii_text = reader._tokens(text)
            assert ascii_text
            assert tokens == _regex_tokens(text), repr(text)

    def test_other_texts_take_the_regex(self):
        for text in ("'a", '"a b"', "a ; c", "a\x1cb", "\xa0x"):
            assert reader._NOT_PLAIN.search(text)
            assert reader._tokens(text)[0] == _regex_tokens(text)
