"""Property: print-parse round-trips (hypothesis).

For any value tree CuLi can represent, printing it and re-parsing the
text yields a structurally equal tree; printing again yields the same
text (idempotent normal form).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.context import NullContext
from repro.core.builtins.helpers import nodes_equal
from repro.core.interpreter import Interpreter
from repro.core.reader import Parser
from tests.conftest import print_text

CTX = NullContext()

# Symbols must survive tokenization: no whitespace/parens/quotes, must
# not look like a number, nil or T.
_sym_alphabet = "abcdefghijklmnopqrstuvwxyz*/<>=!?-"
symbols = st.text(_sym_alphabet, min_size=1, max_size=8).filter(
    lambda s: s not in ("nil", "t") and s[0] not in "-0123456789."
)
ints = st.integers(min_value=-(2**31), max_value=2**31)
floats = st.floats(allow_nan=False, allow_infinity=False, width=32).filter(
    lambda f: abs(f) < 1e30
)
strings = st.text(
    st.characters(codec="ascii", exclude_characters='"\\\n\r\t\0'),
    max_size=12,
)


def atom_text(draw_value) -> str:
    return draw_value


atoms = st.one_of(
    ints.map(str),
    floats.map(repr),
    symbols,
    strings.map(lambda s: f'"{s}"'),
    st.just("nil"),
    st.just("T"),
)

trees = st.recursive(
    atoms,
    lambda children: st.lists(children, max_size=5).map(
        lambda items: "(" + " ".join(items) + ")"
    ),
    max_leaves=25,
)


def parse_one(interp, text):
    return Parser(interp, CTX).parse(text)[0]


@given(trees)
@settings(max_examples=200, deadline=None)
def test_print_parse_roundtrip(text):
    interp = Interpreter()
    first = parse_one(interp, text)
    printed = print_text(first, CTX)
    second = parse_one(interp, printed)
    assert nodes_equal(first, second, CTX)


@given(trees)
@settings(max_examples=200, deadline=None)
def test_printing_is_idempotent_normal_form(text):
    interp = Interpreter()
    once = print_text(parse_one(interp, text), CTX)
    twice = print_text(parse_one(interp, once), CTX)
    assert once == twice


@given(st.lists(trees, min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_top_level_form_count_preserved(texts):
    interp = Interpreter()
    source = " ".join(texts)
    forms = Parser(interp, CTX).parse(source)
    assert len(forms) == len(texts)
