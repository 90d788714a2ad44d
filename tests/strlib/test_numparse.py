"""Atom classification and number parsing (the paper's §III-B-b rules)."""

import pytest

from repro.context import CountingContext, NullContext
from repro.ops import Op
from repro.strlib import AtomClass, classify_atom, numparse, parse_number


@pytest.fixture
def ctx():
    return NullContext()


class TestLooksNumeric:
    """The paper's first-character test: only a token that starts like a
    number is handed to the number parser."""

    @staticmethod
    def parsed(tok, monkeypatch):
        seen = []
        monkeypatch.setattr(numparse, "parse_number", lambda t, c: seen.append(t))
        classify_atom(tok, NullContext())
        return seen == [tok]

    @pytest.mark.parametrize("tok", ["1", "42", "+1", "-3", ".5", "E2", "9abc"])
    def test_numeric_start(self, tok, monkeypatch):
        assert self.parsed(tok, monkeypatch)

    @pytest.mark.parametrize("tok", ["abc", "*", "", "x1"])
    def test_non_numeric_start(self, tok, monkeypatch):
        assert not self.parsed(tok, monkeypatch)


class TestParseNumber:
    @pytest.mark.parametrize(
        "tok,value",
        [
            ("0", 0),
            ("42", 42),
            ("-17", -17),
            ("+5", 5),
            ("007", 7),
        ],
    )
    def test_integers(self, ctx, tok, value):
        result = parse_number(tok, ctx)
        assert result == value and isinstance(result, int)

    @pytest.mark.parametrize(
        "tok,value",
        [
            ("2.5", 2.5),
            ("-0.25", -0.25),
            (".5", 0.5),
            ("3.", 3.0),
            ("2E3", 2000.0),
            ("2e-2", 0.02),
            ("1.5e2", 150.0),
            ("-1.5E+1", -15.0),
        ],
    )
    def test_floats(self, ctx, tok, value):
        result = parse_number(tok, ctx)
        assert result == pytest.approx(value) and isinstance(result, float)

    @pytest.mark.parametrize(
        "tok", ["+", "-", ".", "E", "e5", "1.2.3", "12abc", "--3", "1e", ""]
    )
    def test_non_numbers(self, ctx, tok):
        assert parse_number(tok, ctx) is None


class TestClassifyAtom:
    @pytest.mark.parametrize(
        "tok,cls",
        [
            ('"txt"', AtomClass.STRING),
            ("nil", AtomClass.NIL),
            ("T", AtomClass.TRUE),
            ("t", AtomClass.TRUE),
            ("12", AtomClass.INT),
            ("1.5", AtomClass.FLOAT),
            ("2E1", AtomClass.FLOAT),
            ("+", AtomClass.SYMBOL),
            ("foo", AtomClass.SYMBOL),
            ("|||", AtomClass.SYMBOL),
        ],
    )
    def test_classes(self, ctx, tok, cls):
        got, _value = classify_atom(tok, ctx)
        assert got is cls

    def test_string_value_strips_quotes(self, ctx):
        _cls, value = classify_atom('"hello"', ctx)
        assert value == "hello"

    def test_nil_like_symbol(self, ctx):
        got, _ = classify_atom("nill", ctx)
        assert got is AtomClass.SYMBOL


class TestDigitLoopCharges:
    """The digit loop tallies its work and charges it once per token; the
    counts are the per-character ones: PARSE_STEP per sign, dot and digit,
    IMUL per digit, ALU per mantissa digit, FMUL for a float conversion."""

    @pytest.mark.parametrize(
        "tok,steps,imul,alu,fmul",
        [
            ("42", 2, 2, 2, 0),
            ("-17", 3, 2, 2, 0),
            ("2.5", 3, 2, 2, 1),
            ("1e-3", 2, 2, 1, 3),
            ("6.02E+23", 6, 5, 3, 6),
            ("12abc", 2, 2, 2, 0),  # trailing junk: charged, then a symbol
            ("1e", 1, 1, 1, 0),
            ("1.2.3", 3, 2, 2, 0),
            ("+", 1, 0, 0, 0),
            ("-.", 2, 0, 0, 0),
        ],
    )
    def test_counts(self, tok, steps, imul, alu, fmul):
        cctx = CountingContext()
        parse_number(tok, cctx)
        counts = cctx.counts
        assert counts.count_of(Op.PARSE_STEP) == steps
        assert counts.count_of(Op.IMUL) == imul
        assert counts.count_of(Op.ALU) == alu
        assert counts.count_of(Op.FMUL) == fmul
        assert counts.total_count() == steps + imul + alu + fmul
