"""C-style string comparison with charging."""

import pytest

from repro.context import CountingContext, NullContext
from repro.ops import Op
from repro.strlib import str_cmp


@pytest.fixture
def ctx():
    return NullContext()


class TestStrCmp:
    @pytest.mark.parametrize(
        "a,b,sign",
        [
            ("abc", "abc", 0),
            ("abc", "abd", -1),
            ("abd", "abc", 1),
            ("ab", "abc", -1),
            ("abc", "ab", 1),
            ("", "", 0),
            ("", "a", -1),
        ],
    )
    def test_sign(self, ctx, a, b, sign):
        result = str_cmp(a, b, ctx)
        assert (result > 0) - (result < 0) == sign

    def test_charges_up_to_first_difference(self):
        cctx = CountingContext()
        str_cmp("aaax", "aaay", cctx)
        # 3 equal pairs + the differing position
        assert cctx.counts.count_of(Op.SYM_CHAR_CMP) == 4

    def test_mismatch_at_first_char_is_cheap(self):
        cctx = CountingContext()
        str_cmp("x" + "a" * 100, "y" + "a" * 100, cctx)
        assert cctx.counts.count_of(Op.SYM_CHAR_CMP) == 1

    def test_equal_strings_charge_full_length(self):
        cctx = CountingContext()
        str_cmp("hello", "hello", cctx)
        assert cctx.counts.count_of(Op.SYM_CHAR_CMP) == 6  # 5 + terminator

