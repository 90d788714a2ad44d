"""PhaseBreakdown arithmetic (repro.timing)."""

import pytest

from repro.timing import CommandStats, PhaseBreakdown


def test_kernel_is_parse_eval_print():
    t = PhaseBreakdown(parse_ms=1.0, eval_ms=2.0, print_ms=3.0, other_ms=10.0)
    assert t.kernel_ms == 6.0


def test_total_includes_overheads():
    t = PhaseBreakdown(
        parse_ms=1.0, eval_ms=2.0, print_ms=3.0,
        other_ms=0.5, transfer_ms=0.25, host_ms=0.25,
    )
    assert t.total_ms == 7.0


def test_proportions_sum_to_one():
    t = PhaseBreakdown(parse_ms=1.0, eval_ms=1.0, print_ms=2.0)
    pr = t.proportions()
    assert pr["parse"] == pytest.approx(0.25)
    assert pr["print"] == pytest.approx(0.5)
    assert sum(pr.values()) == pytest.approx(1.0)


def test_proportions_of_zero_kernel():
    pr = PhaseBreakdown().proportions()
    assert pr == {"parse": 0.0, "eval": 0.0, "print": 0.0}


def test_accumulate_adds_fields():
    a = PhaseBreakdown(parse_ms=1.0, eval_ms=2.0, spin_cycles=10, cache_misses=3)
    b = PhaseBreakdown(parse_ms=0.5, print_ms=4.0, spin_cycles=5, cache_misses=1)
    a.accumulate(b)
    assert a.parse_ms == 1.5
    assert a.eval_ms == 2.0
    assert a.print_ms == 4.0
    assert a.spin_cycles == 15
    assert a.cache_misses == 4
    assert b.parse_ms == 0.5  # the addend is left as it was


def test_command_stats_defaults():
    stats = CommandStats()
    assert stats.output == ""
    assert stats.jobs == 0
    assert stats.times.total_ms == 0.0
