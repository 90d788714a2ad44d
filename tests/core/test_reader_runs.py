"""The run-charging parser against the per-character scan, whole programs.

The reader corpus runs through :func:`tests.spec.runner.check_spec`,
against :class:`tests.spec.reference.CharScanParser` among the other
per-unit references, on every registry GPU spec's L2, a tiny 2-way cache
that thrashes, and none. The penalty is not a dyadic number, so a product
of misses would round differently from the repeated adds both sides make.
"""

from __future__ import annotations

import pytest

from repro.core.interpreter import Interpreter, InterpreterOptions
from repro.gpu.specs import ALL_GPUS, FUTURE_GPUS
from tests.spec.corpus import EXHAUSTION_TEXTS, READER
from tests.spec.runner import check_spec, outcomes

#: Source bases that start a text at, inside and across line boundaries.
BASES = (0, 1, 127, 128, 40_961)
THRASH = (1, 128, 2)
CACHES = {
    **{f"l2-{spec.name}": (spec.l2_kib, spec.l2_line_bytes, spec.l2_assoc)
       for spec in (*ALL_GPUS, *FUTURE_GPUS)},
    "thrash-1k-2way": THRASH,
    "no-cache": None,
}


def _check(options, texts=READER, cache=THRASH):
    return check_spec(texts, options, cache=cache, penalty=0.1 * 3.7, bases=BASES)


@pytest.mark.parametrize("cache", list(CACHES.values()), ids=list(CACHES))
def test_run_parser_matches_per_char_scan(cache):
    # The fast path without its parse cache, so every text is parsed.
    _check(InterpreterOptions.fast(parse_cache_capacity=0), cache=cache)


@pytest.mark.parametrize(
    "options",
    [
        InterpreterOptions(intern_symbols=True, indexed_roots=True),
        InterpreterOptions(atomic_arena_cursor=True),
    ],
    ids=["interned", "atomic-cursor"],
)
def test_run_parser_matches_under_options(options):
    _check(options)


def test_corpus_covers_every_outcome():
    # Guard the corpus itself: it must reach each parse error and succeed.
    reached = outcomes(_check(InterpreterOptions.fast()).outputs)
    assert {
        "ok",
        "empty input",
        "unterminated string",
        "unexpected ')'",
        "dangling quote",
        "missing ')'",
        "nesting too deep for the device parser stack",
    } <= reached


def test_arena_exhaustion_mid_parse_charges_the_same():
    # An arena too small for the tree fails part-way through the parse:
    # both scanners must have charged exactly the characters reached.
    used = Interpreter().arena.used
    for spare in range(1, 12):
        record = _check(InterpreterOptions(arena_capacity=used + spare), EXHAUSTION_TEXTS)
        assert record.outputs[0].startswith("error: ArenaExhaustedError")
