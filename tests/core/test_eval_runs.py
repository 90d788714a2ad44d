"""The fused builtin call against the per-node evaluator, whole programs.

The eval corpus runs through :func:`tests.spec.runner.check_spec`, against
:class:`tests.spec.reference.ReferenceEvaluator` among the other per-unit
references, under literal, fast and fast+JIT options.
"""

from __future__ import annotations

import pytest

from repro.core.interpreter import InterpreterOptions
from tests.spec.corpus import EVAL, nesting_sweep
from tests.spec.runner import check_spec, outcomes

OPTIONS = {
    "literal": InterpreterOptions(),
    "fast": InterpreterOptions.fast(),
    "fast-jit": InterpreterOptions.fast(jit=True),
}


@pytest.mark.parametrize("options", list(OPTIONS.values()), ids=list(OPTIONS))
def test_fused_calls_match_per_node_evaluator(options):
    check_spec(EVAL, options, max_depth=512)


def test_corpus_covers_every_outcome():
    # Guard the corpus itself: it must reach each eval error and succeed,
    # here on a thrashing cache with a penalty that is not dyadic.
    record = check_spec(EVAL, InterpreterOptions.fast(), cache=(1, 128, 2),
                        penalty=0.1 * 3.7, max_depth=512)
    assert {"ok", "ArityError", "TypeMismatchError", "RecursionDepthError"} <= outcomes(record.outputs)


@pytest.mark.parametrize("options", list(OPTIONS.values()), ids=list(OPTIONS))
def test_recursion_limit_raises_at_the_same_point(options):
    # Under a context limit of 12: the last depth that evaluates and the
    # first one that raises, in every argument position.
    record = check_spec(nesting_sweep(), options, max_depth=12)
    assert any(out.startswith(
        "error: RecursionDepthError: evaluation exceeded device stack depth (12)"
    ) for out in record.outputs)
    assert not all(out.startswith("error:") for out in record.outputs)
