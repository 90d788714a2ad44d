"""Production against the per-unit reference on whole programs; the
per-layer option sets run from ``tests/core/test_reader_runs.py``,
``tests/core/test_eval_runs.py`` and ``tests/jit/test_literal_runs.py``.
"""

from __future__ import annotations

import pytest

from repro.core.interpreter import InterpreterOptions
from tests.spec.corpus import EDGE_COMMANDS, READER, hot_repl_commands, perfbench_texts
from tests.spec.runner import GTX1080_L2, check_spec


@pytest.mark.parametrize("workload", ["zipf-fleet", "hot-repl", "bulk-mix", "stateful-failover"])
def test_benchmark_texts_match_the_spec(workload):
    check_spec(perfbench_texts()[workload], InterpreterOptions.fast(jit=True),
               cache=GTX1080_L2, penalty=0.1 * 3.7)


@pytest.mark.parametrize("capacity", [140, 450, 600, 900])
def test_small_arenas_match_the_spec(capacity):
    """Arena exhaustion part way through a parse (140 nodes are ten more
    than a fresh interpreter holds), a materialization, a literal chain or
    a list copy, traced and tree-walked."""
    texts = READER if capacity == 140 else [
        *EDGE_COMMANDS, *hot_repl_commands(), *perfbench_texts()["hot-repl"][:40]]
    # A nearly full arena would run a major collection after every
    # command (tests/core/test_gc_runs.py runs that case).
    options = InterpreterOptions.fast(jit=True, arena_capacity=capacity, gc_major_watermark=1.0)
    record = check_spec(texts, options, repeats=3)
    assert record.jit["trace_hits"] > 0
    assert any("ArenaExhaustedError" in out for out in record.outputs)
