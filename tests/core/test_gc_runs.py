"""The collector's run release and pass totals against the per-node
reference (:func:`tests.spec.reference.ref_collect_major` and
``ref_release``), whole programs with every collection charged.

A major collection after every command (a zero watermark) marks, sweeps
and frees the whole heap each time; its NODE_READ and NODE_WRITE totals
must equal one charge per node, and the nodes the next command takes
show that the run release left the free list in the per-node order. The
literal policy collects uncharged, so it checks that order alone.
"""

from __future__ import annotations

import pytest

from repro.core.interpreter import InterpreterOptions
from tests.spec.corpus import EDGE_COMMANDS, hot_repl_commands
from tests.spec.runner import GTX1080_L2, check_spec

OPTIONS = {
    "generational-major": InterpreterOptions.fast(gc_major_watermark=0.0),
    "generational": InterpreterOptions.fast(),
    "literal": InterpreterOptions(),
}


@pytest.mark.parametrize("options", list(OPTIONS.values()), ids=list(OPTIONS))
def test_charged_collections_match_the_spec(options):
    record = check_spec([*EDGE_COMMANDS, *hot_repl_commands()], options, repeats=2,
                        charge_gc=True, cache=GTX1080_L2, penalty=0.1 * 3.7)
    if options.gc_policy == "generational":
        assert record.ops["OTHER"]["NODE_WRITE"] > 0
