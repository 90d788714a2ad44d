"""A parse that runs out of arena at every node it takes, against the
per-unit reference (:func:`tests.spec.runner.check_spec`).

Each text runs in an arena one to n nodes larger than a fresh interpreter
uses, where n is the number of nodes its parse takes, on a fresh free
list and on one an earlier command recycled. Op rows, cache accesses and
arena counters must equal the reference's after every command, and the
node indices of the command after the failed parse show that both left
the free list in the same order.
"""

from __future__ import annotations

import pytest

from repro.context import NullContext
from repro.core.interpreter import Interpreter, InterpreterOptions
from repro.core.reader import Parser
from tests.spec.corpus import (
    EXHAUSTION_TEXTS,
    PROBE_COMMAND,
    RECYCLE_COMMAND,
    SUGAR_EXHAUSTION_TEXTS,
)
from tests.spec.runner import check_spec

#: Source bases that start a text at, inside and across line boundaries.
BASES = (0, 1, 127, 128, 40_961)
#: A tiny 2-way cache that thrashes.
THRASH = (1, 128, 2)
OPTIONS = {
    "literal": InterpreterOptions,
    "fast": InterpreterOptions.fast,
}


def _nodes_taken(text: str) -> int:
    interp = Interpreter()
    allocs = interp.arena.stats.allocs
    Parser(interp, NullContext()).parse(text)
    return interp.arena.stats.allocs - allocs


@pytest.mark.parametrize("options", list(OPTIONS.values()), ids=list(OPTIONS))
@pytest.mark.parametrize("recycled", [False, True], ids=["fresh", "recycled"])
@pytest.mark.parametrize("text", [*EXHAUSTION_TEXTS, *SUGAR_EXHAUSTION_TEXTS])
def test_exhaustion_at_every_node_matches_the_spec(text, recycled, options):
    program = [RECYCLE_COMMAND] * recycled + [text, PROBE_COMMAND]
    used = Interpreter(options()).arena.used
    nodes = _nodes_taken(text)
    for spare in range(1, nodes + 1):
        record = check_spec(program, options(arena_capacity=used + spare),
                            cache=THRASH, penalty=0.1 * 3.7, bases=BASES)
        parsed = record.outputs[recycled]
        if spare < nodes:
            assert parsed.startswith("error: ArenaExhaustedError"), parsed
