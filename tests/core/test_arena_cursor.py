"""The shared-cursor rule: every node taken pays one contended fetch-add.

Under ``atomic_arena_cursor=True`` (DESIGN.md deviation #1) the arena's
cursor is advanced once per node, whichever path makes the node, so
after any program the ``ATOMIC_RMW`` the cursor charged, at width 1 one
per take, equals ``arena.stats.allocs``.
The program below takes nodes through every path that makes them: the
reader (quote sugar and strings), a parse-cache hit and a traced literal
chain, a ``build_list`` copy, ``copy_node`` and the ``new_*``
constructors, the WARP twin copies of a ``|||`` on a GPU device, and
``restore_env``.
"""

from __future__ import annotations

import pytest

from repro.context import CountingContext, NullContext
from repro.core.interpreter import InterpreterOptions
from repro.gpu.atomics import AtomicCounter
from repro.gpu.device import GPUDevice, GPUDeviceConfig
from repro.gpu.specs import GTX1080
from repro.ops import Op
from repro.runtime.snapshot import restore_env, snapshot_env

PROGRAM = (
    "(defun sq (x) (* x x))",
    "(setq v (+ 40 2))",
    # Quote sugar, a string, and `list` copying the v it linked first.
    "(list 'a '(b \"s\") \"t\" 1.5 v v (string-append \"x\" \"y\") (* 1.5 2.0))",
)
#: Repeated past the JIT threshold: cache hits, then a traced form whose
#: literals (and the unbound x) are built as a chain and copied by `list`.
HOT = "(list 1 2 x 'q \"h\")"

OPTIONS = {
    "literal": InterpreterOptions(atomic_arena_cursor=True),
    "fast-jit": InterpreterOptions.fast(atomic_arena_cursor=True, jit=True),
}


@pytest.mark.parametrize("name", sorted(OPTIONS))
def test_every_take_makes_one_contended_fetch_add(name, monkeypatch):
    # Each fetch-add's charge is made once more on a tally context, so
    # takes charged to an uncounted context (the WARP twins) show too.
    tally = CountingContext()
    fetch_add = AtomicCounter.fetch_add_contended

    def tallied(counter, n, ctx, width):
        fetch_add(AtomicCounter(), n, tally, width)
        return fetch_add(counter, n, ctx, width)

    monkeypatch.setattr(AtomicCounter, "fetch_add_contended", tallied)
    device = GPUDevice(GTX1080, config=GPUDeviceConfig(interpreter=OPTIONS[name]))
    interp = device.interp
    arena = interp.arena
    twin_copies = []
    copy_node = interp.copy_node

    def counted_copy(node, ctx):
        if isinstance(ctx, NullContext):
            twin_copies.append(node)
        return copy_node(node, ctx)

    interp.copy_node = counted_copy
    try:
        for text in PROGRAM:
            device.submit(text)
        # Four identical tasks: one representative and three WARP twins.
        assert device.submit("(||| 4 sq (3 3 3 3))").output == "(9 9 9 9)"
        for _ in range(6):
            assert device.submit(HOT).output == '(1 2 x q "h")'
    finally:
        device.close()
    assert twin_copies, "no WARP twin was copied"

    ctx = CountingContext()
    for node in (arena.new_int(7, ctx), arena.new_float(0.5, ctx), arena.new_string("s", ctx),
                 arena.new_symbol("y", ctx), arena.new_nil(ctx), arena.new_true(ctx)):
        interp.copy_node(node, ctx)
    restored = restore_env(snapshot_env(interp.global_env), interp)
    assert restored.lookup("v", NullContext()).ival == 42

    if interp.parse_cache is not None:
        assert interp.parse_cache.stats.hits >= 5
        assert interp.parse_cache.stats.nodes_materialized > 0
        assert interp.jit_stats.trace_hits > 0
    assert arena.stats.allocs > 0
    assert tally.counts.count_of(Op.ATOMIC_RMW) == arena.stats.allocs
    assert arena.cursor.value == arena.stats.allocs
