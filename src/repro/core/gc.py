"""Node reclamation (paper §III-A-c: "When the nodes are not needed
anymore, they are marked as free").

CuLi's environment is persistent across REPL commands, so everything
reachable from the global environment — defun'd forms, setq'd values,
their sub-trees — must survive; everything else (the command's parse
tree, evaluation temporaries, the printed result) is garbage once the
output string has left the device.

Two reclamation policies (``InterpreterOptions.gc_policy``):

* ``"literal"`` (default) — the PR 1/2 behaviour, byte for byte: an
  uncharged stop-the-world mark-sweep between commands, rooted at the
  global environment, the interpreter singletons, and every registered
  tenant session environment (DESIGN.md deviation #4). It is also the
  property-test oracle for the generational policy.
* ``"generational"`` — region-aware generational collection (DESIGN.md
  deviation #7): the arena carves a per-request nursery region, the
  environment write barriers promote escaping subgraphs to the tenured
  generation, and end-of-command collection is a region reset whose
  modeled cost is O(survivors) — O(1) when nothing escaped — instead of
  O(total live heap). Its time is charged as modeled device work
  (``PhaseBreakdown.gc_ms``, outside the paper's three kernel phases).
  The full mark-sweep, charged, is kept as the tenure-pressure fallback
  and for explicit between-command collections.

Marking is epoch-stamped: each pass bumps the arena's epoch and writes
it into ``Node.gc_epoch``, and sweeps walk the arena's slab list
comparing int tags — no pass ever hashes node objects.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Optional

from ..context import CountingContext, ExecContext, NullContext
from ..ops import Op
from .nodes import REGION_FREE, REGION_TENURED, Node

if TYPE_CHECKING:  # pragma: no cover
    from .environment import Environment
    from .interpreter import Interpreter

__all__ = [
    "gather_roots",
    "mark_epoch",
    "collect_major",
    "collect_garbage",
    "collect_with_accounting",
]

#: Shared do-nothing context for the uncharged (literal) policy.
_NULL_CTX = NullContext()


def gather_roots(interp: "Interpreter") -> list[Node]:
    """Every GC root node: the global environment's bindings, each
    registered tenant session environment's bindings, and the
    interpreter singletons.

    Scope chains are deduplicated: every tenant session root is a child
    of the same global environment, so each scope is visited exactly
    once no matter how many sessions share it (the climb stops at the
    first already-visited scope).
    """
    roots: list[Node] = []
    seen_scopes: set[int] = set()
    envs: list["Environment"] = [interp.global_env]
    envs.extend(interp.extra_roots)
    for env in envs:
        cursor: Optional["Environment"] = env
        while cursor is not None and id(cursor) not in seen_scopes:
            seen_scopes.add(id(cursor))
            for entry in cursor.entries():
                roots.append(entry.node)
            cursor = cursor.parent
    roots.append(interp.nil)
    roots.append(interp.true)
    return roots


def mark_epoch(roots: list[Node], epoch: int, ctx: ExecContext) -> int:
    """Stamp ``epoch`` into every node reachable from ``roots`` through
    list structure (first/nxt chains), parameter lists and form bodies;
    returns the number of nodes visited.

    One int compare/store per node, never a hash of a node object; one
    ``NODE_READ`` per node visited (the device fetches its link fields
    once), charged as one total. ``node.last`` is on the first/nxt chain,
    so it needs no visit of its own.
    """
    visited = 0
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node.gc_epoch == epoch:
            continue
        node.gc_epoch = epoch
        visited += 1
        if node.first is not None:
            stack.append(node.first)
        if node.nxt is not None:
            stack.append(node.nxt)
        if node.params is not None:
            stack.append(node.params)
    if visited:
        ctx.charge(Op.NODE_READ, visited)
    return visited


def collect_major(interp: "Interpreter", ctx: Optional[ExecContext] = None) -> int:
    """Full stop-the-world mark-sweep from every root (the generational
    policy's fallback; the literal policy's only collector).

    Marks with epoch stamps, then sweeps the arena slab in creation
    order and frees every live node whose stamp is stale as one run
    (:meth:`~repro.core.arena.NodeArena.release`). Between commands every
    live node is tenured; a dead node still in a nursery region raises
    ``RuntimeError`` and stays where it is. Charges one ``NODE_READ`` per
    marked node and per swept slot, and one ``NODE_WRITE`` per freed
    node, to ``ctx`` (pass none to run uncharged), as one total per pass
    each. Must only run between commands: evaluation temporaries held on
    the host stack are not rooted.
    """
    if ctx is None:
        ctx = _NULL_CTX
    arena = interp.arena
    epoch = arena.next_epoch()
    mark_epoch(gather_roots(interp), epoch, ctx)
    live = [node for node in arena._nodes if node.region != REGION_FREE]
    freed, stranded = arena.release(
        [node for node in live if node.gc_epoch != epoch], REGION_TENURED
    )
    if stranded:
        raise RuntimeError(
            f"collect_major ran with {len(stranded)} dead node(s) in an open "
            f"nursery region (node #{stranded[0].idx}); it must run between commands"
        )
    if live:
        ctx.charge(Op.NODE_READ, len(live))
    if freed:
        ctx.charge(Op.NODE_WRITE, freed)
    arena.gc_stats.major_collections += 1
    arena.gc_stats.nodes_freed += freed
    return freed


def collect_garbage(interp: "Interpreter", ctx: Optional[ExecContext] = None) -> int:
    """Between-command reclamation under the interpreter's GC policy.

    Returns the number of nodes freed. ``ctx`` receives the modeled
    device cost of generational collection; the literal policy always
    runs uncharged (PR 1/2 behaviour, byte for byte).
    """
    arena = interp.arena
    t0 = perf_counter()
    try:
        if interp.options.gc_policy == "generational":
            if ctx is None:
                ctx = _NULL_CTX
            if not arena.region_active:
                # No nursery to reset: an explicit between-command call
                # (e.g. after releasing a session env). Tenured garbage
                # is only reachable by the fallback full sweep.
                return collect_major(interp, ctx)
            freed, promoted = arena.reset_region()
            # Modeled cost: one bump-pointer reset, plus an evacuation
            # scan of the survivors the write barriers promoted. O(1)
            # when nothing escaped; never a function of the tenured heap.
            ctx.charge(Op.NODE_WRITE)
            if promoted:
                ctx.charge(Op.NODE_READ, promoted)
                ctx.charge(Op.NODE_WRITE, promoted)
            watermark = interp.options.gc_major_watermark
            if arena.used > watermark * arena.capacity:
                freed += collect_major(interp, ctx)
            return freed
        # literal: uncharged full mark-sweep (deviation #4, unchanged)
        return collect_major(interp, None)
    finally:
        arena.gc_stats.gc_wall_ms += (perf_counter() - t0) * 1000.0


def collect_with_accounting(
    interp: "Interpreter", ctx: CountingContext
) -> tuple[int, int, int, float]:
    """Device-side end-of-command collection, charged to ``ctx``.

    Zeroes ``ctx``, the device's collector context, and runs the policy
    collector charged to it. The collector never changes phase, so its
    modeled cost is the cycles of ``ctx``'s EVAL row, which the device
    converts through its own memo. Returns ``(freed, regions_reset,
    major_collections, wall_ms)``; the literal policy charges nothing,
    so its row stays zero and literal figures are untouched.
    """
    stats = interp.arena.gc_stats
    minors0 = stats.minor_collections
    majors0 = stats.major_collections
    wall0 = stats.gc_wall_ms
    ctx.reset()
    freed = collect_garbage(interp, ctx)
    return (
        freed,
        stats.minor_collections - minors0,
        stats.major_collections - majors0,
        stats.gc_wall_ms - wall0,
    )
