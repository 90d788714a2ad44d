"""The fixed-size node arena (paper §III-A-c).

"Nodes are stored in a large array that is created at the beginning of
the program. This array has a fixed length set during the compilation of
CuLi. The length limits the number of nodes that can be used during a run
... Whenever a function asks for a new node to store a value, the
sequentially next free node of this array will be returned. When the
nodes are not needed anymore, they are marked as free."

Design choice (documented in DESIGN.md): by default, allocation charges
no atomic — the master partitions the arena so workers bump-allocate
privately. ``atomic_cursor=True`` switches to the literal shared-cursor
reading of the paper, where every allocation is a contended atomic
fetch-add; the ablation benchmark compares both. That fetch-add is made
in one place, :meth:`NodeArena.take`, which hands out every node.

Generational regions (DESIGN.md deviation #7): the arena can carve a
per-request bump *region* (nursery) out of its fixed capacity. While a
region is active every allocation is tagged with its id; end-of-command
reclamation then only concerns that region — nodes that escaped into the
persistent heap were retagged tenured by the GC write barriers, and
everything still carrying the region tag is returned to the free list in
one sweep of the region's slab (no marking, no hashing). Bookkeeping is
list/slab-based throughout: sweeps walk ``_nodes`` (creation order) and
compare int tags, never hash node objects.

Host cost: a node is one :meth:`NodeArena.take`. :meth:`NodeArena.alloc`
adds the node's ``NODE_ALLOC`` charge to it; builders that charge a run
of nodes at once (the reader, the parse cache's materializer,
``build_list``'s copies) call ``take`` directly, one arena call per node
they make. Every reclamation — a nursery reset, a fault rollback, the
major sweep — goes through :meth:`NodeArena.release`, which clears the
freed nodes' fields in one loop and lists them on the free list as a
run, in slab order.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..context import ExecContext
from ..errors import ArenaExhaustedError
from ..gpu.atomics import AtomicCounter
from ..ops import Op
from .nodes import REGION_FREE, REGION_TENURED, Node, NodeType

__all__ = ["NodeArena", "ArenaStats", "GCStats"]

#: A value node's allocation and its one value write, charged together.
_ALLOC_WRITE = (Op.NODE_ALLOC, Op.NODE_WRITE)


class ArenaStats:
    """Lifetime counters for one arena."""

    __slots__ = ("allocs", "frees", "peak_used")

    def __init__(self) -> None:
        self.allocs = 0
        self.frees = 0
        self.peak_used = 0


@dataclass
class GCStats:
    """Lifetime reclamation counters for one arena (all GC policies)."""

    minor_collections: int = 0   #: nursery regions reclaimed
    pure_resets: int = 0         #: minors where nothing escaped (O(1) reset)
    major_collections: int = 0   #: full mark-sweep passes
    nodes_freed: int = 0         #: nodes reclaimed by collection
    nodes_promoted: int = 0      #: nursery survivors retagged tenured
    checkpoint_rollbacks: int = 0  #: mid-batch rollbacks of faulted jobs
    gc_wall_ms: float = 0.0      #: host wall time spent collecting


class NodeArena:
    """Fixed-capacity node storage with a free list.

    Nodes are created lazily (Python objects are heavy), but the
    *capacity* is fixed up front like the paper's array, and exhaustion
    raises :class:`ArenaExhaustedError`.
    """

    DEFAULT_CAPACITY = 1 << 18

    def __init__(self, capacity: int = DEFAULT_CAPACITY, atomic_cursor: bool = False) -> None:
        if capacity <= 0:
            raise ValueError("arena capacity must be positive")
        self.capacity = capacity
        self.atomic_cursor = atomic_cursor
        #: Allocators each contended fetch-add of the atomic cursor queues
        #: behind (:meth:`AtomicCounter.fetch_add_contended`). The program
        #: leaves it at 1; ``benchmarks/bench_ablation_arena.py`` sets it
        #: to 32 on a device's arena for its shared-cursor runs.
        self.contention_width = 1
        self.cursor = AtomicCounter()
        #: Optional intern table (fast-path ablation): when set by the
        #: interpreter, new_symbol assigns interned ids at parse time.
        self.symtab = None
        self._free: list[Node] = []
        #: Every node ever created, in creation (slab) order. Liveness is
        #: the node's ``region`` tag (REGION_FREE = on the free list), so
        #: sweeps iterate this list comparing ints — no set membership,
        #: no hashing of node objects.
        self._nodes: list[Node] = []
        self._used = 0
        self._next_idx = 0
        self.stats = ArenaStats()
        self.gc_stats = GCStats()
        # -- generational region state (deviation #7) ----------------------
        #: Region allocations are tagged with; REGION_TENURED between
        #: commands (setup, prelude, session creation), a positive nursery
        #: id while a request region is open.
        self._current_region = REGION_TENURED
        self._next_region = 1
        #: Slab of nodes allocated into the currently open region.
        self._region_nodes: list[Node] = []
        #: Mark-phase epoch counter (see next_epoch).
        self._epoch = 0

    # -- capacity -------------------------------------------------------------

    @property
    def used(self) -> int:
        return self._used

    @property
    def tenured_count(self) -> int:
        """Live nodes in the tenured generation — the retained heap a
        migration restore would land next to. O(1) between commands
        (used == tenured when no nursery is open); while a region is
        open, the open region's slab is subtracted."""
        region = self._current_region
        if region <= REGION_TENURED:
            return self._used
        nursery = sum(1 for node in self._region_nodes if node.region == region)
        return self._used - nursery

    # -- allocation -----------------------------------------------------------

    def alloc(self, ntype: NodeType, ctx: ExecContext) -> Node:
        ctx.charge(Op.NODE_ALLOC)
        return self.take(ntype, ctx)

    def take(self, ntype: NodeType, ctx: ExecContext) -> Node:
        """Hand out the next free node: the one way a node is made.

        Under the atomic cursor this first makes the take's contended
        fetch-add on ``ctx``, also for a take that raises
        :class:`ArenaExhaustedError`; it charges nothing else. The caller
        owes one ``NODE_ALLOC`` per take, failed takes included, and may
        fold a run of them into one charge (:meth:`alloc` charges it
        alone, before it can raise).
        """
        if self.atomic_cursor:
            self.cursor.fetch_add_contended(1, ctx, self.contention_width)
        free = self._free
        if free:
            # The release that listed the node cleared every other field.
            node = free.pop()
            node.ntype = ntype
        else:
            if self._used >= self.capacity:
                raise ArenaExhaustedError(
                    f"node arena exhausted ({self.capacity} nodes); "
                    "the size of possible inputs is limited (paper §III-D)"
                )
            node = Node(self._next_idx, ntype)
            self._next_idx += 1
            self._nodes.append(node)
        used = self._used = self._used + 1
        region = node.region = self._current_region
        if region > REGION_TENURED:
            self._region_nodes.append(node)
        stats = self.stats
        stats.allocs += 1
        if used > stats.peak_used:
            stats.peak_used = used
        return node

    def free(self, node: Node) -> None:
        """Mark one node as free (it may be handed out again): a
        :meth:`release` of one, checked against a double free.

        The program reclaims only through :meth:`release`; this checked
        single free serves the tests and the per-node reference collector
        of ``tests/spec``."""
        if node.region == REGION_FREE:
            raise ArenaExhaustedError(
                f"node #{node.idx} already on the free list — double free?"
            )
        if self._used <= 0:
            raise ArenaExhaustedError("free() with no live nodes — double free?")
        self.release([node], node.region)

    def release(self, nodes: list[Node], tag: int) -> tuple[int, list[Node]]:
        """Free every node of ``nodes`` tagged ``tag``, in one pass with
        one bookkeeping update; returns the freed count and the nodes
        kept, those tagged otherwise (for a nursery region, the ones
        promoted to the tenured generation). Nodes already on the free
        list are skipped.

        Each node must be listed once, so a tag match rules out a double
        free. The freed nodes join the free list in list order, up to the
        first node not freed as one run. Their value and link fields are
        cleared *immediately*: a node sitting on the free list must
        neither pin its former subgraph alive on the host nor leak prior
        request state (symbol ids, parameter lists) to whoever recycles
        it.
        """
        free_list = self._free
        nil = NodeType.N_NIL
        kept: list[Node] = []
        freed = 0
        # True while every node so far was freed: those are listed as one
        # run, and each one freed after the run ends is listed as it goes.
        run = True
        for node in nodes:
            region = node.region
            if region != tag:
                if run:
                    run = False
                    free_list.extend(nodes[:freed])
                if region != REGION_FREE:
                    kept.append(node)
                continue
            node.ntype = nil
            node.ival = 0
            node.fval = 0.0
            node.sval = ""
            node.sym_id = -1
            node.fn = None
            node.first = None
            node.last = None
            node.nxt = None
            node.params = None
            node.sealed = False
            node.linked = False
            node.region = REGION_FREE
            freed += 1
            if not run:
                free_list.append(node)
        if run:
            free_list.extend(nodes)
        self._used -= freed
        self.stats.frees += freed
        return freed, kept

    # -- generational regions (deviation #7) -----------------------------------

    @property
    def region_active(self) -> bool:
        return self._current_region > REGION_TENURED

    def begin_region(self) -> int:
        """Open a nursery region; subsequent allocations are tagged with
        its id until :meth:`reset_region`. Idempotent: if a region is
        already open (batched requests share one region per device
        transaction) the open region is reused."""
        if self._current_region > REGION_TENURED:
            return self._current_region
        region = self._next_region
        self._next_region += 1
        self._current_region = region
        return region

    def reset_region(self) -> tuple[int, int]:
        """Reclaim the open nursery region; returns (freed, promoted).

        Every node still tagged with the region id is returned to the
        free list; nodes the write barriers retagged tenured survive.
        With zero survivors this is the O(1) bump-pointer reset of a
        region allocator — the host still walks the slab to recycle the
        Python objects, but no marking and no hashing happens either way.
        """
        region = self._current_region
        if region <= REGION_TENURED:
            return (0, 0)
        freed, survivors = self.release(self._region_nodes, region)
        promoted = len(survivors)
        self._region_nodes.clear()
        self._current_region = REGION_TENURED
        self.gc_stats.minor_collections += 1
        self.gc_stats.nodes_freed += freed
        self.gc_stats.nodes_promoted += promoted
        if promoted == 0:
            self.gc_stats.pure_resets += 1
        return (freed, promoted)

    def region_watermark(self) -> int:
        """Checkpoint of the open nursery region's slab (fault isolation).

        Taken before one batched job runs; :meth:`rollback_region` frees
        everything the job allocated past it. Always 0 when no region is
        open (non-generational policies take no checkpoints).
        """
        return len(self._region_nodes)

    def rollback_region(self, watermark: int) -> tuple[int, int]:
        """Free the open region's allocations past ``watermark``;
        returns (freed, survivors).

        The mid-batch containment path for a job killed by a device
        fault: every node the job allocated that still carries the
        nursery tag is returned to the free list — eagerly, so the
        remaining jobs of the same batch transaction can reuse the space
        (an arena-exhausting job must not starve its co-tenants). Nodes
        the write barriers already promoted to the tenured generation
        escaped into a persistent scope and survive, exactly as they
        survive the end-of-batch :meth:`reset_region`.
        """
        region = self._current_region
        if region <= REGION_TENURED or watermark >= len(self._region_nodes):
            return (0, 0)
        freed, survivors = self.release(self._region_nodes[watermark:], region)
        # Promoted escapees stay in the slab so the final region reset
        # still counts them in its promotion statistics.
        del self._region_nodes[watermark:]
        self._region_nodes.extend(survivors)
        self.gc_stats.checkpoint_rollbacks += 1
        self.gc_stats.nodes_freed += freed
        return (freed, len(survivors))

    # -- mark epochs ------------------------------------------------------------

    def next_epoch(self) -> int:
        """A fresh mark-phase epoch (monotonic; epoch-stamped visited
        flags on nodes replace set-based marking)."""
        self._epoch += 1
        return self._epoch

    # -- convenience constructors ----------------------------------------------

    def new_nil(self, ctx: ExecContext) -> Node:
        return self.alloc(NodeType.N_NIL, ctx).seal()

    def new_true(self, ctx: ExecContext) -> Node:
        return self.alloc(NodeType.N_TRUE, ctx).seal()

    def _value_node(self, ntype: NodeType, ctx: ExecContext) -> Node:
        """A fresh node for one value write: :meth:`alloc`'s charges and
        the write's ``NODE_WRITE`` in one call, made once the node is
        taken (a failed take charges the ``NODE_ALLOC`` alone, as
        ``alloc`` does before it raises)."""
        try:
            node = self.take(ntype, ctx)
        except ArenaExhaustedError:
            ctx.charge(Op.NODE_ALLOC)
            raise
        ctx.charge_many(_ALLOC_WRITE)
        return node

    def new_int(self, value: int, ctx: ExecContext) -> Node:
        node = self._value_node(NodeType.N_INT, ctx)
        node.ival = value
        node.sealed = True
        return node

    def new_float(self, value: float, ctx: ExecContext) -> Node:
        node = self._value_node(NodeType.N_FLOAT, ctx)
        node.fval = value
        node.sealed = True
        return node

    def new_string(self, value: str, ctx: ExecContext) -> Node:
        node = self._value_node(NodeType.N_STRING, ctx)
        node.sval = value
        node.sealed = True
        return node

    def new_symbol(self, name: str, ctx: ExecContext) -> Node:
        node = self._value_node(NodeType.N_SYMBOL, ctx)
        node.sval = name
        if self.symtab is not None:
            node.sym_id = self.symtab.intern(name, ctx)
        node.sealed = True
        return node

    def new_bool(self, value: bool, ctx: ExecContext) -> Node:
        return self.new_true(ctx) if value else self.new_nil(ctx)

    def new_number(self, value: int | float, ctx: ExecContext) -> Node:
        if isinstance(value, bool):  # bool is an int subclass; reject early
            raise TypeError("booleans are not CuLi numbers")
        if isinstance(value, int):
            return self.new_int(value, ctx)
        return self.new_float(value, ctx)
