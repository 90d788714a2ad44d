"""The serving parse cache (fast-path ablation, beyond the paper).

The paper's dominant cost on Maxwell/Pascal is the master thread's
serial char-by-char parse (>50 % of kernel time, Fig. 17a). Under
multi-tenant serving the same request texts recur constantly — every
tenant warms up with the same defines, dashboards re-issue the same
queries — so the reproduction memoizes parsed top-level forms keyed by
the exact source text, PyCUDA-style: the host scripting layer caches
and amortizes device-bound work.

Two fidelity rules shape the implementation:

* **Never share structure between requests.** Parse trees flow into the
  evaluator, which links them into result lists, closes defun bodies
  over them, and relies on arena GC for reclamation. The cache
  therefore keeps *detached templates* (plain host-side
  :class:`~repro.core.nodes.TemplateNode` objects, invisible to the
  arena and the GC), which the reader builds beside the arena tree in
  the same scan, and deep-copies a template into fresh arena nodes for
  every hit. A mutated tree can never leak into a later request.
* **Charge the copy, not the scan.** Materializing a cached tree is
  modeled as node traffic — one ``NODE_READ`` (template fetch), one
  ``NODE_ALLOC`` and two ``NODE_WRITE`` per node — which is orders of
  magnitude cheaper than the ``CHAR_LOAD`` + ``PARSE_STEP`` per input
  character that a re-parse would cost on parse-bound architectures.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Sequence

from ..context import ExecContext
from ..core.arena import NodeArena
from ..core.nodes import REGION_TENURED, Node, TemplateNode, promote_subgraph
from ..errors import ArenaExhaustedError
from ..ops import Op

__all__ = ["ParseCacheStats", "CacheEntry", "ParseCache"]


class ParseCacheStats:
    """Lifetime counters for one parse cache."""

    __slots__ = ("hits", "misses", "evictions", "nodes_materialized")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.nodes_materialized = 0


class CacheEntry:
    """One cached source text: its templates plus JIT promotion state.

    ``uses`` counts lookups of this entry (hits plus the populating
    miss); the interpreter's JIT tier promotes an entry to a compiled
    trace once ``uses`` crosses its threshold. ``traces`` holds one
    compiled trace (or None for an untraceable form) per top-level
    template, and lives *on the entry object* so that LRU eviction or a
    same-key re-put structurally drops the traces with the templates —
    a recycled key can never serve another text's trace.
    """

    __slots__ = ("templates", "uses", "traces", "trace_failed")

    def __init__(self, templates: list[TemplateNode]) -> None:
        self.templates = templates
        self.uses = 0
        self.traces: Optional[list] = None  #: list[Optional[Trace]] once compiled
        self.trace_failed = False           #: compile attempted, nothing traceable


class ParseCache:
    """LRU memo of parsed top-level forms, keyed by request source text."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity <= 0:
            raise ValueError("parse cache capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self.stats = ParseCacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, text: str) -> bool:
        return text in self._entries

    # -- lookup -----------------------------------------------------------------

    def get_entry(self, text: str, ctx: ExecContext) -> Optional["CacheEntry"]:
        """The memoized :class:`CacheEntry` for ``text``, or None on a miss.

        The probe itself is host-side bookkeeping (the host decides what
        to upload), so a miss charges nothing — the caller falls through
        to the charged parse.
        """
        entry = self._entries.get(text)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(text)
        self.stats.hits += 1
        entry.uses += 1
        return entry

    # -- population ---------------------------------------------------------------

    def put(self, text: str, templates: list[TemplateNode]) -> None:
        """Keep the reader's ``templates`` of a fresh parse under ``text``.

        The reader built them beside the arena tree in the same scan
        (:meth:`~repro.core.reader.Parser.read`), so storing them is
        uncharged host work.
        """
        # A fresh CacheEntry on every put: re-putting an existing key
        # (or later evicting it) drops any compiled traces along with
        # the old templates.
        entry = CacheEntry(templates)
        entry.uses = 1
        entries = self._entries
        if text in entries:
            entries.move_to_end(text)  # a new key is stored last anyway
        entries[text] = entry
        while len(entries) > self.capacity:
            entries.popitem(last=False)
            self.stats.evictions += 1

    # -- materialization -----------------------------------------------------------

    def materialize(
        self, templates: list[TemplateNode], arena: NodeArena, ctx: ExecContext
    ) -> list[Node]:
        """Deep-copy cached templates into fresh arena nodes (charged).

        Every request gets a private tree with the same shape, values,
        interned ids, and linked/sealed flags a fresh parse would have
        produced — so downstream evaluation, GC, and copy-on-link behave
        identically on both paths.
        """
        return self._build(templates, 0, arena, ctx, None, False)

    def materialize_one(
        self, template: TemplateNode, arena: NodeArena, ctx: ExecContext
    ) -> Node:
        """Deep-copy one template: an untraceable form of a traced entry,
        or the form a guard bail falls back to."""
        return self._build((template,), 0, arena, ctx, None, False)[0]

    def materialize_chain(
        self,
        sibs: Sequence[TemplateNode],
        index: int,
        arena: NodeArena,
        ctx: ExecContext,
        memo: dict,
    ) -> Node:
        """Build ``sibs[index]`` and the unbuilt rest of its sibling chain;
        returns the node of ``sibs[index]``.

        The JIT executor's literals: the tree-walker evaluates a literal
        to the tree node itself, a linked child of its parent form whose
        ``nxt`` chain runs through the following siblings, so retaining
        the value retains them. ``memo`` (template -> node, one per trace
        execution) gives every tree position at most one node, as
        one whole-tree materialization would. The walk stops at the first
        link an earlier chain already wired, so a form with n literal
        arguments builds O(n) nodes in total.
        """
        return self._build(sibs, index, arena, ctx, memo, True)[0]

    def _build(
        self,
        templates: Sequence[TemplateNode],
        start: int,
        arena: NodeArena,
        ctx: ExecContext,
        memo: Optional[dict],
        chain: bool,
    ) -> list[Node]:
        """The one materializer: deep-copy ``templates[start:]``, charged
        as one run.

        A node is one ``NODE_ALLOC``, one ``NODE_READ`` (the template
        fetch) and two ``NODE_WRITE`` (value and link fields), charged
        for all nodes built in one call each; nodes are allocated in
        preorder, a node before its children. If the arena runs out, the
        run charges the nodes built before it plus the failed
        allocation, which ``NodeArena.alloc`` charges before it raises.
        ``chain`` links the copies as a sibling chain (with the write
        barrier ``Node.append_child`` applies) and stops at a link
        already wired.
        """
        allocs0 = arena.stats.allocs
        take = arena.take
        roots: list[Node] = []
        prev: Optional[Node] = None
        try:
            for i in range(start, len(templates)):
                template = templates[i]
                node = None if memo is None else memo.get(template)
                if node is None:
                    if template.children:
                        node = self._copy_list(template, arena, ctx, memo)
                    else:
                        node = take(template.ntype, ctx)
                        node.ival, node.fval, node.sval, node.sym_id = (
                            template.ival, template.fval, template.sval, template.sym_id
                        )
                        node.sealed = True
                        if memo is not None:
                            memo[template] = node
                if chain:
                    node.linked = True
                    if prev is not None:
                        if prev.nxt is node:
                            # An earlier chain wired this link, and the
                            # rest of the chain with it.
                            break
                        barrier_source = prev.region
                        prev.nxt = node
                        if barrier_source == REGION_TENURED and node.region > REGION_TENURED:
                            promote_subgraph(node)  # pragma: no cover - fresh nodes are nursery
                    prev = node
                roots.append(node)
        except ArenaExhaustedError:
            ctx.charge(Op.NODE_ALLOC)  # the failed allocation
            raise
        finally:
            built = arena.stats.allocs - allocs0
            if built:
                ctx.charge(Op.NODE_ALLOC, built)
                ctx.charge(Op.NODE_READ, built)
                ctx.charge(Op.NODE_WRITE, 2 * built)
                self.stats.nodes_materialized += built
        return roots

    @staticmethod
    def _copy_list(
        template: TemplateNode, arena: NodeArena, ctx: ExecContext,
        memo: Optional[dict],
    ) -> Node:
        """Uncharged preorder deep copy of a template with children (the
        caller, :meth:`_build`, charges every node taken). A child joins
        its parent once its own subtree is complete, as in a recursive
        copy, and each list is sealed once its children are in."""
        take = arena.take
        root = take(template.ntype, ctx)
        root.ival, root.fval, root.sval, root.sym_id = (
            template.ival, template.fval, template.sval, template.sym_id
        )
        if memo is not None:
            memo[template] = root
        frames = [(root, iter(template.children))]
        while frames:
            parent, children = frames[-1]
            child_template = next(children, None)
            if child_template is None:
                parent.sealed = True
                frames.pop()
                if frames:
                    frames[-1][0].append_child(parent)
                continue
            child = None if memo is None else memo.get(child_template)
            if child is None:
                child = take(child_template.ntype, ctx)
                child.ival, child.fval, child.sval, child.sym_id = (
                    child_template.ival, child_template.fval, child_template.sval,
                    child_template.sym_id,
                )
                if memo is not None:
                    memo[child_template] = child
                if child_template.children:
                    frames.append((child, iter(child_template.children)))
                    continue
                child.sealed = True
            parent.append_child(child)
        return root
