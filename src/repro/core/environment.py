"""Environment trees (paper §III-B-a, Figs. 6/7).

"An environment contains a linked list of environment nodes and a link to
a parent environment. The only exception is the global environment ...
Each environment node itself contains a symbol for comparison and the
node that the symbol points to."

Lookup walks the local entry list (strcmp per entry), then the parent —
so values in the global environment are reachable from everywhere, and
the *first* occurrence shadows outer ones. ``define`` (used by ``let``,
``defun``, parameter binding) prepends locally; ``set_nearest`` (used by
``setq``) mutates the closest existing binding, the paper's one
deliberate side-effect.

Fast-path ablation (beyond the paper, see DESIGN.md deviations):

* Entries may carry an interned symbol id (``sym_id``, from
  :mod:`repro.core.symtab`). When both an entry and the query carry an
  id the comparison is one ``SYM_CMP`` register compare instead of the
  strcmp chain. Literal mode never assigns ids, so every comparison
  takes the strcmp path — the paper's behaviour, bit for bit.
* Root scopes that grow monotonically (the global environment and the
  per-tenant session roots under defun-heavy multi-tenant load) may
  carry a hash index over their bindings (:meth:`enable_index`); a
  lookup there is one ``HASH_PROBE`` instead of an O(n) entry walk.
  Inner let/call scopes stay linked lists — they are short-lived and
  tiny, exactly like the paper's.
* Under the generational GC policy (DESIGN.md deviation #7) persistent
  scopes — the global environment and session roots — carry a reference
  to their arena (``gc_arena``) and install a **promotion write
  barrier**: a ``define`` or ``setq`` that lands here promotes the bound
  subgraph out of the request's nursery region, so end-of-command
  reclamation never has to rescan the persistent heap. Inner scopes
  never carry the barrier; bindings there die with the request.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..context import ExecContext
from ..ops import Op
from ..strlib import str_cmp
from .nodes import Node, promote_subgraph

__all__ = ["EnvEntry", "Environment"]


class EnvEntry:
    """One (symbol -> node) binding in an environment's linked list."""

    __slots__ = ("symbol", "sym_id", "node", "nxt")

    def __init__(
        self,
        symbol: str,
        node: Node,
        nxt: Optional["EnvEntry"],
        sym_id: int = -1,
    ) -> None:
        self.symbol = symbol
        self.sym_id = sym_id
        self.node = node
        self.nxt = nxt


class Environment:
    """A linked-list scope with a parent pointer."""

    __slots__ = (
        "head",
        "parent",
        "label",
        "session_root",
        "gc_arena",
        "_index",
        "_count",
    )

    def __init__(self, parent: Optional["Environment"] = None, label: str = "") -> None:
        self.head: Optional[EnvEntry] = None
        self.parent = parent
        self.label = label
        #: Multi-tenant serving marks one environment per tenant session as
        #: that session's "global" scope: defines that the paper sends to
        #: the global environment (defun, defmacro, setq on an unbound
        #: symbol) stop here instead, so tenants sharing one device cannot
        #: see each other's definitions.
        self.session_root = False
        #: Generational-GC promotion barrier: set (to the owning arena) on
        #: persistent scopes only, by the interpreter, when the policy is
        #: generational. None = no barrier (literal/full policies, and
        #: every short-lived inner scope).
        self.gc_arena = None
        #: Hash index over bindings (root scopes only; see module docs).
        self._index: Optional[dict] = None
        self._count = 0

    # -- structure ------------------------------------------------------------

    def enable_index(self) -> "Environment":
        """Attach a hash index over this scope's bindings (idempotent).

        Meant for root scopes that grow monotonically; any bindings
        already present are indexed (newest-first shadowing preserved).
        """
        if self._index is None:
            index: dict = {}
            for entry in reversed(list(self.entries())):
                index[entry.symbol] = entry
            self._index = index
        return self

    def global_env(self) -> "Environment":
        env: Environment = self
        while env.parent is not None:
            env = env.parent
        return env

    def persistent_root(self) -> "Environment":
        """Where "global" defines land: the nearest session root along the
        parent chain, or the true global environment if there is none."""
        env: Environment = self
        while env.parent is not None and not env.session_root:
            env = env.parent
        return env

    def depth(self) -> int:
        d = 0
        env = self.parent
        while env is not None:
            d += 1
            env = env.parent
        return d

    def entries(self) -> Iterator[EnvEntry]:
        entry = self.head
        while entry is not None:
            yield entry
            entry = entry.nxt

    def entries_oldest_first(self) -> list[EnvEntry]:
        """This scope's bindings in definition order (snapshot order:
        replaying ``define`` over the list reproduces the same prepended
        entry chain, so shadowing and lookup order survive a heap
        migration bit for bit)."""
        entries = list(self.entries())
        entries.reverse()
        return entries

    def __len__(self) -> int:
        # Maintained on define/clear so stats and tests stay O(1) even on
        # large session roots.
        return self._count

    def clear(self) -> None:
        """Drop every binding in this scope (loop scopes rebind per
        iteration; going through here keeps the count and index honest)."""
        self.head = None
        self._count = 0
        if self._index is not None:
            self._index.clear()

    # -- operations -------------------------------------------------------------

    def define(
        self, symbol: str, node: Node, ctx: ExecContext, sym_id: int = -1
    ) -> None:
        """Prepend a binding in *this* environment (shadows outer ones).

        Environment nodes are structs in device memory: allocating and
        wiring one costs an allocation plus two field writes. An indexed
        scope additionally pays one hash probe for the insert.
        """
        ctx.charge(Op.NODE_ALLOC)
        ctx.charge(Op.NODE_WRITE, 2)
        entry = EnvEntry(symbol, node, self.head, sym_id)
        self.head = entry
        self._count += 1
        index = self._index
        if index is not None:
            ctx.charge(Op.HASH_PROBE)
            # dict insert overwrites: the newest define shadows, exactly
            # like the prepended list entry it mirrors.
            index[symbol] = entry
        if self.gc_arena is not None:
            # Promotion write barrier: the bound subgraph escapes its
            # request. One tag write per promoted node.
            promoted = promote_subgraph(node)
            if promoted:
                ctx.charge(Op.NODE_WRITE, promoted)

    def _find_here(
        self, symbol: str, ctx: ExecContext, sym_id: int = -1
    ) -> Optional[EnvEntry]:
        """Match in this scope only; one hash probe if indexed, else the
        entry walk (id compare when both sides are interned, strcmp
        otherwise — the paper's literal path)."""
        index = self._index
        if index is not None:
            ctx.charge(Op.HASH_PROBE)
            return index.get(symbol)
        entry = self.head
        while entry is not None:
            ctx.charge(Op.ENV_STEP)
            eid = entry.sym_id
            if sym_id >= 0 and eid >= 0:
                ctx.charge(Op.SYM_CMP)
                if eid == sym_id:
                    return entry
            elif str_cmp(entry.symbol, symbol, ctx) == 0:
                return entry
            entry = entry.nxt
        return None

    def lookup(
        self, symbol: str, ctx: ExecContext, sym_id: int = -1
    ) -> Optional[Node]:
        """First matching binding along the environment chain, else None.

        Every visited entry costs one ``ENV_STEP`` (pointer chase) plus a
        symbol comparison (strcmp, or one ``SYM_CMP`` when interned).
        """
        env: Optional[Environment] = self
        # _find_here per scope, inlined: its fixed charges are tallied
        # and charged once; str_cmp charges its own SYM_CHAR_CMP.
        probes = steps = compares = 0
        try:
            while env is not None:
                index = env._index
                if index is not None:
                    probes += 1
                    entry = index.get(symbol)
                    if entry is not None:
                        return entry.node
                else:
                    entry = env.head
                    while entry is not None:
                        steps += 1
                        eid = entry.sym_id
                        if sym_id >= 0 and eid >= 0:
                            compares += 1
                            if eid == sym_id:
                                return entry.node
                        elif str_cmp(entry.symbol, symbol, ctx) == 0:
                            return entry.node
                        entry = entry.nxt
                env = env.parent
            return None
        finally:
            if probes:
                ctx.charge(Op.HASH_PROBE, probes)
            if steps:
                ctx.charge(Op.ENV_STEP, steps)
            if compares:
                ctx.charge(Op.SYM_CMP, compares)

    def set_nearest(
        self, symbol: str, node: Node, ctx: ExecContext, sym_id: int = -1
    ) -> bool:
        """setq: update the nearest existing binding.

        Returns True if an existing binding was updated. If no binding
        exists anywhere, the paper stores the symbol in the *global*
        environment (so it persists across REPL inputs); we do the same —
        to the session root under multi-tenant serving — and return False.

        A binding that lives *above* a session root (the shared global
        environment, e.g. a builtin) is never mutated from inside that
        session: the symbol is shadowed in the session root instead, so
        one tenant's setq can't corrupt another tenant's view.
        """
        env: Optional[Environment] = self
        above_session_root = False
        while env is not None:
            entry = env._find_here(symbol, ctx, sym_id)
            if entry is not None:
                if above_session_root:
                    self.persistent_root().define(symbol, node, ctx, sym_id=sym_id)
                    return False
                ctx.charge(Op.NODE_WRITE)
                entry.node = node
                if env.gc_arena is not None:
                    promoted = promote_subgraph(node)
                    if promoted:
                        ctx.charge(Op.NODE_WRITE, promoted)
                return True
            if env.session_root:
                above_session_root = True
            env = env.parent
        self.persistent_root().define(symbol, node, ctx, sym_id=sym_id)
        return False

    def child(self, label: str = "") -> "Environment":
        return Environment(parent=self, label=label)
