"""CuLi nodes (paper §III-A, Figs. 1-4).

"The most basic structure of CuLi is the node, implemented as a C struct.
Such a node stores values, functions and links to other nodes. After a
value has been assigned to a node, it becomes immutable."

Node layout here mirrors the paper's struct: a type tag, value fields
(int/float/string/function pointer), child pointers (``first``/``last``)
for list-like nodes, a sibling pointer (``nxt``) chaining children, and —
for forms/macros — a parameter list. Nodes are sealed after construction;
mutating a sealed node raises :class:`~repro.errors.ImmutabilityError`.
"""

from __future__ import annotations

from enum import IntEnum
from typing import TYPE_CHECKING, Iterator, Optional

from ..errors import ImmutabilityError

if TYPE_CHECKING:  # pragma: no cover
    from .builtins import BuiltinFunction

__all__ = [
    "NodeType",
    "Node",
    "TemplateNode",
    "NODE_BYTES",
    "REGION_FREE",
    "REGION_TENURED",
    "promote_subgraph",
]

#: Simulated size of one node struct in device memory (for addressing).
NODE_BYTES = 64

#: Generation/region tags (generational GC, DESIGN.md deviation #7).
#: A node is FREE while on the arena's free list, TENURED when it must
#: survive end-of-command collection, and carries a positive region id
#: while it lives in the current request's nursery region.
REGION_FREE = -1
REGION_TENURED = 0


class NodeType(IntEnum):
    """The paper's node types, plus N_MACRO for its macro support."""

    N_NIL = 0         #: the false value / empty list
    N_TRUE = 1        #: the true value
    N_INT = 2
    N_FLOAT = 3
    N_STRING = 4
    N_SYMBOL = 5
    N_FUNCTION = 6    #: built-in function (function pointer)
    N_LIST = 7        #: linked list of child nodes
    N_EXPRESSION = 8  #: list whose head resolved to a built-in
    N_FORM = 9        #: user-defined function (defun / lambda)
    N_MACRO = 10      #: user-defined macro (defmacro)


_LIST_TYPES = frozenset({NodeType.N_LIST, NodeType.N_EXPRESSION})


class Node:
    """One CuLi node. Construct through :class:`~repro.core.arena.NodeArena`."""

    __slots__ = (
        "idx",
        "ntype",
        "ival",
        "fval",
        "sval",
        "sym_id",
        "fn",
        "first",
        "last",
        "nxt",
        "params",
        "sealed",
        "linked",
        "region",
        "gc_epoch",
    )

    def __init__(self, idx: int, ntype: NodeType) -> None:
        self.idx = idx
        self.ntype = ntype
        self.ival: int = 0
        self.fval: float = 0.0
        self.sval: str = ""
        #: Interned symbol id (see repro.core.symtab); -1 = not interned.
        #: Literal paper mode never assigns ids, so every comparison
        #: falls back to the strcmp chain the paper describes.
        self.sym_id: int = -1
        self.fn: Optional["BuiltinFunction"] = None
        self.first: Optional[Node] = None
        self.last: Optional[Node] = None
        self.nxt: Optional[Node] = None
        self.params: Optional[Node] = None
        self.sealed = False
        #: True once this node has been placed in some list — linking it
        #: into another list would corrupt the first one's sibling chain,
        #: so list builders copy linked nodes (copy-on-link).
        self.linked = False
        #: Generation/region tag: REGION_FREE on the free list,
        #: REGION_TENURED once persistent, a positive nursery region id
        #: while request-local. Maintained by the arena and the GC write
        #: barriers; never consulted by evaluation semantics.
        self.region = REGION_TENURED
        #: Mark-phase visited stamp (collector epoch). Comparing an int
        #: slot replaces hashing node objects into a marked set.
        self.gc_epoch = 0

    # -- mutation (pre-seal only) -------------------------------------------

    def _guard(self) -> None:
        if self.sealed:
            raise ImmutabilityError(
                f"node #{self.idx} ({self.ntype.name}) is sealed and immutable"
            )

    def seal(self) -> "Node":
        self.sealed = True
        return self

    def set_str(self, value: str) -> "Node":
        self._guard()
        self.sval = value
        return self

    def set_fn(self, fn: "BuiltinFunction") -> "Node":
        self._guard()
        self.fn = fn
        return self

    def set_params(self, params: "Node") -> "Node":
        self._guard()
        self.params = params
        return self

    def copy_fields(self, src: "Node") -> "Node":
        """Make this fresh node a shallow copy of ``src`` and seal it:
        value fields and child pointers are copied, the child chain
        itself is shared (immutable). Uncharged; see
        ``Interpreter.copy_node`` for the charges."""
        self.ival = src.ival
        self.fval = src.fval
        self.sval = src.sval
        self.sym_id = src.sym_id
        self.fn = src.fn
        self.first = src.first
        self.last = src.last
        self.params = src.params
        self.sealed = True
        return self

    def append_child(self, child: "Node") -> "Node":
        """Append ``child`` to this list-like node (updates first/last).

        The child's ``nxt`` pointer is claimed by this list — a node can
        belong to at most one unsealed list at a time.
        """
        self._guard()
        if self.first is None:
            barrier_source = self.region
            self.first = child
            self.last = child
        else:
            assert self.last is not None
            # The previous tail's sibling pointer is list wiring, not node
            # content, so extending an open list may set it even though
            # the tail node's own value is already fixed.
            barrier_source = self.last.region
            self.last.nxt = child
            self.last = child
        child.nxt = None
        child.linked = True
        # Link-time write barrier (generational GC): wiring a nursery
        # child under a tenured node creates a tenured->nursery edge that
        # a region reset would dangle. Promote the escaping subgraph now,
        # so minor collection never has to rescan the tenured heap.
        if barrier_source == REGION_TENURED and child.region > REGION_TENURED:
            promote_subgraph(child)
        return self

    # -- inspection -----------------------------------------------------------

    @property
    def is_list_like(self) -> bool:
        return self.ntype in _LIST_TYPES

    @property
    def is_callable(self) -> bool:
        return self.ntype in (NodeType.N_FUNCTION, NodeType.N_FORM, NodeType.N_MACRO)

    @property
    def is_nil(self) -> bool:
        return self.ntype == NodeType.N_NIL
    def children(self) -> Iterator["Node"]:
        """Iterate the child chain (uncharged; callers charge NODE_READ)."""
        child = self.first
        while child is not None:
            yield child
            child = child.nxt

    @property
    def addr(self) -> int:
        """Simulated device address of this node (for the cache model)."""
        return self.idx * NODE_BYTES

    @property
    def number(self) -> int | float:
        if self.ntype == NodeType.N_INT:
            return self.ival
        if self.ntype == NodeType.N_FLOAT:
            return self.fval
        raise TypeError(f"node #{self.idx} ({self.ntype.name}) is not a number")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        detail = ""
        if self.ntype == NodeType.N_INT:
            detail = f"={self.ival}"
        elif self.ntype == NodeType.N_FLOAT:
            detail = f"={self.fval}"
        elif self.ntype in (NodeType.N_SYMBOL, NodeType.N_STRING):
            detail = f"={self.sval!r}"
        elif self.ntype in (NodeType.N_FORM, NodeType.N_MACRO, NodeType.N_FUNCTION):
            detail = f"={self.sval or '<anon>'}"
        return f"<Node#{self.idx} {self.ntype.name}{detail}>"


class TemplateNode:
    """A detached parse-tree node: what the reader records beside each
    node it takes, and what the parse cache keeps and copies on a hit.

    A plain host-side object, invisible to the arena and the GC, holding
    only what the parser can produce (primitives and lists, never a
    function pointer or a parameter list), so a template can never
    capture evaluator-created state. The defaults are :class:`Node`'s.
    """

    __slots__ = ("ntype", "ival", "fval", "sval", "sym_id", "children")

    def __init__(self, ntype: NodeType, ival: int = 0, fval: float = 0.0,
                 sval: str = "", sym_id: int = -1) -> None:
        self.ntype = ntype
        self.ival = ival
        self.fval = fval
        self.sval = sval
        self.sym_id = sym_id
        self.children: list["TemplateNode"] = []


def promote_subgraph(node: Node) -> int:
    """Retag every nursery node reachable from ``node`` as tenured.

    The promotion write barrier: called when a node escapes its request
    (bound into a persistent scope, or linked under a tenured node).
    Traversal follows the same edges the mark phase does (first/nxt/
    params) but *stops at tenured nodes* — the barriers maintain the
    invariant that tenured nodes never point into a nursery, so the
    already-tenured frontier cannot hide unpromoted nodes behind it.
    Returns the number of nodes promoted.
    """
    if node.region <= REGION_TENURED:
        return 0
    promoted = 0
    stack = [node]
    while stack:
        cur = stack.pop()
        if cur.region <= REGION_TENURED:
            continue
        cur.region = REGION_TENURED
        promoted += 1
        if cur.first is not None:
            stack.append(cur.first)
        if cur.nxt is not None:
            stack.append(cur.nxt)
        if cur.params is not None:
            stack.append(cur.params)
    return promoted
