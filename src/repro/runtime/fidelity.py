"""Simulation fidelity: full per-thread execution vs warp-representative.

``Fidelity.FULL`` simulates every worker thread's evaluation separately.
``Fidelity.WARP`` exploits SIMT lockstep: workers with *structurally
identical* tasks execute the same instruction stream in the same time,
so one representative per task group is evaluated with charging and its
cycle count stands for the whole group. Identical tasks also share one
result node (legal — CuLi nodes are immutable; FULL mode allocates per
worker like the paper's C does).

Tests assert FULL and WARP agree on outputs and on timing for uniform
workloads; DESIGN.md documents this as deviation #2.
"""

from __future__ import annotations

from enum import Enum
from typing import Hashable

from ..core.nodes import Node, NodeType

__all__ = ["Fidelity", "task_signature", "group_rows", "group_signatures"]

_MAX_SIG_DEPTH = 16


class Fidelity(str, Enum):
    FULL = "full"
    WARP = "warp"


def _node_sig(node: Node, depth: int = 0) -> Hashable:
    """A structural signature: equal signatures => identical evaluation."""
    if depth > _MAX_SIG_DEPTH:
        return ("deep", id(node))  # too deep to prove identical: be exact
    t = node.ntype
    if t == NodeType.N_INT:
        return ("i", node.ival)
    if t == NodeType.N_FLOAT:
        return ("f", node.fval)
    if t in (NodeType.N_STRING, NodeType.N_SYMBOL):
        return (t.value, node.sval)
    if t in (NodeType.N_NIL, NodeType.N_TRUE):
        return (t.value,)
    if t in (NodeType.N_LIST, NodeType.N_EXPRESSION):
        return (t.value,) + tuple(_node_sig(c, depth + 1) for c in node.children())
    # Functions / forms / macros: identity (same definition node).
    return ("fn", id(node))


def task_signature(fn: Node, row: list[Node]) -> Hashable:
    return (id(fn),) + tuple(_node_sig(arg) for arg in row)


def group_rows(fn: Node, rows: list[list[Node]]) -> dict[Hashable, list[int]]:
    """Group job indices by task signature (insertion-ordered)."""
    return group_signatures([task_signature(fn, row) for row in rows])


def group_signatures(sigs: list[Hashable]) -> dict[Hashable, list[int]]:
    """Group job indices by their already computed task signatures
    (insertion-ordered), for a caller that needs the signatures too."""
    groups: dict[Hashable, list[int]] = {}
    for i, sig in enumerate(sigs):
        groups.setdefault(sig, []).append(i)
    return groups
