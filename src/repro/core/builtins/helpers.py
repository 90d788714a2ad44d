"""Shared helpers for builtin implementations."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from ...context import ExecContext
from ...errors import ArenaExhaustedError, TypeMismatchError
from ...ops import Op
from ..nodes import Node, NodeType

if TYPE_CHECKING:  # pragma: no cover
    from ..environment import Environment
    from ..interpreter import Interpreter

__all__ = [
    "eval_args",
    "as_number",
    "as_int",
    "as_string",
    "require_list",
    "list_items",
    "build_list",
    "nodes_equal",
]


def eval_args(
    interp: "Interpreter",
    env: "Environment",
    ctx: ExecContext,
    args: list[Node],
    depth: int,
) -> list[Node]:
    """Evaluate every argument node in order."""
    return [interp.eval_node(a, env, ctx, depth) for a in args]


def as_number(node: Node, who: str) -> int | float:
    if node.ntype == NodeType.N_INT:
        return node.ival
    if node.ntype == NodeType.N_FLOAT:
        return node.fval
    raise TypeMismatchError(f"{who}: expected a number, got {node.ntype.name}")


def as_int(node: Node, who: str) -> int:
    if node.ntype == NodeType.N_INT:
        return node.ival
    raise TypeMismatchError(f"{who}: expected an integer, got {node.ntype.name}")


def as_string(node: Node, who: str) -> str:
    if node.ntype == NodeType.N_STRING:
        return node.sval
    raise TypeMismatchError(f"{who}: expected a string, got {node.ntype.name}")


def require_list(node: Node, who: str) -> Node:
    """Accept a list or nil (the empty list)."""
    if node.is_list_like or node.is_nil:
        return node
    raise TypeMismatchError(f"{who}: expected a list, got {node.ntype.name}")


def list_items(node: Node, ctx: ExecContext, who: str = "list") -> list[Node]:
    """Children of a list (nil => []), charging one load per link."""
    require_list(node, who)
    if node.is_nil:
        return []
    items = []
    child = node.first
    ctx.charge(Op.NODE_READ)
    while child is not None:
        items.append(child)
        child = child.nxt
        ctx.charge(Op.NODE_READ)
    return items


def build_list(interp: "Interpreter", values: Iterable[Node], ctx: ExecContext) -> Node:
    """A fresh N_LIST of ``values`` (copy-on-link applied), charged as one run.

    Each value costs two ``NODE_WRITE`` (its link). A value already
    linked into a list is first copied, as :meth:`Interpreter.copy_node`
    charges it: ``NODE_ALLOC``, ``NODE_READ`` and three ``NODE_WRITE``.
    Copies are counted as they are made, since a value that appears twice,
    as in ``(list x x)``, is linked by its first append. If the arena runs
    out mid-copy, the run charges the work done before it plus the failed
    allocation, which ``NodeArena.alloc`` charges before it raises.
    """
    arena = interp.arena
    lst = arena.alloc(NodeType.N_LIST, ctx)
    links = copies = 0
    try:
        for value in values:
            links += 1
            if value.linked:
                value = arena.take(value.ntype, ctx).copy_fields(value)
                copies += 1
            lst.append_child(value)
    except ArenaExhaustedError:
        ctx.charge(Op.NODE_ALLOC)  # the failed copy's allocation
        raise
    finally:
        if links:
            ctx.charge(Op.NODE_WRITE, 2 * links + 3 * copies)
        if copies:
            ctx.charge(Op.NODE_ALLOC, copies)
            ctx.charge(Op.NODE_READ, copies)
    return lst.seal()


def nodes_equal(a: Node, b: Node, ctx: ExecContext) -> bool:
    """Structural equality (the ``equal`` predicate)."""
    ctx.charge(Op.NODE_READ, 2)
    ctx.charge(Op.BRANCH)
    if a is b:
        return True
    ta, tb = a.ntype, b.ntype
    if ta in (NodeType.N_INT, NodeType.N_FLOAT) and tb in (NodeType.N_INT, NodeType.N_FLOAT):
        ctx.charge(Op.ALU)
        return a.number == b.number
    if ta != tb:
        return False
    if ta in (NodeType.N_STRING, NodeType.N_SYMBOL):
        ctx.charge(Op.SYM_CHAR_CMP, min(len(a.sval), len(b.sval)) + 1)
        return a.sval == b.sval
    if ta in (NodeType.N_NIL, NodeType.N_TRUE):
        return True
    if ta in (NodeType.N_LIST, NodeType.N_EXPRESSION):
        ca, cb = a.first, b.first
        while ca is not None and cb is not None:
            if not nodes_equal(ca, cb, ctx):
                return False
            ca, cb = ca.nxt, cb.nxt
            ctx.charge(Op.NODE_READ, 2)
        return ca is None and cb is None
    if ta == NodeType.N_FUNCTION:
        return a.fn is b.fn
    return False  # forms/macros compare by identity only
