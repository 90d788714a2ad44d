"""The ``|||`` parallel form (paper §III-D) and its bulk companions.

"Such an expression is structured as follows: the first parameter after
||| is an integer that defines the number of threads, the second
parameter is the function to be executed in parallel, and the remaining
parameters are the arguments of that function. ... A typical call could
look like the following: (||| 3 + (1 2 3) (4 5 6)). The master thread
will distribute the work among three workers. ... the first worker's
expression is (+ 1 4), the second one's is (+ 2 5), and the third one's
is (+ 3 6)."

The builtins validate and slice the work; the actual distribution is
delegated to the interpreter's *parallel engine* — the sequential engine
evaluates rows in a loop, the GPU engine runs the postbox/warp machinery
(in distribution rounds when jobs outnumber workers), the CPU engine
runs a pthread-pool model. The master walks each argument list with a
cursor (O(1) per job, not O(n) "n-th element" scans). The engine runs
the rows on workers when the master evaluates the form: in a single
command, or in a served request whose plan is the form alone (master
mode). A form a worker reaches, inside a row or anywhere else in a
served request, runs its rows sequentially in that worker's lane.

Three forms share the engine:

* ``(||| n fn list1 ... listk)`` — the paper's form: exactly ``n``
  workers, worker *i* evaluates ``(fn l1[i] ... lk[i])``. ``n`` is the
  contract: lists shorter than ``n`` are an error, and lists *longer*
  than ``n`` contribute only their first ``n`` elements (the worker
  count is explicit, so the prefix is the §III-D reading — pinned by
  regression tests, and the reason ``gpu-map`` exists for whole-list
  work). At least one argument list is required: ``(||| 3 +)`` would
  dispatch ``n`` empty rows with no defined semantics.
* ``(gpu-map fn list1 ... listk)`` — the bulk collection form: one job
  per element, *every* element consumed. No worker count to truncate
  to, so ragged lists are an error rather than silently sliced.
  Equivalent to ``mapcar`` on equal-length lists (property-pinned),
  but each element row is one engine job. The rows name no worker, so
  the GPU engine spreads them one per warp first, as it does tenant
  requests.
* ``(preduce fn list [init])`` — parallel tree reduction: pairwise
  combination rounds through the engine, O(log n) rounds instead of
  ``reduce``'s O(n) chain. ``fn`` must be associative for the result
  to equal the sequential left fold (``+``, ``*``, ``max`` ... — the
  usual tree-reduction contract). Its pairs are spread like
  ``gpu-map``'s rows.
"""

from __future__ import annotations

from ...errors import EvalError, TypeMismatchError
from ...ops import Op
from ..nodes import Node, NodeType
from .helpers import build_list, list_items, require_list

__all__ = ["PARALLEL_HEADS", "register"]

#: The names of the forms that hand rows to the parallel engine.
PARALLEL_HEADS = frozenset({"|||", "gpu-map", "preduce"})


def _resolve_fn(interp, env, ctx, node, depth, who: str) -> Node:
    """Evaluate the function argument and reject non-distributables."""
    fn = interp.eval_node(node, env, ctx, depth)
    if fn.ntype == NodeType.N_SYMBOL:
        looked = env.lookup(fn.sval, ctx, fn.sym_id)
        if looked is not None:
            fn = looked
    if not fn.is_callable:
        raise TypeMismatchError(
            f"{who}: expected a function, got {fn.ntype.name}"
        )
    if fn.ntype == NodeType.N_MACRO:
        raise TypeMismatchError(
            f"{who}: macros cannot be distributed to workers"
        )
    return fn


def _run_engine(
    interp, fn, rows, env, ctx, depth, who: str, spread: bool
) -> list[Node]:
    """Hand ``rows`` to the parallel engine. ``spread`` is the layout:
    ``|||`` names the worker of each row and keeps the dense one, the
    bulk forms' rows name none and are spread one per warp first."""
    results = interp.parallel_engine(interp, fn, rows, env, ctx, depth, spread)
    if len(results) != len(rows):
        raise EvalError(
            f"{who}: engine returned {len(results)} results for "
            f"{len(rows)} jobs"
        )
    return results


def _parallel(interp, env, ctx, args, depth) -> Node:
    # -- worker count ----------------------------------------------------
    n_node = interp.eval_node(args[0], env, ctx, depth)
    if n_node.ntype != NodeType.N_INT:
        raise TypeMismatchError("|||: thread count must be an integer")
    n = n_node.ival
    if n <= 0:
        raise EvalError(f"|||: thread count must be positive, got {n}")

    # -- the function ------------------------------------------------------
    fn = _resolve_fn(interp, env, ctx, args[1], depth, "|||")

    # -- argument lists, one per function parameter ------------------------
    # Min arity 3 guarantees at least one list; an empty row per worker
    # has no defined semantics (what would the workers evaluate?).
    lists = []
    for arg in args[2:]:
        value = interp.eval_node(arg, env, ctx, depth)
        require_list(value, "|||")
        lists.append(value)

    # Row slicing with per-list cursors: job i gets element i of each
    # list. Only the first n elements of each list are consumed — n is
    # the explicit worker count, so surplus elements are deliberately
    # (and documentedly) ignored; use gpu-map for whole-list mapping.
    cursors = [lst.first if not lst.is_nil else None for lst in lists]
    ctx.charge(Op.NODE_READ, len(cursors))
    rows: list[list[Node]] = []
    for i in range(n):
        row = []
        for k, cursor in enumerate(cursors):
            if cursor is None:
                raise EvalError(
                    f"|||: argument list {k + 1} has fewer than {n} elements"
                )
            row.append(cursor)
            cursors[k] = cursor.nxt
            ctx.charge(Op.NODE_READ)
        rows.append(row)

    results = _run_engine(interp, fn, rows, env, ctx, depth, "|||", False)
    # "The master thread ... generates a new N_LIST node and appends the
    # workers' results in the same order as the work was distributed."
    return build_list(interp, results, ctx)


def _gpu_map(interp, env, ctx, args, depth) -> Node:
    """(gpu-map fn list1 ... listk) — one engine job per element row.

    The bulk sibling of ``|||``: no explicit worker count, so the
    engine's own worker inventory decides the distribution rounds and
    *every* element is consumed. Ragged lists are an error — there is
    no ``n`` to truncate to, and silently dropping tail elements is
    exactly the ambiguity this form exists to avoid.

    The rows run on the device's workers when the master evaluates the
    form (a single command, or a served request that is this form
    alone); a worker that reaches it runs the rows in its own lane.
    """
    fn = _resolve_fn(interp, env, ctx, args[0], depth, "gpu-map")
    columns = []
    for arg in args[1:]:
        value = interp.eval_node(arg, env, ctx, depth)
        columns.append(list_items(value, ctx, "gpu-map"))
    n = len(columns[0])
    for k, column in enumerate(columns[1:], start=2):
        if len(column) != n:
            raise EvalError(
                f"gpu-map: argument list {k} has {len(column)} elements, "
                f"list 1 has {n}: gpu-map consumes every element, so the "
                "lists must have equal length"
            )
    rows = [[column[i] for column in columns] for i in range(n)]
    results = _run_engine(interp, fn, rows, env, ctx, depth, "gpu-map", True)
    return build_list(interp, results, ctx)


def _preduce(interp, env, ctx, args, depth) -> Node:
    """(preduce fn list [init]) — tree reduction through the engine.

    Each round pairs adjacent items and combines every pair as one
    engine job (an odd leftover rides to the next round unchanged), so
    a 1000-element list needs ~10 rounds instead of 999 sequential
    applications. For associative ``fn`` the result equals
    ``(reduce fn list [init])``; non-associative functions observe the
    tree grouping — the standard parallel-reduction contract.
    """
    fn = _resolve_fn(interp, env, ctx, args[0], depth, "preduce")
    items = list_items(
        interp.eval_node(args[1], env, ctx, depth), ctx, "preduce"
    )
    init = (
        interp.eval_node(args[2], env, ctx, depth) if len(args) >= 3 else None
    )
    if not items:
        if init is None:
            raise EvalError("preduce: empty list with no initial value")
        return init
    while len(items) > 1:
        rows = [
            [items[i], items[i + 1]] for i in range(0, len(items) - 1, 2)
        ]
        combined = _run_engine(interp, fn, rows, env, ctx, depth, "preduce", True)
        if len(items) % 2:
            combined.append(items[-1])
        items = combined
    acc = items[0]
    if init is not None:
        acc = interp.apply_callable(fn, [init, acc], env, ctx, depth)
    return acc


def register(reg) -> None:
    reg.add(
        "|||",
        _parallel,
        3,
        None,
        "(||| n fn list1 ... listk): apply fn to row i of the lists on "
        "worker i (first n elements only).",
    )
    reg.add(
        "gpu-map",
        _gpu_map,
        2,
        None,
        "(gpu-map fn list1 ... listk): apply fn to every element row "
        "through the parallel engine (equal-length lists).",
    )
    reg.add(
        "preduce",
        _preduce,
        2,
        3,
        "(preduce fn list [init]): parallel tree reduction; fn must be "
        "associative to match the sequential fold.",
    )
