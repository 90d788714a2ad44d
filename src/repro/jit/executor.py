"""The non-recursive trace executor.

One trace execution is: *preflight* every guarded head (re-resolve each
callee name in the request's environment and check it is still the kind
of thing the compiler specialized on — bail to the tree-walker
otherwise, before any instruction has run), then a single flat dispatch
loop over the instruction list.

Charging: every instruction costs one ``Op.TRACE_STEP``; preflight,
guard, and apply sites cost one ``Op.GUARD_CHECK`` each (plus the same
charged ``env.lookup`` the tree-walker would pay). Past the preflight,
the executor tallies these fixed ops (and a builtin call's CALL +
BRANCH, a conditional jump's BRANCH) in locals and charges each as one
run when the trace ends, normally or not. That is exact: counts are
integers, the phase does not change inside eval, and the tallies are
charged before a user-form call, the one place a trace can reach code
that reads the cycle counters (a nested ``|||``). Everything a trace
*does* to the heap — materializing literals, calling builtin bodies,
applying user forms — goes through exactly the charged primitives the
tree-walker uses, which is what makes results and retained heaps
byte-identical while the per-node ``eval`` dispatch cost disappears.

Invalidation discipline:

* Before any side effect, a stale head is a :class:`TraceBail` — the
  caller falls back to materialize + tree-walk and nothing happened.
* After a user-form call (the only traced instruction that can rebind
  arbitrary names), the environment is *dirty*: every later guard/apply
  re-verifies its head, and a mismatch raises
  :class:`TraceInvalidatedError` — a loud Lisp-level error, because
  side effects have already run and silently re-walking the form would
  double them. DESIGN.md deviation #10 documents this corner (a form
  that redefines its own later callee mid-execution).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..core.nodes import Node, NodeType
from ..errors import EvalError
from ..ops import Op
from .trace import HEAD_SPECIAL, HeadSlot, TOp, Trace

if TYPE_CHECKING:  # pragma: no cover
    from ..context import ExecContext
    from ..core.environment import Environment
    from ..core.interpreter import Interpreter

__all__ = ["TraceBail", "TraceInvalidatedError", "execute_trace"]


class TraceBail(Exception):
    """Preflight guard failed; fall back to the tree-walker (safe: no
    instruction has executed yet)."""


class TraceInvalidatedError(EvalError):
    """A head binding changed *mid-trace* (after side effects ran)."""


def _slot_valid(slot: HeadSlot, target: Optional[Node]) -> bool:
    if target is None:
        return False
    if slot.kind == HEAD_SPECIAL:
        return (
            target.ntype == NodeType.N_FUNCTION
            and target.fn is not None
            and target.fn.name == slot.expect
        )
    if target.ntype == NodeType.N_FUNCTION:
        return target.fn is not None and target.fn.values_fn is not None
    return target.ntype == NodeType.N_FORM


def execute_trace(
    trace: Trace,
    interp: "Interpreter",
    env: "Environment",
    ctx: "ExecContext",
    depth: int = 0,
) -> Node:
    """Run one compiled trace in ``env``; returns the form's value."""
    # ---- preflight: resolve and verify every guarded head ------------------
    targets: list[Node] = []
    for slot in trace.heads:
        ctx.charge(Op.GUARD_CHECK)
        target = env.lookup(slot.name, ctx, slot.sym_id)
        if not _slot_valid(slot, target):
            raise TraceBail(slot.name)
        targets.append(target)

    cache = interp.parse_cache
    assert cache is not None  # the jit option requires the parse cache
    arena = interp.arena
    memo: dict = {}  # template -> node, shared across this execution
    instrs = trace.instrs
    heads = trace.heads
    regs: list[Optional[Node]] = [None] * trace.n_regs
    env_dirty = False
    # Fixed tallies, charged as one run each when the trace ends (or
    # before a user-form call, whose body may read the cycle counters).
    steps = guards = calls = branches = 0
    pc = 0
    try:
        while True:
            ins = instrs[pc]
            steps += 1
            op = ins.op
            if op == TOp.APPLY:
                guards += 1
                target = targets[ins.head]
                if env_dirty:
                    slot = heads[ins.head]
                    if env.lookup(slot.name, ctx, slot.sym_id) is not target:
                        raise TraceInvalidatedError(
                            f"trace head {slot.name!r} was rebound mid-trace "
                            "(after side effects); re-run the request"
                        )
                values = [regs[r] for r in ins.args]
                if target.ntype == NodeType.N_FUNCTION:
                    builtin = target.fn
                    builtin.check_arity(len(values))
                    calls += 1  # CALL + BRANCH
                    regs[ins.dst] = builtin.values_fn(interp, env, ctx, values, depth + 1)
                else:  # N_FORM: a user defun; its body may rebind anything.
                    _charge_tallies(ctx, steps, guards, calls, branches)
                    steps = guards = calls = branches = 0
                    regs[ins.dst] = interp.evaluator.apply_form_prevaluated(
                        target, values, env, ctx, depth + 1
                    )
                    env_dirty = True
            elif op == TOp.CONST:
                # Parity with the tree-walker, where a returned literal is
                # a linked *child* of the program tree and keeps its
                # sibling chain: storing it must copy-on-link and retain
                # exactly as the materialized tree would. A literal an
                # earlier chain already built is wired already.
                node = memo.get(ins.template)
                if node is None:
                    node = cache.materialize_chain(ins.sibs, ins.index, arena, ctx, memo)
                regs[ins.dst] = node
            elif op == TOp.LOAD:
                value = env.lookup(ins.name, ctx, ins.sym_id)
                if value is None:
                    # Late binding: an unbound symbol evaluates to itself.
                    value = memo.get(ins.template)
                    if value is None:
                        value = cache.materialize_chain(ins.sibs, ins.index, arena, ctx, memo)
                regs[ins.dst] = value
            elif op == TOp.MOV:
                regs[ins.dst] = regs[ins.src]
            elif op == TOp.PUSHNIL:
                regs[ins.dst] = interp.nil
            elif op == TOp.PUSHTRUE:
                regs[ins.dst] = interp.true
            elif op == TOp.SETQ:
                value = regs[ins.src]
                env.set_nearest(ins.name, value, ctx, sym_id=ins.sym_id)
                regs[ins.dst] = value
            elif op == TOp.GUARD:
                guards += 1
                if env_dirty:
                    slot = heads[ins.head]
                    if env.lookup(slot.name, ctx, slot.sym_id) is not targets[ins.head]:
                        raise TraceInvalidatedError(
                            f"special form {slot.name!r} was rebound mid-trace "
                            "(after side effects); re-run the request"
                        )
            elif op == TOp.JUMP:
                pc = ins.target
                continue
            elif op == TOp.JUMPF:
                branches += 1
                if not interp.truthy(regs[ins.src], ctx):
                    pc = ins.target
                    continue
            elif op == TOp.JUMPT:
                branches += 1
                if interp.truthy(regs[ins.src], ctx):
                    pc = ins.target
                    continue
            else:  # TOp.RET
                return regs[ins.src]
            pc += 1
    finally:
        _charge_tallies(ctx, steps, guards, calls, branches)


def _charge_tallies(ctx: "ExecContext", steps: int, guards: int, calls: int,
                    branches: int) -> None:
    """Charge a trace's fixed tallies: a builtin call is CALL + BRANCH,
    a conditional jump one more BRANCH."""
    if steps:
        ctx.charge(Op.TRACE_STEP, steps)
    if guards:
        ctx.charge(Op.GUARD_CHECK, guards)
    if calls:
        ctx.charge(Op.CALL, calls)
    if calls or branches:
        ctx.charge(Op.BRANCH, calls + branches)
