"""The CuLi evaluator (paper §III-B-c).

"The parse tree is traversed recursively by the evaluation stage."

Dispatch rules, following the paper exactly:

* ``N_LIST`` — evaluate the first element to decide whether the list is
  an expression (head resolves to a built-in ``N_FUNCTION``), a form
  (head resolves to a user-defined ``N_FORM``), or a macro. If none of
  these, *all* elements are evaluated and the resulting list is returned
  (this is how the literal argument lists of ``|||`` work). An empty
  list evaluates to nil.
* ``N_SYMBOL`` — the first occurrence along the environment chain
  replaces the symbol (late binding); an unmatched symbol is returned
  unchanged.
* expressions — children are handed to the function pointer
  **unevaluated** "since built-in functions might use them without
  evaluation (e.g. the setq function)".
* forms — a new environment stores the evaluated arguments under the
  parameter symbols; the stored body evaluates within it. The parent of
  that environment is the *call-site* environment (dynamic scope — see
  DESIGN.md).
* primitives — returned unchanged.

A builtin that is ``work(eval_args(args))`` (it has a ``values_fn``) is
called from the list's own frame: its arguments are evaluated there,
exactly as its node-level function would evaluate them, and the charges
are the same (DESIGN.md, "Host-side charge folding").
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..context import ExecContext
from ..errors import ArityError, EvalError, RecursionDepthError
from ..ops import Op
from .builtins import CALL_OPS
from .environment import Environment
from .nodes import Node, NodeType

if TYPE_CHECKING:  # pragma: no cover
    from .interpreter import Interpreter

__all__ = ["Evaluator"]

#: Fixed work at every eval entry, charged in one call.
_ENTRY_OPS = (Op.CALL, Op.NODE_READ, Op.BRANCH, Op.BRANCH)
#: ... and at a list's entry, with the load of its head node.
_LIST_ENTRY_OPS = _ENTRY_OPS + (Op.NODE_READ,)
#: ... and at a symbol head's entry, with the branch on its value.
_HEAD_OPS = _ENTRY_OPS + (Op.BRANCH,)


class Evaluator:
    def __init__(self, interp: "Interpreter") -> None:
        self.interp = interp

    # -- main dispatch -----------------------------------------------------------

    def eval(self, node: Node, env: Environment, ctx: ExecContext, depth: int = 0) -> Node:
        if depth > ctx.max_depth:
            raise RecursionDepthError(
                f"evaluation exceeded device stack depth ({ctx.max_depth})"
            )
        ntype = node.ntype
        if ntype == NodeType.N_LIST or ntype == NodeType.N_EXPRESSION:
            # The entry work plus the list's head load, in one charge.
            ctx.charge_many(_LIST_ENTRY_OPS)
            return self._eval_list(node, env, ctx, depth)
        # Call, load of the node's type tag, two-way type dispatch.
        ctx.charge_many(_ENTRY_OPS)

        if ntype == NodeType.N_SYMBOL:
            found = env.lookup(node.sval, ctx, node.sym_id)
            if found is None:
                return node  # late binding: unmatched symbols stay
            return found

        # Primitives (numbers, strings, nil, T, functions, forms) are
        # self-evaluating.
        return node

    # -- list / call handling -------------------------------------------------------

    def _eval_list(self, node: Node, env: Environment, ctx: ExecContext, depth: int) -> Node:
        """Evaluate a list; :meth:`eval` charged the load of its head."""
        interp = self.interp
        head = node.first
        if head is None:
            # The empty list evaluates to nil (a false condition).
            return interp.nil

        # Evaluate the first element to find out what this list is. A
        # symbol head is looked up in this frame, with eval's entry work
        # and the branch on its value charged in one call.
        if head.ntype == NodeType.N_SYMBOL and depth < ctx.max_depth:
            ctx.charge_many(_HEAD_OPS)
            head_value = env.lookup(head.sval, ctx, head.sym_id)
            if head_value is None:
                head_value = head
        else:
            head_value = self.eval(head, env, ctx, depth + 1)
            ctx.charge(Op.BRANCH)
        head_type = head_value.ntype

        if head_type == NodeType.N_FUNCTION:
            # Paper Fig. 3: the list becomes an expression whose children
            # are passed *unevaluated* to the function pointer.
            args = self._collect_args(head, ctx)
            fn = head_value.fn
            assert fn is not None
            fn.check_arity(len(args))
            depth += 1
            values_fn = fn.values_fn
            if values_fn is None:
                return fn.call(interp, env, ctx, args, depth)
            # fn.call's work, fused: evaluate the arguments in this frame
            # as eval would (a list argument recurses), then call the
            # values half. Atom entries are tallied and charged once. The
            # head's eval at this depth passed eval's depth check, so no
            # argument's eval would raise RecursionDepthError here.
            ctx.charge_many(CALL_OPS)
            values = []
            entries = 0
            try:
                for arg in args:
                    ntype = arg.ntype
                    if ntype == NodeType.N_LIST or ntype == NodeType.N_EXPRESSION:
                        ctx.charge_many(_LIST_ENTRY_OPS)
                        values.append(self._eval_list(arg, env, ctx, depth))
                        continue
                    entries += 1
                    if ntype == NodeType.N_SYMBOL:
                        found = env.lookup(arg.sval, ctx, arg.sym_id)
                        if found is not None:
                            arg = found
                    values.append(arg)
            finally:
                if entries:
                    ctx.charge_many(_ENTRY_OPS, entries)
            return values_fn(interp, env, ctx, values, depth)

        if head_type == NodeType.N_FORM:
            args = self._collect_args(head, ctx)
            return self.apply_form(head_value, args, env, ctx, depth + 1)

        if head_type == NodeType.N_MACRO:
            args = self._collect_args(head, ctx)
            expansion = self.expand_macro(head_value, args, env, ctx, depth + 1)
            return self.eval(expansion, env, ctx, depth + 1)

        # Not a call: evaluate every element, return the resulting list.
        result = interp.arena.alloc(NodeType.N_LIST, ctx)
        ctx.charge(Op.NODE_WRITE, 2)
        result.append_child(interp.linkable(head_value, ctx))
        child = head.nxt
        ctx.charge(Op.NODE_READ)
        while child is not None:
            value = self.eval(child, env, ctx, depth + 1)
            ctx.charge(Op.NODE_WRITE, 2)
            result.append_child(interp.linkable(value, ctx))
            child = child.nxt
            ctx.charge(Op.NODE_READ)
        return result.seal()

    def _collect_args(self, head: Node, ctx: ExecContext) -> list[Node]:
        """Walk the sibling chain after the head; one load per link."""
        args: list[Node] = []
        child = head.nxt
        while child is not None:
            args.append(child)
            child = child.nxt
        ctx.charge(Op.NODE_READ, len(args) + 1)
        return args

    # -- forms -------------------------------------------------------------------

    def apply_form(
        self,
        form: Node,
        args: list[Node],
        env: Environment,
        ctx: ExecContext,
        depth: int,
    ) -> Node:
        """Apply a user-defined function (paper: N_FORM evaluation).

        "If a form is evaluated, it adds the given arguments to the local
        environment and evaluates the stored subtree with this
        environment."
        """
        params = list(form.params.children()) if form.params is not None else []
        ctx.charge(Op.NODE_READ, len(params) + 1)
        if len(args) != len(params):
            name = form.sval or "<lambda>"
            raise ArityError(
                f"{name} expects {len(params)} argument(s), got {len(args)}"
            )
        local = Environment(parent=env, label=form.sval or "lambda")
        ctx.charge(Op.NODE_ALLOC)  # the environment struct itself
        for param, arg in zip(params, args):
            value = self.eval(arg, env, ctx, depth + 1)
            local.define(param.sval, value, ctx, sym_id=param.sym_id)
        return self._eval_body(form, local, ctx, depth)

    def apply_form_prevaluated(
        self,
        form: Node,
        values: list[Node],
        env: Environment,
        ctx: ExecContext,
        depth: int,
    ) -> Node:
        """Apply a form to already-evaluated values (funcall / apply)."""
        params = list(form.params.children()) if form.params is not None else []
        ctx.charge(Op.NODE_READ, len(params) + 1)
        if len(values) != len(params):
            name = form.sval or "<lambda>"
            raise ArityError(
                f"{name} expects {len(params)} argument(s), got {len(values)}"
            )
        local = Environment(parent=env, label=form.sval or "lambda")
        ctx.charge(Op.NODE_ALLOC)
        for param, value in zip(params, values):
            local.define(param.sval, value, ctx, sym_id=param.sym_id)
        return self._eval_body(form, local, ctx, depth)

    def _eval_body(
        self, form: Node, local: Environment, ctx: ExecContext, depth: int
    ) -> Node:
        result = self.interp.nil
        body = form.first
        ctx.charge(Op.NODE_READ)
        if body is None:
            raise EvalError(f"form {form.sval or '<lambda>'} has an empty body")
        while body is not None:
            result = self.eval(body, local, ctx, depth + 1)
            body = body.nxt
            ctx.charge(Op.NODE_READ)
        return result

    # -- macros ------------------------------------------------------------------

    def expand_macro(
        self,
        macro: Node,
        args: list[Node],
        env: Environment,
        ctx: ExecContext,
        depth: int,
    ) -> Node:
        """Bind *unevaluated* argument forms, evaluate the macro body once;
        the result is the expansion (evaluated by the caller)."""
        params = list(macro.params.children()) if macro.params is not None else []
        ctx.charge(Op.NODE_READ, len(params) + 1)
        if len(args) != len(params):
            name = macro.sval or "<macro>"
            raise ArityError(
                f"{name} expects {len(params)} argument(s), got {len(args)}"
            )
        local = Environment(parent=env, label=f"macro:{macro.sval}")
        ctx.charge(Op.NODE_ALLOC)
        for param, arg in zip(params, args):
            local.define(param.sval, arg, ctx, sym_id=param.sym_id)
        return self._eval_body(macro, local, ctx, depth)
