"""Arithmetic builtins: + - * / mod rem abs min max 1+ 1- expt sqrt and
integer rounding. Costs: one ALU/FADD per addition, IMUL/FMUL per
multiplication, IDIV/FDIV per division — matching what a device thread
executes per element.
"""

from __future__ import annotations

import math
import operator

from ...errors import EvalError
from ...ops import Op
from ..nodes import Node, NodeType
from .helpers import as_number

__all__ = ["register"]


def _charge_binop(ctx, a, b, int_op: Op, float_op: Op) -> None:
    if isinstance(a, int) and isinstance(b, int):
        ctx.charge(int_op)
    else:
        ctx.charge(float_op)


def _fold(values, who: str, total, step, int_op: Op, float_op: Op, ctx):
    """``total`` combined with each value by ``step``, left to right.

    Each step costs one ``int_op`` when both operands are ints and one
    ``float_op`` otherwise (as :func:`_charge_binop`), charged as one
    run per op for the steps made, also when a value is not a number.
    """
    ints = floats = 0
    try:
        for node in values:
            v = as_number(node, who)
            if isinstance(total, int) and isinstance(v, int):
                ints += 1
            else:
                floats += 1
            total = step(total, v)
    finally:
        if ints:
            ctx.charge(int_op, ints)
        if floats:
            ctx.charge(float_op, floats)
    return total


def _add(interp, env, ctx, values, depth) -> Node:
    total = _fold(values, "+", 0, operator.add, Op.ALU, Op.FADD, ctx)
    return interp.arena.new_number(total, ctx)


def _sub(interp, env, ctx, values, depth) -> Node:
    first = as_number(values[0], "-")
    if len(values) == 1:
        ctx.charge(Op.ALU)
        return interp.arena.new_number(-first, ctx)
    total = _fold(values[1:], "-", first, operator.sub, Op.ALU, Op.FADD, ctx)
    return interp.arena.new_number(total, ctx)


def _mul(interp, env, ctx, values, depth) -> Node:
    total = _fold(values, "*", 1, operator.mul, Op.IMUL, Op.FMUL, ctx)
    return interp.arena.new_number(total, ctx)


def _div(interp, env, ctx, values, depth) -> Node:
    first = as_number(values[0], "/")
    if len(values) == 1:
        values = [values[0], values[0]]
        total: int | float = 1
        rest = [first]
    else:
        total = first
        rest = [as_number(n, "/") for n in values[1:]]
    for v in rest:
        if v == 0:
            raise EvalError("/: division by zero")
        _charge_binop(ctx, total, v, Op.IDIV, Op.FDIV)
        if isinstance(total, int) and isinstance(v, int):
            # C-style: exact when it divides, otherwise promote to float
            # (CuLi has no rationals).
            total = total // v if total % v == 0 else total / v
        else:
            total = total / v
    return interp.arena.new_number(total, ctx)


def _mod(interp, env, ctx, values, depth) -> Node:
    a, b = values
    x, y = as_number(a, "mod"), as_number(b, "mod")
    if y == 0:
        raise EvalError("mod: division by zero")
    ctx.charge(Op.IDIV)
    return interp.arena.new_number(x % y, ctx)


def _rem(interp, env, ctx, values, depth) -> Node:
    a, b = values
    x, y = as_number(a, "rem"), as_number(b, "rem")
    if y == 0:
        raise EvalError("rem: division by zero")
    ctx.charge(Op.IDIV)
    result = math.fmod(x, y)  # C-style: sign follows the dividend
    if isinstance(x, int) and isinstance(y, int):
        result = int(result)
    return interp.arena.new_number(result, ctx)


def _abs(interp, env, ctx, values, depth) -> Node:
    (node,) = values
    ctx.charge(Op.ALU)
    return interp.arena.new_number(abs(as_number(node, "abs")), ctx)


def _minmax(which: str):
    def impl(interp, env, ctx, values, depth) -> Node:
        values = [as_number(n, which) for n in values]
        ctx.charge(Op.ALU, max(1, len(values) - 1))
        result = min(values) if which == "min" else max(values)
        return interp.arena.new_number(result, ctx)

    return impl


def _inc(interp, env, ctx, values, depth) -> Node:
    (node,) = values
    ctx.charge(Op.ALU)
    return interp.arena.new_number(as_number(node, "1+") + 1, ctx)


def _dec(interp, env, ctx, values, depth) -> Node:
    (node,) = values
    ctx.charge(Op.ALU)
    return interp.arena.new_number(as_number(node, "1-") - 1, ctx)


def _expt(interp, env, ctx, values, depth) -> Node:
    a, b = values
    base, expo = as_number(a, "expt"), as_number(b, "expt")
    ctx.charge(Op.FMUL, max(1, int(abs(expo)) if isinstance(expo, int) else 8))
    try:
        result = base ** expo
    except (OverflowError, ZeroDivisionError) as exc:
        raise EvalError(f"expt: {exc}") from None
    if isinstance(result, complex):
        raise EvalError("expt: complex result not supported")
    return interp.arena.new_number(result, ctx)


def _sqrt(interp, env, ctx, values, depth) -> Node:
    (node,) = values
    v = as_number(node, "sqrt")
    if v < 0:
        raise EvalError("sqrt: negative argument")
    ctx.charge(Op.FDIV)
    return interp.arena.new_float(math.sqrt(v), ctx)


def _rounder(which: str):
    fns = {"floor": math.floor, "ceiling": math.ceil, "truncate": math.trunc,
           "round": round}

    def impl(interp, env, ctx, values, depth) -> Node:
        (node,) = values
        ctx.charge(Op.FADD)
        return interp.arena.new_int(int(fns[which](as_number(node, which))), ctx)

    return impl


def register(reg) -> None:
    reg.add_values("+", _add, 0, None, "Sum of numbers; (+) is 0.")
    reg.add_values("-", _sub, 1, None, "Difference; unary form negates.")
    reg.add_values("*", _mul, 0, None, "Product of numbers; (*) is 1.")
    reg.add_values("/", _div, 1, None, "Quotient; integer when exact, else float.")
    reg.add_values("mod", _mod, 2, 2, "Modulo (sign follows divisor).")
    reg.add_values("rem", _rem, 2, 2, "Remainder (sign follows dividend).")
    reg.add_values("abs", _abs, 1, 1, "Absolute value.")
    reg.add_values("min", _minmax("min"), 1, None, "Smallest argument.")
    reg.add_values("max", _minmax("max"), 1, None, "Largest argument.")
    reg.add_values("1+", _inc, 1, 1, "Increment.")
    reg.add_values("1-", _dec, 1, 1, "Decrement.")
    reg.add_values("expt", _expt, 2, 2, "base ** exponent.")
    reg.add_values("sqrt", _sqrt, 1, 1, "Square root (always a float).")
    reg.add_values("floor", _rounder("floor"), 1, 1, "Largest integer <= x.")
    reg.add_values("ceiling", _rounder("ceiling"), 1, 1, "Smallest integer >= x.")
    reg.add_values("truncate", _rounder("truncate"), 1, 1, "Integer toward zero.")
    reg.add_values("round", _rounder("round"), 1, 1, "Nearest integer (banker's).")
