"""Device-side output builtins: print, princ, terpri.

CuLi kernels do not printf to the host console (paper §III-B-d: the
output "will only be transferred to the host by ... blocking calls",
which CuLi avoids) — instead these builtins append to the device output
buffer that travels back through the command buffer. ``print`` writes a
readable representation preceded by a newline (Lisp tradition), ``princ``
writes the raw representation, both return their argument.
"""

from __future__ import annotations

from ..nodes import Node

__all__ = ["register"]


def _print(interp, env, ctx, values, depth) -> Node:
    (value,) = values
    out = interp.current_output(ctx)
    out.append("\n")
    interp.printer_for(ctx).print_node(value, out, readable=True)
    out.append(" ")
    return value


def _princ(interp, env, ctx, values, depth) -> Node:
    (value,) = values
    out = interp.current_output(ctx)
    interp.printer_for(ctx).print_node(value, out, readable=False)
    return value


def _terpri(interp, env, ctx, values, depth) -> Node:
    out = interp.current_output(ctx)
    out.append("\n")
    return interp.nil


def register(reg) -> None:
    reg.add_values("print", _print, 1, 1,
                   "Newline + readable representation; returns value.")
    reg.add_values("princ", _princ, 1, 1, "Raw representation; returns value.")
    reg.add_values("terpri", _terpri, 0, 0, "Emit a newline; returns nil.")
