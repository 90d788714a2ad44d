"""Built-in functions (paper: N_FUNCTION nodes in the global environment).

"N_FUNCTION ... applies to built-in functions that are stored in the
global environment (like +, -, defun and cdr). ... Functions are stored
as function pointers and they expect a list of nodes containing the
parameters and a pointer to the environment that should be used for its
execution."

Builtins receive their argument nodes **unevaluated** (paper §III-B-c) —
special forms like ``quote``/``if``/``setq`` rely on that — and evaluate
what they need through the interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from ...context import ExecContext
from ...errors import ArityError
from ...ops import Op

if TYPE_CHECKING:  # pragma: no cover
    from ..environment import Environment
    from ..interpreter import Interpreter
    from ..nodes import Node

__all__ = ["BuiltinFunction", "BuiltinRegistry", "install_all"]

#: Charged on every builtin call: the call itself and the dispatch branch.
CALL_OPS = (Op.CALL, Op.BRANCH)

#: fn(interp, env, ctx, args, depth) -> Node, args unevaluated.
BuiltinImpl = Callable[..., "Node"]

#: values_fn(interp, env, ctx, values, depth) -> Node, values evaluated.
BuiltinValuesImpl = Callable[..., "Node"]


@dataclass(frozen=True)
class BuiltinFunction:
    """One built-in: a named function pointer with an arity contract.

    Most value-level builtins (arithmetic, lists, predicates, ...) are
    exactly ``work(eval_args(args))``; for those, ``values_fn`` exposes
    the ``work`` half so the JIT trace executor can feed it
    already-evaluated register values. Special forms and builtins with
    bespoke evaluation order leave ``values_fn`` as None — the trace
    compiler refuses to inline them and bails to the tree-walker.
    """

    name: str
    fn: BuiltinImpl
    min_args: int = 0
    max_args: Optional[int] = None  #: None = variadic
    doc: str = ""
    values_fn: Optional[BuiltinValuesImpl] = None

    def check_arity(self, n: int) -> None:
        if n < self.min_args or (self.max_args is not None and n > self.max_args):
            if self.max_args is None:
                expected = f"at least {self.min_args}"
            elif self.min_args == self.max_args:
                expected = str(self.min_args)
            else:
                expected = f"{self.min_args}..{self.max_args}"
            raise ArityError(f"{self.name} expects {expected} argument(s), got {n}")

    def call(
        self,
        interp: "Interpreter",
        env: "Environment",
        ctx: ExecContext,
        args: list["Node"],
        depth: int,
    ) -> "Node":
        ctx.charge_many(CALL_OPS)
        return self.fn(interp, env, ctx, args, depth)


class BuiltinRegistry:
    """Collects builtins before they are installed into the global env."""

    def __init__(self) -> None:
        self._by_name: dict[str, BuiltinFunction] = {}

    def add(
        self,
        name: str,
        fn: BuiltinImpl,
        min_args: int = 0,
        max_args: Optional[int] = None,
        doc: str = "",
    ) -> None:
        if name in self._by_name:
            raise ValueError(f"builtin {name!r} registered twice")
        self._by_name[name] = BuiltinFunction(
            name=name, fn=fn, min_args=min_args, max_args=max_args, doc=doc
        )

    def add_values(
        self,
        name: str,
        values_fn: BuiltinValuesImpl,
        min_args: int = 0,
        max_args: Optional[int] = None,
        doc: str = "",
    ) -> None:
        """Register a values-level builtin.

        The node-level ``fn`` is derived mechanically as
        ``values_fn(eval_args(args))``, so tree-walk behaviour (and its
        charge stream) is byte-identical to a hand-written builtin that
        evaluated its arguments first — which is what every builtin
        registered this way used to do.
        """
        if name in self._by_name:
            raise ValueError(f"builtin {name!r} registered twice")
        from .helpers import eval_args

        def fn(interp, env, ctx, args, depth):
            return values_fn(interp, env, ctx, eval_args(interp, env, ctx, args, depth), depth)

        self._by_name[name] = BuiltinFunction(
            name=name,
            fn=fn,
            min_args=min_args,
            max_args=max_args,
            doc=doc,
            values_fn=values_fn,
        )

    def names(self) -> list[str]:
        return sorted(self._by_name)

    def get(self, name: str) -> BuiltinFunction:
        return self._by_name[name]

    def __len__(self) -> int:
        return len(self._by_name)

    def __iter__(self):
        return iter(self._by_name.values())


def install_all(registry: BuiltinRegistry) -> BuiltinRegistry:
    """Register every builtin module into ``registry``."""
    from . import (
        arithmetic,
        compare,
        control,
        definitions,
        fileio,
        higher_order,
        io,
        lists,
        logic,
        mathfns,
        parallel,
        predicates,
        strings,
        system,
    )

    # Registration order matters for performance: the global environment
    # is a prepend-only linked list, so builtins registered LAST are found
    # FIRST during the linear symbol scan. Hot operators (arithmetic,
    # comparison, control flow) therefore go at the end.
    for module in (
        system,
        fileio,
        io,
        mathfns,
        strings,
        higher_order,
        predicates,
        logic,
        definitions,
        parallel,
        lists,
        control,
        compare,
        arithmetic,
    ):
        module.register(registry)
    return registry
