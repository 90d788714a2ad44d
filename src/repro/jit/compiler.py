"""The trace compiler: cache-hot form templates -> flat register traces.

Compilation is *static* and *conservative*. It runs over the parse
cache's detached :class:`~repro.core.nodes.TemplateNode` trees
(host-side objects, so compiling — like caching — is uncharged host
work), and it refuses anything whose evaluation order or binding
discipline it cannot flatten exactly:

* a head that is not a symbol,
* a registry builtin with no values-level implementation (``while``,
  ``cond``, ``defun``, ``lambda``, ``let``, the higher-order family, …),
* a call that statically violates a builtin's arity contract,
* malformed ``setq``/``quote``/``if`` shapes, and
* any form where a ``setq`` target name collides with a name used as a
  callee head — the one static case where a traced instruction could
  invalidate a preflighted head mid-trace.

A bail returns None and the form simply stays on the tree-walker; the
parse cache remembers the failure so compilation is attempted once per
cached text, not once per request.

Six *special* heads — ``quote``, ``if``, ``progn``, ``setq``, ``and``,
``or`` — are compiled structurally (conditionals become jumps, ``setq``
becomes a store instruction) under a guard that the name is still bound
to that exact registry builtin when the trace runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..core.nodes import NodeType, TemplateNode
from .trace import HEAD_CALL, HEAD_SPECIAL, HeadSlot, Instr, TOp, Trace

if TYPE_CHECKING:  # pragma: no cover
    from ..core.interpreter import Interpreter

__all__ = ["SPECIALS", "CompileBail", "compile_form"]

#: Heads the compiler flattens structurally instead of calling.
SPECIALS = frozenset({"quote", "if", "progn", "setq", "and", "or"})

#: Template node kinds that evaluate to themselves.
_SELF_EVALUATING = frozenset(
    {NodeType.N_INT, NodeType.N_FLOAT, NodeType.N_STRING,
     NodeType.N_NIL, NodeType.N_TRUE}
)


class CompileBail(Exception):
    """Internal: this form cannot be traced; stay on the tree-walker."""


def _collect_names(t: TemplateNode, heads: set, setq_targets: set) -> None:
    if t.ntype != NodeType.N_LIST or not t.children:
        return
    head = t.children[0]
    if head.ntype == NodeType.N_SYMBOL:
        heads.add(head.sval)
        if head.sval == "setq":
            for target in t.children[1::2]:
                if target.ntype == NodeType.N_SYMBOL:
                    setq_targets.add(target.sval)
    for child in t.children:
        _collect_names(child, heads, setq_targets)


def compile_form(template: TemplateNode, interp: "Interpreter") -> Optional[Trace]:
    """Compile one top-level form template, or None if it must tree-walk."""
    heads: set = set()
    setq_targets: set = set()
    _collect_names(template, heads, setq_targets)
    if heads & setq_targets:
        # A traced setq could rebind a name the preflight already
        # resolved as a callee; refusing statically keeps every
        # preflighted head valid for the whole trace.
        return None
    compiler = _Compiler(interp)
    try:
        result = compiler.expr((template,))
    except CompileBail:
        return None
    compiler.emit(Instr(TOp.RET, src=result))
    return Trace(compiler.instrs, compiler.heads, compiler.n_regs)


class _Compiler:
    """Single-pass flattening compiler for one top-level form."""

    def __init__(self, interp: "Interpreter") -> None:
        self.registry = interp.registry
        self.instrs: list[Instr] = []
        self.heads: list[HeadSlot] = []
        self._head_index: dict = {}
        self.n_regs = 0

    def reg(self) -> int:
        self.n_regs += 1
        return self.n_regs - 1

    def emit(self, instr: Instr) -> int:
        self.instrs.append(instr)
        return len(self.instrs) - 1

    def head_slot(self, name: str, sym_id: int, kind: int,
                  expect: Optional[str] = None) -> int:
        key = (name, kind, expect)
        idx = self._head_index.get(key)
        if idx is None:
            idx = len(self.heads)
            self.heads.append(HeadSlot(name, sym_id, kind, expect))
            self._head_index[key] = idx
        return idx

    # -- expression compilation ---------------------------------------------------

    def expr(self, sibs: tuple, index: int = 0) -> int:
        """Compile the expression ``sibs[index]``; returns the register
        holding its value.

        ``sibs`` is the argument tuple of the expression's parent form
        (a one-tuple for a top-level form or a quoted datum). The
        tree-walker evaluates a literal or unbound symbol to the
        materialized tree node *itself*, whose ``nxt`` chain runs through
        the following siblings — so if the value is retained, the
        siblings are retained too. CONST/LOAD carry the shared tuple and
        the index so the executor can reproduce that exact reachable
        shape.
        """
        t = sibs[index]
        if t.ntype in _SELF_EVALUATING:
            dst = self.reg()
            self.emit(Instr(TOp.CONST, dst=dst, template=t, sibs=sibs, index=index))
            return dst
        if t.ntype == NodeType.N_SYMBOL:
            dst = self.reg()
            self.emit(Instr(TOp.LOAD, dst=dst, name=t.sval, sym_id=t.sym_id,
                            template=t, sibs=sibs, index=index))
            return dst
        if t.ntype == NodeType.N_LIST:
            return self._list(t)
        raise CompileBail(t.ntype)

    def _list(self, t: TemplateNode) -> int:
        children = t.children
        if not children:
            # () evaluates to nil (the evaluator's empty-head case).
            dst = self.reg()
            self.emit(Instr(TOp.PUSHNIL, dst=dst))
            return dst
        head = children[0]
        if head.ntype != NodeType.N_SYMBOL:
            raise CompileBail("non-symbol head")
        name = head.sval
        args = tuple(children[1:])
        if name in SPECIALS:
            return self._special(name, head, args)
        try:
            builtin = self.registry.get(name)
        except KeyError:
            builtin = None
        if builtin is not None:
            if builtin.values_fn is None:
                # Bespoke evaluation order (control flow, definitions,
                # higher-order); the tree-walker owns these.
                raise CompileBail(name)
            n = len(args)
            if n < builtin.min_args or (
                builtin.max_args is not None and n > builtin.max_args
            ):
                raise CompileBail("static arity violation")
        slot = self.head_slot(name, head.sym_id, HEAD_CALL)
        arg_regs = tuple(self.expr(args, i) for i in range(len(args)))
        dst = self.reg()
        self.emit(Instr(TOp.APPLY, dst=dst, head=slot, args=arg_regs))
        return dst

    # -- special forms --------------------------------------------------------------

    def _special(self, name: str, head: TemplateNode, args: tuple) -> int:
        slot = self.head_slot(name, head.sym_id, HEAD_SPECIAL, expect=name)
        self.emit(Instr(TOp.GUARD, head=slot))
        if name == "quote":
            if len(args) != 1:
                raise CompileBail("quote arity")
            dst = self.reg()
            self.emit(Instr(TOp.CONST, dst=dst, template=args[0], sibs=args))
            return dst
        if name == "if":
            return self._if(args)
        if name == "progn":
            return self._progn(args)
        if name == "setq":
            return self._setq(args)
        if name == "and":
            return self._and(args)
        assert name == "or"
        return self._or(args)

    def _if(self, args: tuple) -> int:
        if not 2 <= len(args) <= 3:
            raise CompileBail("if arity")
        cond = self.expr(args, 0)
        dst = self.reg()
        jf = self.emit(Instr(TOp.JUMPF, src=cond))
        then = self.expr(args, 1)
        self.emit(Instr(TOp.MOV, dst=dst, src=then))
        jend = self.emit(Instr(TOp.JUMP))
        self.instrs[jf].target = len(self.instrs)
        if len(args) == 3:
            alt = self.expr(args, 2)
            self.emit(Instr(TOp.MOV, dst=dst, src=alt))
        else:
            self.emit(Instr(TOp.PUSHNIL, dst=dst))
        self.instrs[jend].target = len(self.instrs)
        return dst

    def _progn(self, args: tuple) -> int:
        if not args:
            dst = self.reg()
            self.emit(Instr(TOp.PUSHNIL, dst=dst))
            return dst
        dst = -1
        for i in range(len(args)):
            dst = self.expr(args, i)
        return dst

    def _setq(self, args: tuple) -> int:
        if not args or len(args) % 2:
            raise CompileBail("setq shape")
        dst = -1
        for i in range(0, len(args), 2):
            target = args[i]
            if target.ntype != NodeType.N_SYMBOL:
                raise CompileBail("setq target")
            value = self.expr(args, i + 1)
            dst = self.reg()
            self.emit(Instr(TOp.SETQ, dst=dst, src=value, name=target.sval,
                            sym_id=target.sym_id))
        return dst

    def _and(self, args: tuple) -> int:
        dst = self.reg()
        if not args:
            self.emit(Instr(TOp.PUSHTRUE, dst=dst))
            return dst
        false_jumps = []
        for i in range(len(args)):
            value = self.expr(args, i)
            self.emit(Instr(TOp.MOV, dst=dst, src=value))
            false_jumps.append(self.emit(Instr(TOp.JUMPF, src=dst)))
        jend = self.emit(Instr(TOp.JUMP))
        here = len(self.instrs)
        for jf in false_jumps:
            self.instrs[jf].target = here
        self.emit(Instr(TOp.PUSHNIL, dst=dst))
        self.instrs[jend].target = len(self.instrs)
        return dst

    def _or(self, args: tuple) -> int:
        dst = self.reg()
        if not args:
            self.emit(Instr(TOp.PUSHNIL, dst=dst))
            return dst
        true_jumps = []
        for i in range(len(args)):
            value = self.expr(args, i)
            self.emit(Instr(TOp.MOV, dst=dst, src=value))
            true_jumps.append(self.emit(Instr(TOp.JUMPT, src=dst)))
        self.emit(Instr(TOp.PUSHNIL, dst=dst))
        here = len(self.instrs)
        for jt in true_jumps:
            self.instrs[jt].target = here
        return dst
