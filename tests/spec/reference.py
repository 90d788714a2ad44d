"""The per-unit reference: every host-side fold of CuLi, unfolded.

Production charges its op counts in runs (DESIGN.md, "Host-side charge
folding"). Each reference below is the code a fold replaced, charging one
unit of work per call: one load per character, one charge per digit, one
``alloc`` per node built, copied or chained, one ``eval`` per node with
every builtin through ``BuiltinFunction.call`` and one ``_find_here`` per
scope, one charge per arithmetic step, one ``OutputBuffer.append`` per
printed piece (so the one-miss-penalty-per-append behaviour stays) and
one dot per cost row. :func:`installed` swaps them all in at once; the
cost tables, the cache model, the collector and the trace executor are
production code on both sides.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.core import interpreter as interpreter_module
from repro.core import reader
from repro.core.arena import NodeArena
from repro.core.builtins import arithmetic, fileio, higher_order, lists, strings
from repro.core.evaluator import _ENTRY_OPS, _LIST_ENTRY_OPS, Evaluator
from repro.core.nodes import REGION_TENURED, NodeType, promote_subgraph
from repro.core.printer import Printer
from repro.core.reader import _MAX_NESTING, _QUOTE_SUGAR, _WHITESPACE
from repro.errors import ParseError, RecursionDepthError
from repro.gpu.memory import OutputBuffer, SourceBuffer
from repro.ops import CostTable, Op
from repro.runtime.parse_cache import ParseCache
from repro.strlib import AtomClass, classify_atom, numparse

_SCAN_OPS = (Op.CHAR_LOAD, Op.PARSE_STEP)
_DIGITS = "0123456789"

# -- parse ------------------------------------------------------------------------


class CharScanParser:
    """Stands for ``Parser.parse``: its one scan run
    (``SourceBuffer.load_run``) and its inline builders' tallies.

    The per-character recursive-descent scanner: one charged,
    cache-modelled load per cursor step, and every node built through
    the arena's charged constructors after ``classify_atom``."""

    def __init__(self, interp, ctx):
        self.interp = interp
        self.ctx = ctx

    def parse(self, source, base_addr=0):
        if isinstance(source, str):
            source = SourceBuffer(source, base=base_addr)
        source.bind(self.ctx)
        self._base = source.base
        self._text = source.text
        self._n = len(source.text)
        self._pos = -1
        self._next()  # load the first character
        top = []
        while True:
            self._skip_whitespace()
            if self._pos >= self._n:
                break
            top.append(self._parse_one(depth=0))
        if not top:
            raise ParseError("empty input", position=0)
        return top

    def _next(self):
        pos = self._pos = self._pos + 1
        if pos <= self._n:
            self.ctx.charge_many(_SCAN_OPS)
            self.ctx.touch_memory(self._base + pos)
            self._ch = self._text[pos] if pos < self._n else "\0"
        else:
            self._ch = "\0"

    def _skip_whitespace(self):
        while self._pos < self._n:
            if self._ch in _WHITESPACE:
                self._next()
            elif self._ch == ";":
                while self._pos < self._n and self._ch != "\n":
                    self._next()
            else:
                return

    def _parse_one(self, depth):
        if depth > _MAX_NESTING:
            raise ParseError("nesting too deep for the device parser stack", position=self._pos)
        ch = self._ch
        if ch == "(":
            return self._parse_list(depth)
        if ch == ")":
            raise ParseError("unexpected ')'", position=self._pos)
        if ch == _QUOTE_SUGAR:
            return self._parse_quoted(depth)
        if ch == '"':
            return self._parse_string()
        return self._parse_atom()

    def _parse_list(self, depth):
        ctx = self.ctx
        open_pos = self._pos
        self._next()
        lst = self.interp.arena.alloc(NodeType.N_LIST, ctx)
        ctx.charge(Op.NODE_ALLOC)  # the paper's per-list environment
        while True:
            self._skip_whitespace()
            if self._pos >= self._n:
                raise ParseError("missing ')'", position=open_pos)
            if self._ch == ")":
                self._next()
                ctx.charge(Op.NODE_WRITE)
                return lst.seal()
            child = self._parse_one(depth + 1)
            ctx.charge(Op.NODE_WRITE, 2)
            lst.append_child(child)

    def _parse_quoted(self, depth):
        ctx = self.ctx
        arena = self.interp.arena
        self._next()
        self._skip_whitespace()
        if self._pos >= self._n:
            raise ParseError("dangling quote", position=self._pos)
        inner = self._parse_one(depth + 1)
        lst = arena.alloc(NodeType.N_LIST, ctx)
        quote_sym = arena.new_symbol("quote", ctx)
        ctx.charge(Op.NODE_WRITE, 4)
        lst.append_child(quote_sym)
        lst.append_child(inner)
        return lst.seal()

    def _parse_string(self):
        start = self._pos
        self._next()
        while self._pos < self._n and self._ch != '"':
            self._next()
        if self._pos >= self._n:
            raise ParseError("unterminated string", position=start)
        self._next()
        return self._make_atom(self._text[start : self._pos])

    def _parse_atom(self):
        start = self._pos
        while self._pos < self._n and self._ch not in _WHITESPACE and self._ch not in "()":
            self._next()
        token = self._text[start : self._pos]
        if not token:
            raise ParseError("empty atom", position=start)
        return self._make_atom(token)

    def _make_atom(self, token):
        ctx = self.ctx
        arena = self.interp.arena
        cls, value = classify_atom(token, ctx)
        if cls is AtomClass.STRING:
            return arena.new_string(str(value), ctx)
        if cls is AtomClass.NIL:
            return arena.new_nil(ctx)
        if cls is AtomClass.TRUE:
            return arena.new_true(ctx)
        if cls is AtomClass.INT:
            return arena.new_int(int(value), ctx)
        if cls is AtomClass.FLOAT:
            return arena.new_float(float(value), ctx)
        return arena.new_symbol(token, ctx)


def parse_number(token, ctx):
    """Stands for ``strlib.numparse.parse_number``'s per-token tallies:
    the digit loop, charging each character it consumes."""
    i = 1 if token[:1] in ("+", "-") else 0
    if i:
        ctx.charge(Op.PARSE_STEP)  # the sign
    digits = dots = exp_digits = value = 0
    while i < len(token) and (token[i] in _DIGITS or token[i] == "." and not dots):
        ctx.charge(Op.PARSE_STEP)
        if token[i] == ".":
            dots = 1
        else:
            ctx.charge(Op.IMUL)
            ctx.charge(Op.ALU)
            digits += 1
            value = value if dots else value * 10 + ord(token[i]) - 48
        i += 1
    if not digits:
        return None
    if token[i:i + 1] in ("e", "E"):
        j = i + 2 if token[i + 1:i + 2] in ("+", "-") else i + 1
        while j < len(token) and token[j] in _DIGITS:
            ctx.charge(Op.PARSE_STEP)  # an exponent digit: no ALU
            ctx.charge(Op.IMUL)
            exp_digits += 1
            j += 1
        if exp_digits:
            i = j
    if i != len(token):
        return None
    if dots or exp_digits:
        ctx.charge(Op.FMUL, max(1, 3 * exp_digits))
        return float(token)
    return -value if token[0] == "-" else value


# -- nodes ------------------------------------------------------------------------


def new_value(arena, ntype, value, ctx):
    """Stands for ``NodeArena._value_node``'s one ``charge_many``: an
    ``alloc``, then the one value write."""
    node = arena.alloc(ntype, ctx)
    ctx.charge(Op.NODE_WRITE)
    if ntype == NodeType.N_INT:
        node.ival = value
    elif ntype == NodeType.N_FLOAT:
        node.fval = value
    else:
        node.sval = value
        if ntype == NodeType.N_SYMBOL and arena.symtab is not None:
            node.sym_id = arena.symtab.intern(value, ctx)
    return node.seal()


def _ref_copy(cache, template, arena, ctx, memo):
    """Stands for ``ParseCache._build``'s one run per call: the recursive
    copier, one call per charge, per node."""
    if memo is not None:
        done = memo.get(template)
        if done is not None:
            return done
    node = arena.alloc(template.ntype, ctx)
    ctx.charge(Op.NODE_READ)
    ctx.charge(Op.NODE_WRITE, 2)
    node.ival = template.ival
    node.fval = template.fval
    node.sval = template.sval
    node.sym_id = template.sym_id
    cache.stats.nodes_materialized += 1
    if memo is not None:
        memo[template] = node
    for child in template.children:
        node.append_child(_ref_copy(cache, child, arena, ctx, memo))
    return node.seal()


def ref_chain(cache, sibs, index, arena, ctx, memo):
    """Stands for ``ParseCache.materialize_chain``: a literal, then its
    following siblings one copy at a time."""
    node = _ref_copy(cache, sibs[index], arena, ctx, memo)
    node.linked = True
    prev = node
    for sibling in sibs[index + 1:]:
        sib = _ref_copy(cache, sibling, arena, ctx, memo)
        sib.linked = True
        if prev.nxt is sib:
            break
        barrier_source = prev.region
        prev.nxt = sib
        if barrier_source == REGION_TENURED and sib.region > REGION_TENURED:
            promote_subgraph(sib)
        prev = sib
    return node


def ref_build_list(interp, values, ctx):
    """Stands for ``helpers.build_list``'s one run: each value linked
    (copied first if already linked) with its own charges."""
    lst = interp.arena.alloc(NodeType.N_LIST, ctx)
    for value in values:
        ctx.charge(Op.NODE_WRITE, 2)
        lst.append_child(interp.linkable(value, ctx))
    return lst.seal()


# -- eval -------------------------------------------------------------------------


def _lookup_per_scope(env, symbol, ctx, sym_id):
    """Stands for ``Environment.lookup``'s inline walk and its tallied
    probe, step and compare charges: one ``_find_here`` per scope."""
    while env is not None:
        entry = env._find_here(symbol, ctx, sym_id)
        if entry is not None:
            return entry.node
        env = env.parent
    return None


class ReferenceEvaluator(Evaluator):
    """Stands for the evaluator's fused builtin call (a values-level
    builtin called in its list's frame, atom entries tallied) and its
    inline symbol-head lookup: every node entered through :meth:`eval`,
    every builtin through ``BuiltinFunction.call``."""

    def eval(self, node, env, ctx, depth=0):
        if depth > ctx.max_depth:
            raise RecursionDepthError(f"evaluation exceeded device stack depth ({ctx.max_depth})")
        ntype = node.ntype
        if ntype == NodeType.N_LIST or ntype == NodeType.N_EXPRESSION:
            ctx.charge_many(_LIST_ENTRY_OPS)
            return self._eval_list(node, env, ctx, depth)
        ctx.charge_many(_ENTRY_OPS)
        if ntype == NodeType.N_SYMBOL:
            found = _lookup_per_scope(env, node.sval, ctx, node.sym_id)
            return node if found is None else found
        return node

    def _eval_list(self, node, env, ctx, depth):
        interp = self.interp
        head = node.first
        if head is None:
            return interp.nil
        head_value = self.eval(head, env, ctx, depth + 1)
        ctx.charge(Op.BRANCH)
        head_type = head_value.ntype
        if head_type == NodeType.N_FUNCTION:
            args = self._collect_args(head, ctx)
            fn = head_value.fn
            fn.check_arity(len(args))
            return fn.call(interp, env, ctx, args, depth + 1)
        if head_type == NodeType.N_FORM:
            args = self._collect_args(head, ctx)
            return self.apply_form(head_value, args, env, ctx, depth + 1)
        if head_type == NodeType.N_MACRO:
            args = self._collect_args(head, ctx)
            expansion = self.expand_macro(head_value, args, env, ctx, depth + 1)
            return self.eval(expansion, env, ctx, depth + 1)
        result = interp.arena.alloc(NodeType.N_LIST, ctx)
        ctx.charge(Op.NODE_WRITE, 2)
        result.append_child(self._reference(head_value, ctx))
        child = head.nxt
        ctx.charge(Op.NODE_READ)
        while child is not None:
            value = self.eval(child, env, ctx, depth + 1)
            ctx.charge(Op.NODE_WRITE, 2)
            result.append_child(self._reference(value, ctx))
            child = child.nxt
            ctx.charge(Op.NODE_READ)
        return result.seal()


def _ref_fold(values, who, total, step, int_op, float_op, ctx):
    """Stands for ``arithmetic._fold``'s one run per op: one charge per
    step."""
    for node in values:
        v = arithmetic.as_number(node, who)
        arithmetic._charge_binop(ctx, total, v, int_op, float_op)
        total = step(total, v)
    return total


# -- print ------------------------------------------------------------------------


def ref_append_run(out, pieces):
    """Stands for ``OutputBuffer.append_run``: one ``append`` per piece."""
    for piece in pieces:
        out.append(piece)


def row_cycles(table, rows):
    """Stands for ``CostTable.row_cycles``'s one numpy conversion: one
    conversion and one dot per row."""
    return [float(table.vector @ np.asarray(row, dtype=np.float64)) for row in rows]


# -- all at once ------------------------------------------------------------------


@contextlib.contextmanager
def installed():
    """Run everything inside with every per-unit reference swapped in.

    Interpreters made inside parse with :class:`CharScanParser` and
    evaluate with :class:`ReferenceEvaluator`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(interpreter_module, "Parser", CharScanParser)
        patch.setattr(reader, "Parser", CharScanParser)  # (load "file")
        patch.setattr(interpreter_module, "Evaluator", ReferenceEvaluator)
        patch.setattr(numparse, "parse_number", parse_number)
        patch.setattr(strings, "parse_number", parse_number)
        for name, ntype in (("new_int", NodeType.N_INT), ("new_float", NodeType.N_FLOAT),
                            ("new_string", NodeType.N_STRING),
                            ("new_symbol", NodeType.N_SYMBOL)):
            patch.setattr(NodeArena, name, lambda arena, value, ctx, ntype=ntype:
                          new_value(arena, ntype, value, ctx))
        patch.setattr(ParseCache, "materialize_chain", ref_chain)
        patch.setattr(ParseCache, "materialize", lambda self, templates, arena, ctx:
                      [_ref_copy(self, t, arena, ctx, None) for t in templates])
        patch.setattr(ParseCache, "materialize_one", lambda self, template, arena, ctx:
                      _ref_copy(self, template, arena, ctx, None))
        for module in (lists, higher_order, fileio):  # each imports build_list by name
            patch.setattr(module, "build_list", ref_build_list)
        patch.setattr(arithmetic, "_fold", _ref_fold)
        patch.setattr(Printer, "_print_int_run", lambda self, children, out: False)
        patch.setattr(OutputBuffer, "append_run", ref_append_run)
        patch.setattr(CostTable, "row_cycles", row_cycles)
        yield
