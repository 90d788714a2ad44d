"""Differential pin: the fused builtin call against the per-node evaluator.

The evaluator calls a values-level builtin in the frame of its list: it
evaluates symbol and self-evaluating arguments there, charging their
entry work as one tally, and ``Environment.lookup`` walks the scopes
inline with its probe, step and compare charges tallied. The reference
below is the per-node tree-walk those replaced: every builtin goes
through ``BuiltinFunction.call``, whose node-level ``fn`` evaluates each
argument with a full ``eval``, a symbol head is evaluated by ``eval`` too,
and every lookup walks the scopes one ``Environment._find_here`` call at
a time. Both run the same seeded corpus on twin interpreters, under
literal and fast options, and must agree exactly on op counts (every
phase row), outputs, errors (type and message) and arena use.
"""

from __future__ import annotations

import random

import pytest

from repro.context import CountingContext
from repro.core.evaluator import _ENTRY_OPS, _LIST_ENTRY_OPS, Evaluator
from repro.core.interpreter import Interpreter, InterpreterOptions
from repro.core.nodes import NodeType
from repro.errors import RecursionDepthError
from repro.ops import Op

# -- the per-node reference -------------------------------------------------------


def _lookup_per_scope(env, symbol, ctx, sym_id):
    """The scope walk, one charged ``_find_here`` call per scope."""
    while env is not None:
        entry = env._find_here(symbol, ctx, sym_id)
        if entry is not None:
            return entry.node
        env = env.parent
    return None


class ReferenceEvaluator(Evaluator):
    """Every node entered through :meth:`eval`, every builtin through
    ``BuiltinFunction.call``."""

    def eval(self, node, env, ctx, depth=0):
        if depth > ctx.max_depth:
            raise RecursionDepthError(
                f"evaluation exceeded device stack depth ({ctx.max_depth})"
            )
        ntype = node.ntype
        if ntype == NodeType.N_LIST or ntype == NodeType.N_EXPRESSION:
            ctx.charge_many(_LIST_ENTRY_OPS)
            return self._eval_list(node, env, ctx, depth)
        ctx.charge_many(_ENTRY_OPS)
        if ntype == NodeType.N_SYMBOL:
            found = _lookup_per_scope(env, node.sval, ctx, node.sym_id)
            if found is None:
                return node
            return found
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


# -- corpus -------------------------------------------------------------------------

_PRELUDE = (
    "(setq v 7)",
    "(setq w 2.5)",
    "(setq s \"str\")",
    "(setq xs (list 1 2 3 4))",
    "(defun sq (x) (* x x))",
    "(defun add3 (a b c) (+ a b (* c 1)))",
    "(defun down (n) (if (< n 1) 0 (+ 1 (down (- n 1)))))",
    "(defmacro twice (e) (list 'progn e e))",
)
_ATOMS = ("0", "1", "-3", "42", "2.5", "v", "w", "xs", "nil", "T", "\"a\"", "s",
          "unbound-x", "'q")
_VALUE_CALLS = (("+", 0, 4), ("-", 1, 3), ("*", 0, 3), ("<", 1, 3), ("=", 1, 3),
                ("list", 0, 4), ("cons", 2, 2), ("car", 1, 1), ("length", 1, 1),
                ("max", 1, 3), ("numberp", 1, 1), ("string-append", 0, 3),
                ("sq", 1, 1), ("add3", 3, 3))
_SPECIAL = ("(if {} {} {})", "(let ((v {})) (+ v {}))", "(progn {} {})",
            "(twice {})", "(funcall (lambda (y) (list y {})) {})",
            "(setq tmp {})", "(quote ({} {}))", "(mapcar sq (list {} {}))")


def _expr(rng: random.Random, depth: int) -> str:
    roll = rng.random()
    if depth > 3 or roll < 0.35:
        return rng.choice(_ATOMS)
    if roll < 0.85:
        name, lo, hi = rng.choice(_VALUE_CALLS)
        # Arity is drawn one either side of the contract now and then.
        n = rng.randint(max(0, lo - 1), hi + 1) if rng.random() < 0.1 else rng.randint(lo, hi)
        args = " ".join(_expr(rng, depth + 1) for _ in range(n))
        return f"({name} {args})" if args else f"({name})"
    if roll < 0.95:
        template = rng.choice(_SPECIAL)
        return template.format(*(_expr(rng, depth + 1) for _ in range(template.count("{}"))))
    return "(" + " ".join(_expr(rng, depth + 1) for _ in range(rng.randint(0, 3))) + ")"


def _corpus() -> list[str]:
    rng = random.Random(20)
    fixed = [
        "(car 1 2)",                        # ArityError, before any argument eval
        "(add3 1 2)",                       # ArityError of a form
        "(+ 1 2 \"a\" 4)",                  # TypeMismatchError mid-_fold
        "(+ v (* 2 w) s xs)",               # ... after list and symbol arguments
        "(+ unbound-x 1)",                  # an unbound symbol stays a symbol
        "(unbound-f 1 v (sq 3))",           # an unbound head: not a call
        "(list unbound-x 'q v)",
        "(let ((a 1) (b 2)) (let ((c 3)) (+ a b c v)))",  # inner-scope lookups
        "(down 5)",
        "(down 400)",                       # RecursionDepthError (depth 512 contexts)
        "((lambda (k) (* k k)) 6)",         # a list head
        "(string-append s (symbol-name 'abc) \"!\")",
        "()",
    ]
    # The fixed forms run three times: the third run of a text is traced
    # under the JIT, whose user-form calls re-enter the evaluator.
    return [*_PRELUDE, *fixed, *(_expr(rng, 0) for _ in range(150)), *fixed, *fixed]


CORPUS = _corpus()


# -- the differential -----------------------------------------------------------------


class _Side:
    def __init__(self, reference: bool, options, max_depth: int):
        self.interp = Interpreter(options=options)
        if reference:
            self.interp.evaluator = ReferenceEvaluator(self.interp)
        self.ctx = CountingContext(max_depth=max_depth)

    def run(self, text):
        try:
            outcome = self.interp.process(text, self.ctx)
        except Exception as exc:  # compared below, type and all
            outcome = (type(exc).__name__, str(exc))
        self.interp.collect_garbage()
        return (
            outcome,
            [row[:] for row in self.ctx.counts.rows],
            self.interp.arena.used,
        )


def _run_differential(options, texts, max_depth=512):
    ref = _Side(True, options, max_depth)
    run = _Side(False, options, max_depth)
    outcomes = []
    for text in texts:
        expected = ref.run(text)
        assert run.run(text) == expected, f"diverged on {text!r}"
        outcomes.append(expected[0])
    return outcomes


_OPTIONS = {
    "literal": InterpreterOptions(),
    "fast": InterpreterOptions.fast(),
    "fast-jit": InterpreterOptions.fast(jit=True),
}


@pytest.mark.parametrize("options", list(_OPTIONS.values()), ids=list(_OPTIONS))
def test_fused_calls_match_per_node_evaluator(options):
    _run_differential(options, CORPUS)


@pytest.mark.parametrize("options", list(_OPTIONS.values()), ids=list(_OPTIONS))
def test_recursion_limit_raises_at_the_same_point(options):
    # Nesting k deep under a context limit of 12, across the limit, in
    # every argument position: a symbol, a literal and a list argument
    # at the last depth that evaluates, and the first one that raises.
    texts = []
    for k in range(8, 16):
        for leaf in ("v", "3", "(sq 2)", ""):
            texts.append("(+ 1 " * k + leaf + ")" * k)
            texts.append("(list " * k + leaf + ")" * k)
        texts.append(f"(down {k})")
    outcomes = _run_differential(options, [*_PRELUDE, *texts], max_depth=12)
    assert any(isinstance(o, str) for o in outcomes)
    assert ("RecursionDepthError", "evaluation exceeded device stack depth (12)") in outcomes


def test_corpus_covers_every_outcome():
    # Guard the corpus itself: it must reach each error path and succeed.
    outcomes = _run_differential(InterpreterOptions(), CORPUS)
    kinds = {o[0] if isinstance(o, tuple) else "ok" for o in outcomes}
    assert {"ok", "ArityError", "TypeMismatchError", "RecursionDepthError"} <= kinds
