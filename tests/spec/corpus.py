"""The one corpus the spec runs: every text that pins a host-side fold.

The reader's texts (every parse error, deep nesting, NUL bytes, long
atoms), the evaluator's (every builtin kind, arity and type errors,
unbound names, the depth limit), the JIT's literal-run programs, the
output-overflow and arena-exhaustion cases, the hot-repl set and a prefix
of every ``perfbench`` workload's request texts.
"""

from __future__ import annotations

import functools
import random

from perfbench import workloads

# -- the reader -------------------------------------------------------------------

_ATOMS = (
    "0", "7", "42", "-17", "+5", "2.5", "-0.25", ".5", "5.", "2E3", "1e-3",
    "6.02E+23", "1e", "1.2.3", "+", "-", ".", "E", "12abc", "nil", "T", "t",
    "x", "foo-bar", "car", "setq", "|||", "a\0b", "\"\"", "\"a b (c) ; d\"",
    "-0", "007", "9" * 30, "E5", "1.", "NIL", "\u0661\u0662\u0663", "\u00b2", "a\"b",
)
_SPACE = (" ", "  ", "\t", "\n", "\r\n", "\v", "\f", " ; note\n", ";\n", "\n;;x\n ")


def _form(rng: random.Random, depth: int) -> str:
    roll = rng.random()
    if depth > 4 or roll < 0.45:
        return rng.choice(_ATOMS)
    if roll < 0.52:
        return "'" + rng.choice(("", " ")) + _form(rng, depth + 1)
    items = [_form(rng, depth + 1) for _ in range(rng.randint(0, 5))]
    inner = "".join(rng.choice(_SPACE) + item for item in items)
    return "(" + inner + rng.choice(("", " ", "\n")) + ")"


def _reader_corpus() -> list[str]:
    rng = random.Random(16)
    texts = [
        "", "   ", "; only a comment", "; comment then form\n(+ 1 2)",
        "(a ; inner comment\n b)", '"unterminated', '(print "unterminated',
        ")", ") (a)", "(a))", "'", "(a ')", "' ", "(1 2",
        "(" * 513 + ")" * 513, "(" * 514 + ")" * 514, "(" * 513,
        "\0", "(a\0 \0b)", "x" * 300, "(" + "y" * 300 + " " + "7" * 300 + ")",
        '"' + "s" * 300 + '"', "(a) (b) (c)", "(list 1 2.5 \"s\" nil T 'q)", "'x",
        "+ - +5 -0 007 " + "1" * 30,
        "E E5 .5 1. nil T t NIL \u0661\u0662\u0663 \u00b2 a\"b",
        "(" + "1234567890" * 70 + ")",
    ]
    for _ in range(60):
        text = " ".join(_form(rng, 0) for _ in range(rng.randint(1, 3)))
        texts.append(rng.choice(("", " ", "\n")) + text + rng.choice(("", " ", ";c")))
    return texts


READER = _reader_corpus()

# -- the evaluator ----------------------------------------------------------------

EVAL_PRELUDE = (
    "(setq v 7)",
    "(setq w 2.5)",
    "(setq s \"str\")",
    "(setq xs (list 1 2 3 4))",
    "(defun sq (x) (* x x))",
    "(defun add3 (a b c) (+ a b (* c 1)))",
    "(defun down (n) (if (< n 1) 0 (+ 1 (down (- n 1)))))",
    "(defmacro twice (e) (list 'progn e e))",
)
_EVAL_ATOMS = ("0", "1", "-3", "42", "2.5", "v", "w", "xs", "nil", "T", "\"a\"", "s",
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
        return rng.choice(_EVAL_ATOMS)
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


def _eval_corpus() -> list[str]:
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
        "(down 400)",                       # RecursionDepthError at depth 512
        "((lambda (k) (* k k)) 6)",         # a list head
        "(string-append s (symbol-name 'abc) \"!\")",
        "()",
    ]
    # The fixed forms run three times: the third run of a text is traced
    # under the JIT, whose user-form calls re-enter the evaluator.
    return [*EVAL_PRELUDE, *fixed, *(_expr(rng, 0) for _ in range(150)), *fixed, *fixed]


EVAL = _eval_corpus()


def nesting_sweep() -> list[str]:
    """Calls nested k deep for k across a depth limit of 12, with a
    symbol, a literal, a list and no argument at the innermost level, in
    the last depth that evaluates and the first one that raises."""
    texts = list(EVAL_PRELUDE)
    for k in range(8, 16):
        for leaf in ("v", "3", "(sq 2)", ""):
            texts.append("(+ 1 " * k + leaf + ")" * k)
            texts.append("(list " * k + leaf + ")" * k)
        texts.append(f"(down {k})")
    return texts


# -- the JIT's literal runs and the printer ----------------------------------------

EDGE_COMMANDS = [
    "(defun sq (x) (* x x))",
    "(setq x (+ 1 2))",
    "(list x x)",
    "(list -5 0 17 -300 -1)",
    "(quote ((1 2) (3 -4) ()))",
    "(list (list 1 2) (list) (list -3))",
    "(list 1 2.5 -3 4.0)",
    "(list 1 (quote (2 3)) 4)",
    "(+ 1 2 3.5 -4)",
    "(- 10 2 0.5)",
    "(* 2 3 4 1.5)",
    "(+ 1 2 (quote a) 4)",
    "(and 1 (or nil 2) 3)",
    "(if (< 1 2) (list 5 6 7) 8)",
    "(progn (setq y (list 4 5)) (list y y))",
    "(sq 7)",
    "(car (quote ()))",
]

#: An int list that overflows the output buffer part way, at each capacity.
OVERFLOW_COMMANDS = ["(list 1 -22 333 -4444 55555 -666666)"]
OVERFLOW_CAPACITIES = range(0, 42, 3)

#: Run in an arena one to eleven nodes larger than a fresh interpreter
#: uses, so the parse runs out part way.
EXHAUSTION_TEXTS = ["(a (b c) (d e f) (g h i j k))", "(1 2 3)"]


def hot_repl_commands(seed: int = 1) -> list[str]:
    """The hot-repl command set as perfbench draws it: three defuns, ten
    small calls and the 100/250/400-literal wide forms."""
    rng = random.Random(seed)
    commands = [
        "(defun sq (x) (* x x))",
        "(defun poly (x) (+ (* x x) (* 3 x) 7))",
        "(defun add3 (a b c) (+ a (+ b c)))",
    ]
    commands += [f"(sq {rng.randint(2, 60)})" for _ in range(4)]
    commands += [f"(poly {rng.randint(2, 60)})" for _ in range(3)]
    for _ in range(3):
        a, b, c = (rng.randint(1, 500) for _ in range(3))
        commands.append(f"(add3 {a} {b} {c})")
    for n in (100, 250):
        commands.append("(list " + " ".join(str(rng.randint(1, 999)) for _ in range(n)) + ")")
    commands.append("(+ " + " ".join(str(rng.randint(1, 999)) for _ in range(400)) + ")")
    return commands


# -- the benchmark's request texts -------------------------------------------------


@functools.lru_cache(maxsize=None)
def perfbench_texts() -> dict:
    """The first 150 request texts of each ``perfbench`` workload at seed
    1, by workload name (the workload generator is only read)."""
    return {
        name: tuple(request.text for request in workloads.generate(name, 1).requests[:150])
        for name in workloads.WORKLOADS
    }
