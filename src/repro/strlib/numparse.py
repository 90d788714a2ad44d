"""Atom classification and number parsing (paper §III-B-b).

The paper's rules for a substring between two markers:

* starts with a quotation mark            -> N_STRING (quotes stripped)
* equals ``nil``                          -> N_NIL
* equals ``T``                            -> N_TRUE
* starts with a digit or one of ``+-.E``  -> number; N_FLOAT if it
  contains a dot, else N_INT
* otherwise                               -> N_SYMBOL

A literal reading would turn ``+`` into a number, so (as any C
implementation calling ``strtol``/``strtod`` would) the number path falls
back to *symbol* when the characters do not actually form a number. An
exponent without a dot (``2E3``) parses as a float, matching ``strtod``.
"""

from __future__ import annotations

from enum import Enum

from ..context import ExecContext
from ..ops import Op

__all__ = ["AtomClass", "parse_number", "classify_atom"]

_NUM_START = set("0123456789+-.E")
_DIGITS = set("0123456789")
#: Per mantissa digit: classify, multiply-accumulate (IMUL + ALU).
_DIGIT_OPS = (Op.PARSE_STEP, Op.IMUL, Op.ALU)


class AtomClass(Enum):
    STRING = "string"
    NIL = "nil"
    TRUE = "true"
    INT = "int"
    FLOAT = "float"
    SYMBOL = "symbol"


def parse_number(token: str, ctx: ExecContext) -> int | float | None:
    """Parse ``token`` as a CuLi number, or None if it is not one.

    Grammar: ``[+-]? digits [. digits?]? ([eE] [+-]? digits)?`` with at
    least one digit in the mantissa. Each consumed character charges one
    ``PARSE_STEP`` (classification) — the character loads themselves were
    already charged by the tokenizer. Digit accumulation charges ``IMUL``
    + ``ALU`` per digit, exactly what a device-side atoi/atof loop does.
    The loop tallies these counts and charges them once per token, on
    every way out.
    """
    n = len(token)
    i = 0
    steps = 0  # PARSE_STEP for the sign and the dot; digits add theirs below
    if i < n and token[i] in "+-":
        i += 1
        steps += 1
    mant_digits = 0
    saw_dot = False
    int_value = 0
    while i < n:
        ch = token[i]
        if ch in _DIGITS:
            mant_digits += 1
            if not saw_dot:
                int_value = int_value * 10 + (ord(ch) - 48)
            i += 1
        elif ch == "." and not saw_dot:
            saw_dot = True
            steps += 1
            i += 1
        else:
            break
    if mant_digits == 0:
        if steps:
            ctx.charge(Op.PARSE_STEP, steps)
        return None
    saw_exp = False
    exp_digits = 0  # an exponent digit charges PARSE_STEP + IMUL, no ALU
    if i < n and token[i] in "eE":
        j = i + 1
        if j < n and token[j] in "+-":
            j += 1
        while j < n and token[j] in _DIGITS:
            exp_digits += 1
            j += 1
        if exp_digits:
            saw_exp = True
            i = j
    if steps or exp_digits:
        digits = mant_digits + exp_digits
        ctx.charge(Op.PARSE_STEP, steps + digits)
        ctx.charge(Op.IMUL, digits)
        ctx.charge(Op.ALU, mant_digits)
    else:  # a plain unsigned integer: the same count of all three
        ctx.charge_many(_DIGIT_OPS, mant_digits)
    if i != n:
        return None  # trailing junk: not a number after all -> symbol
    if saw_dot or saw_exp:
        # Value from a correctly-rounded conversion (what strtod
        # guarantees); the digit loop above carried the cycle charges.
        ctx.charge(Op.FMUL, max(1, 3 * exp_digits))
        return float(token)
    return -int_value if token[0] == "-" else int_value


def classify_atom(token: str, ctx: ExecContext) -> tuple[AtomClass, object]:
    """Classify one marker-delimited substring into (class, value)."""
    if not token:
        return AtomClass.SYMBOL, token
    if token[0] == '"':
        ctx.charge(Op.PARSE_STEP, 2)
        body = token[1:-1] if len(token) >= 2 and token[-1] == '"' else token[1:]
        return AtomClass.STRING, body
    ctx.charge(Op.PARSE_STEP)  # dispatch on the first character
    if token == "nil":
        ctx.charge(Op.SYM_CHAR_CMP, 3)
        return AtomClass.NIL, None
    if token in ("T", "t"):
        ctx.charge(Op.SYM_CHAR_CMP, 1)
        return AtomClass.TRUE, None
    if token[0] in _NUM_START:  # the paper's first-character test for the number path
        value = parse_number(token, ctx)
        if value is not None:
            if isinstance(value, float):
                return AtomClass.FLOAT, value
            return AtomClass.INT, value
    return AtomClass.SYMBOL, token
