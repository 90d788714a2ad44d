"""C-style string comparison with per-character charging.

Semantics follow the C library function it stands in for; costs follow
what a device thread would actually execute — one character comparison is
one ``SYM_CHAR_CMP``.
"""

from __future__ import annotations

from ..context import ExecContext
from ..ops import Op

__all__ = ["str_cmp"]


def str_cmp(a: str, b: str, ctx: ExecContext) -> int:
    """strcmp: compares until the first difference (inclusive).

    Returns <0, 0, >0 like C. Charges one ``SYM_CHAR_CMP`` per compared
    character pair, including the terminating/differing position.
    """
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    # i compared-equal pairs plus the differing (or terminator) position.
    ctx.charge(Op.SYM_CHAR_CMP, i + 1)
    if i < n:
        return -1 if a[i] < b[i] else 1
    if len(a) == len(b):
        return 0
    return -1 if len(a) < len(b) else 1
