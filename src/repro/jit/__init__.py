"""The bytecode trace tier (JIT) for parse-cache-hot forms.

The third rung of the tier ladder (README: literal -> fast path ->
JIT): top-level forms whose source text stays hot in the serving parse
cache are compiled into flat register traces and executed by a
non-recursive dispatch loop, with guards that bail back to the
tree-walking evaluator whenever the environment no longer matches the
compiler's assumptions. Opt-in via ``InterpreterOptions.jit``; the
default for ``CuLiServer``.
"""

from .compiler import SPECIALS, compile_form
from .executor import TraceBail, TraceInvalidatedError, execute_trace
from .trace import HeadSlot, Instr, JitStats, TOp, Trace

__all__ = [
    "SPECIALS",
    "compile_form",
    "execute_trace",
    "TraceBail",
    "TraceInvalidatedError",
    "Trace",
    "TOp",
    "Instr",
    "HeadSlot",
    "JitStats",
]
