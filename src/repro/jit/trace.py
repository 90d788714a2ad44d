"""The trace IR: flat register-style instruction lists for hot forms.

A :class:`Trace` is the unit the JIT tier compiles and executes — one
cache-hot *top-level form*, flattened into a linear instruction list
over an unbounded virtual register file. There are no loops or
recursion in the IR (forms that need them stay on the tree-walker), so
the executor is a single non-recursive dispatch loop: the paper's
recursive ``eval`` — a warp-divergence machine — becomes straight-line
work, which is exactly the C-lisp/IR argument from PAPERS.md.

Every executed instruction charges one ``Op.TRACE_STEP``; guard and
apply sites additionally charge ``Op.GUARD_CHECK`` (the executor tallies
these and charges them as one run per execution). All *node* work a
trace still performs (materializing literals, environment lookups,
builtin bodies) goes through the same charged arena/environment
primitives the tree-walker uses — a trace is cheaper because it skips
the per-node ``eval`` dispatch, not because it stops paying for memory.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Optional

from ..core.nodes import TemplateNode

__all__ = ["TOp", "Instr", "HeadSlot", "Trace", "JitStats",
           "HEAD_SPECIAL", "HEAD_CALL"]


class TOp(IntEnum):
    """Trace instruction opcodes."""

    CONST = 0      #: materialize a literal/quoted template into dst
    LOAD = 1       #: dst = env lookup of a symbol (late-binding miss = the symbol)
    MOV = 2        #: dst = src (register move)
    PUSHNIL = 3    #: dst = the nil singleton (structural default)
    PUSHTRUE = 4   #: dst = the true singleton (structural default)
    GUARD = 5      #: re-verify a head slot when the env has been dirtied
    APPLY = 6      #: dst = call head slot's target on argument registers
    SETQ = 7       #: bind nearest; dst = the stored value
    JUMP = 8       #: unconditional branch to target
    JUMPF = 9      #: branch to target when src is falsy
    JUMPT = 10     #: branch to target when src is truthy
    RET = 11       #: return src


#: Head-slot kinds. A *special* head must still be the registry builtin
#: the compiler specialized on (quote/if/progn/setq/and/or compiled
#: structurally); a *call* head must be a values-level builtin or a
#: user-defined form (N_FORM) — anything else bails to the tree-walker.
HEAD_SPECIAL = 0
HEAD_CALL = 1


class HeadSlot:
    """One guarded callee the trace resolved at compile time *by name*.

    The actual binding is re-resolved per execution (preflight), so a
    trace never pins a node from an earlier request's heap — it only
    pins an *assumption* about what kind of thing the name is bound to.
    """

    __slots__ = ("name", "sym_id", "kind", "expect")

    def __init__(self, name: str, sym_id: int, kind: int,
                 expect: Optional[str] = None) -> None:
        self.name = name
        self.sym_id = sym_id
        self.kind = kind
        self.expect = expect  #: builtin name a HEAD_SPECIAL must match

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        tag = "special" if self.kind == HEAD_SPECIAL else "call"
        return f"<HeadSlot {self.name!r} {tag}>"


class Instr:
    """One flat trace instruction (a plain struct; fields per opcode)."""

    __slots__ = ("op", "dst", "src", "name", "sym_id", "template", "head",
                 "args", "target", "sibs", "index")

    def __init__(
        self,
        op: TOp,
        dst: int = -1,
        src: int = -1,
        name: str = "",
        sym_id: int = -1,
        template: Optional[TemplateNode] = None,
        head: int = -1,
        args: Optional[tuple] = None,
        target: int = -1,
        sibs: tuple = (),
        index: int = 0,
    ) -> None:
        self.op = op
        self.dst = dst
        self.src = src
        self.name = name
        self.sym_id = sym_id
        self.template = template
        self.head = head
        self.args = args
        self.target = target
        #: CONST/LOAD only: the argument tuple of the node's parent form,
        #: shared by every instruction of that form, and the node's index
        #: in it (``sibs[index] is template``). The tree-walker evaluates
        #: a literal to the tree node itself, which still carries its
        #: ``nxt`` chain through ``sibs[index + 1:]`` — retaining the
        #: value retains them — so the executor must materialize and
        #: link the same chain. Sharing the tuple keeps an n-literal
        #: form's trace O(n) in size.
        self.sibs = sibs
        self.index = index

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Instr {self.op.name} dst={self.dst}>"


class Trace:
    """One compiled top-level form: instructions + guarded head slots."""

    __slots__ = ("instrs", "heads", "n_regs")

    def __init__(self, instrs: list[Instr], heads: list[HeadSlot],
                 n_regs: int) -> None:
        self.instrs = instrs
        self.heads = heads
        self.n_regs = n_regs

    def __len__(self) -> int:
        return len(self.instrs)


class JitStats:
    """Lifetime JIT counters for one interpreter."""

    __slots__ = ("traces_compiled", "trace_hits", "guard_bails")

    def __init__(self) -> None:
        self.traces_compiled = 0
        self.trace_hits = 0
        self.guard_bails = 0
