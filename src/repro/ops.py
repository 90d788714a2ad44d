"""Abstract machine operations and cost tables.

Every primitive action the interpreter performs — reading a node field,
allocating a node, comparing one character of a symbol, executing one step
of the parser state machine — is recorded as an :class:`Op`. A device
assigns a cycle cost to each op via a :class:`CostTable`; total cycles are
the dot product of op counts and costs.

This is the heart of the reproduction's timing model: the *same*
interpreter runs on every simulated device, and only the per-architecture
cost vector (plus the device's parallel structure) differs — mirroring the
paper, where one C code base is compiled for both CUDA and pthreads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

__all__ = ["Op", "Phase", "N_OPS", "N_PHASES", "CostTable", "OpCounts", "RowCycles"]


class Op(IntEnum):
    """Primitive abstract-machine operations charged by the interpreter."""

    # Scalar compute
    ALU = 0            #: integer add/sub/compare/logic
    IMUL = 1           #: integer multiply
    IDIV = 2           #: integer divide / modulo (slow on Fermi!)
    FADD = 3           #: float add/sub/compare
    FMUL = 4           #: float multiply
    FDIV = 5           #: float divide / sqrt
    BRANCH = 6         #: conditional branch (includes divergence overhead)
    CALL = 7           #: function call + return (device-stack traffic)

    # Node / heap traffic (the arena lives in global memory)
    NODE_READ = 8      #: read one node field
    NODE_WRITE = 9     #: write one node field
    NODE_ALLOC = 10    #: bump-allocate one node (cursor + init)

    # Environment handling
    ENV_STEP = 11      #: follow one environment-entry link
    SYM_CHAR_CMP = 12  #: compare one character during symbol lookup

    # String traffic (parser / printer, paper's custom string library)
    CHAR_LOAD = 13     #: load one character of the input string
    CHAR_STORE = 14    #: store one character of the output string
    PARSE_STEP = 15    #: parser state-machine work per character
    PRINT_STEP = 16    #: printer/formatting work per character

    # Synchronization (paper §III-C/D)
    ATOMIC_RMW = 17    #: atomic read-modify-write on global memory
    ATOMIC_LOAD = 18   #: volatile load (spin-wait poll)
    BARRIER = 19       #: block-wide barrier (__syncthreads analogue)
    FENCE = 20         #: __threadfence_block analogue
    POSTBOX_READ = 21  #: read one postbox field
    POSTBOX_WRITE = 22 #: write one postbox field

    # Fast-path ablation ops (interned symbols / indexed root scopes).
    # Charged only when the corresponding InterpreterOptions flag is on;
    # the literal paper mode never emits them.
    SYM_CMP = 23       #: compare two interned symbol ids (one register cmp)
    HASH_PROBE = 24    #: probe a hashed binding index (hash + one load)

    # JIT trace-tier ops (the bytecode ablation over cache-hot forms).
    # Charged only when InterpreterOptions.jit is on; the literal paper
    # mode and the plain fast path never emit them.
    TRACE_STEP = 25    #: fetch/decode/dispatch one trace instruction
    GUARD_CHECK = 26   #: verify one trace guard (load + compare + branch)


N_OPS = len(Op)

#: An all-zero op-count row, copied from and never written.
_ZERO_ROW = (0.0,) * N_OPS


class Phase(IntEnum):
    """Execution-flow phases of one REPL command (paper Fig. 5).

    The paper reports kernel time split into parse, eval, and print
    (Figs. 16/17/18). ``OTHER`` captures setup/teardown work that the
    paper folds into base latency.
    """

    PARSE = 0
    EVAL = 1
    PRINT = 2
    OTHER = 3


N_PHASES = len(Phase)


@dataclass(frozen=True)
class CostTable:
    """Cycle cost per :class:`Op` for one architecture.

    ``vector`` is indexable by ``Op`` values. Construct via keyword
    arguments named after ops (lower-case), e.g.::

        CostTable.build(alu=4, node_read=120, ...)

    Any op not named defaults to the value of ``default``.
    """

    vector: np.ndarray
    label: str = "unnamed"

    def __post_init__(self) -> None:
        if self.vector.shape != (N_OPS,):
            raise ValueError(f"cost vector must have shape ({N_OPS},)")
        if (self.vector < 0).any():
            raise ValueError("cycle costs must be non-negative")

    @classmethod
    def build(cls, label: str = "unnamed", default: float = 1.0, **costs: float) -> "CostTable":
        vec = np.full(N_OPS, float(default), dtype=np.float64)
        for name, value in costs.items():
            try:
                op = Op[name.upper()]
            except KeyError:
                raise ValueError(f"unknown op name: {name!r}") from None
            vec[op] = float(value)
        vec.setflags(write=False)
        return cls(vector=vec, label=label)

    def cost_of(self, op: Op) -> float:
        return float(self.vector[op])

    def cycles(self, counts: "OpCounts") -> float:
        """Total cycles for an op-count vector (all phases summed).

        Equals ``float(vector @ counts.total())`` bit for bit. A context
        that charged one phase only has one live row, and adding all-zero
        rows to it is exact, so that row alone is converted
        (:meth:`row_cost`); with none the answer is 0.0, and with more
        than one the rows are summed first.
        """
        live = None
        for row in counts.rows:
            if any(row):
                if live is not None:
                    return float(self.vector @ counts.total())
                live = row
        if live is None:
            return 0.0
        return self.row_cost(live)

    def row_cost(self, row: list[float] | tuple[float, ...]) -> float:
        """Cycles of one op-count row, ``float(vector @ np.asarray(row))``.

        ``ndarray.dot`` runs the same 1-D dot kernel as ``@`` with less
        dispatch.
        """
        return float(self.vector.dot(np.asarray(row, dtype=np.float64)))

    def row_cycles(self, rows: list[list[float]]) -> list[float]:
        """Cycles of each op-count row: one numpy conversion, one dot per row.

        Each value equals ``float(vector @ np.asarray(row))`` bit for bit
        (``ndarray.dot`` is the same 1-D dot, as in :meth:`row_cost`). A
        matrix-vector product would not: BLAS gemv sums in another order
        and can differ in the last bit. A CPU batch converts all of its
        requests' rows in one call.
        """
        dot = self.vector.dot
        return [float(dot(row)) for row in np.asarray(rows, dtype=np.float64)]

    def scaled(self, factor: float, label: str | None = None) -> "CostTable":
        vec = self.vector * float(factor)
        vec.setflags(write=False)
        return CostTable(vector=vec, label=label or f"{self.label}*{factor:g}")


#: Rows a :class:`RowCycles` remembers before it starts over.
ROW_MEMO_SIZE = 256


class RowCycles(dict):
    """:meth:`CostTable.row_cost` for one reader of op-count rows that
    meets the same rows again and again (a master phase, the service
    lanes, the collector), as a memo: ``row_cycles[tuple(row)]`` is the
    row's cycles. A row met before is answered by the dict lookup alone;
    a new row is converted once (``__missing__``). A conversion is
    deterministic, so a remembered answer is the float the conversion
    would return. After :data:`ROW_MEMO_SIZE` distinct rows it forgets
    them all, which bounds its memory.
    """

    __slots__ = ("costs",)

    def __init__(self, costs: CostTable) -> None:
        super().__init__()
        self.costs = costs

    def __missing__(self, row: tuple) -> float:
        if len(self) >= ROW_MEMO_SIZE:
            self.clear()
        cycles = self[row] = self.costs.row_cost(row)
        return cycles


@dataclass
class OpCounts:
    """Mutable op-count accumulator, one row per :class:`Phase`.

    Plain Python lists are used for the hot increment path; they are only
    converted to numpy when cycles are computed.
    """

    rows: list[list[float]] = field(
        default_factory=lambda: [[0.0] * N_OPS for _ in range(N_PHASES)]
    )

    def add(self, phase: Phase, op: Op, n: float = 1.0) -> None:
        self.rows[phase][op] += n

    def merge(self, other: "OpCounts") -> None:
        merged = np.asarray(self.rows, dtype=np.float64)
        merged += np.asarray(other.rows, dtype=np.float64)
        # Write back in place: live aliases into rows (CountingContext
        # caches its current phase row) must keep observing the counts.
        for row, summed in zip(self.rows, merged.tolist()):
            row[:] = summed

    def matrix(self) -> np.ndarray:
        return np.asarray(self.rows, dtype=np.float64)

    def total(self) -> np.ndarray:
        return self.matrix().sum(axis=0)

    def total_count(self) -> float:
        return float(self.matrix().sum())

    def count_of(self, op: Op, phase: Phase | None = None) -> float:
        if phase is not None:
            return float(self.rows[phase][op])
        return float(sum(row[op] for row in self.rows))

    def reset(self) -> None:
        """Zero every row in place: live aliases into ``rows`` (a
        context's current phase row) keep observing the counts."""
        for row in self.rows:
            row[:] = _ZERO_ROW

    def copy(self) -> "OpCounts":
        return OpCounts(rows=[row[:] for row in self.rows])
