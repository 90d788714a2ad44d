"""CuLi reproduction: a complete Lisp interpreter running on a simulated
SIMT GPU, after Süß, Döring, Brinkmann and Nagel, "And Now for Something
Completely Different: Running Lisp on GPUs" (IEEE CLUSTER 2018).

Quickstart::

    from repro import CuLiSession

    with CuLiSession("gtx1080") as sess:
        sess.eval("(defun sq (x) (* x x))")
        out, times = sess.eval_timed("(||| 4 sq (1 2 3 4))")
        print(out)                       # (1 4 9 16)
        print(times.parse_ms, times.eval_ms, times.print_ms)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure.
"""

import sys

from .context import CountingContext, ExecContext, NullContext
from .core import Interpreter, InterpreterOptions
from .errors import (
    ArenaExhaustedError,
    CuLiError,
    DeviceError,
    EvalError,
    LispError,
    LivelockError,
    ParseError,
    UnknownDeviceError,
)
from .ops import CostTable, Op, OpCounts, Phase
from .runtime import (
    CuLiSession,
    Fidelity,
    HeapSnapshot,
    available_devices,
    device_for,
    restore_env,
    snapshot_env,
)
from .runtime.batch import BatchItem, BatchRequest, BatchResult
from .serve import (
    CuLiServer,
    DevicePool,
    MigrationRecord,
    Rebalancer,
    Scheduler,
    ServerStats,
    TenantSession,
)
from .runtime.workloads import (
    FIB_DEFUN,
    THREAD_SWEEP,
    Workload,
    fibonacci_workload,
    parallel_sum_workload,
)
from .timing import CommandStats, PhaseBreakdown

__version__ = "1.0.0"

# Deep Lisp recursion nests several Python frames per level. Raised once,
# on import, so building an interpreter never changes process state.
if sys.getrecursionlimit() < 100_000:
    sys.setrecursionlimit(100_000)

__all__ = [
    "__version__",
    # sessions / devices
    "CuLiSession",
    "available_devices",
    "device_for",
    "Fidelity",
    # multi-tenant serving
    "CuLiServer",
    "TenantSession",
    "DevicePool",
    "Scheduler",
    "Rebalancer",
    "ServerStats",
    "MigrationRecord",
    "BatchRequest",
    "BatchItem",
    "BatchResult",
    # heap snapshots / migration
    "HeapSnapshot",
    "snapshot_env",
    "restore_env",
    # interpreter
    "Interpreter",
    "InterpreterOptions",
    # contexts / ops
    "ExecContext",
    "NullContext",
    "CountingContext",
    "Op",
    "Phase",
    "OpCounts",
    "CostTable",
    # timing
    "PhaseBreakdown",
    "CommandStats",
    # workloads
    "Workload",
    "fibonacci_workload",
    "parallel_sum_workload",
    "FIB_DEFUN",
    "THREAD_SWEEP",
    # errors
    "CuLiError",
    "LispError",
    "ParseError",
    "EvalError",
    "DeviceError",
    "ArenaExhaustedError",
    "LivelockError",
    "UnknownDeviceError",
]
