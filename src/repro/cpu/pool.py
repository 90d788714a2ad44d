"""The pthread-pool ||| engine for CPU devices.

The paper: "To implement dynamic multi-threading, CuLi uses the threads
provided by CUDA for the GPUs (for the CPU version we use pthreads)."

Execution model: the main thread pushes one job per worker onto a work
queue (a mutex-protected push: one atomic plus a store), ``hw_threads``
workers drain it concurrently, and the main thread joins. With more jobs
than hardware threads, execution proceeds in waves; wave wall time is
the slowest job in the wave. There is no lockstep — CPUs have no warps —
so the fidelity grouping only saves simulator time, never changes the
modelled time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from ..context import CountingContext, ExecContext, NullContext
from ..core.interpreter import sequential_engine, worker_expression
from ..core.nodes import Node
from ..ops import Op, Phase
from ..runtime.fidelity import Fidelity, group_rows

if TYPE_CHECKING:  # pragma: no cover
    from ..core.environment import Environment
    from ..core.interpreter import Interpreter
    from .device import CPUDevice

__all__ = ["CPUParallelEngine", "wave_schedule"]


def wave_schedule(job_cycles: np.ndarray, width: int) -> tuple[float, int]:
    """Greedy wave schedule: ``width`` jobs run concurrently, and each
    wave lasts as long as its slowest job. Returns the wall cycles and
    the number of waves."""
    wall = 0.0
    n = len(job_cycles)
    for start in range(0, n, width):
        wall += float(job_cycles[start : start + width].max())
    return wall, -(-n // width)


class CPUParallelEngine:
    def __init__(self, device: "CPUDevice") -> None:
        self.device = device
        self._active = False
        self.begin_command()

    def begin_command(self) -> None:
        self.worker_wall_cycles = 0.0
        self.distribute_cycles = 0.0
        self.collect_cycles = 0.0
        self.jobs = 0
        self.waves = 0
        #: Parallel forms that ran inside a worker, sequentially.
        self.nested_fallbacks = 0

    @property
    def round_count(self) -> int:
        return self.waves

    @property
    def spin_cycles(self) -> float:
        return 0.0  # CPU workers sleep on a condvar instead of spinning

    def __call__(
        self,
        interp: "Interpreter",
        fn: Node,
        rows: list[list[Node]],
        env: "Environment",
        ctx: ExecContext,
        depth: int,
        spread: bool = False,
    ) -> list[Node]:
        # ``spread`` names a GPU layout: a CPU has no warps to spread over.
        if self._active:
            self.nested_fallbacks += 1
            return sequential_engine(interp, fn, rows, env, ctx, depth)
        self._active = True
        try:
            return self._run(interp, fn, rows, env, ctx)
        finally:
            self._active = False

    def _run(
        self,
        interp: "Interpreter",
        fn: Node,
        rows: list[list[Node]],
        env: "Environment",
        master: ExecContext,
    ) -> list[Node]:
        dev = self.device
        spec = dev.spec
        n = len(rows)
        self.jobs += n

        # ---- main thread: enqueue every job ---------------------------------
        c0 = dev.master_cycles(Phase.EVAL)
        exprs = []
        for row in rows:
            exprs.append(worker_expression(interp, fn, row, master))
            master.charge(Op.ATOMIC_RMW)   # queue mutex
            master.charge(Op.POSTBOX_WRITE)  # queue slot store
        c1 = dev.master_cycles(Phase.EVAL)
        self.distribute_cycles += c1 - c0

        # ---- workers: waves over hardware threads ------------------------------
        results: list[Optional[Node]] = [None] * n
        job_cycles = np.zeros(n, dtype=np.float64)

        if dev.fidelity is Fidelity.WARP:
            groups = group_rows(fn, rows)
        else:
            groups = {("job", i): [i] for i in range(n)}

        null = NullContext()
        for indices in groups.values():
            rep = indices[0]
            wctx = CountingContext(max_depth=spec.max_recursion_depth, thread_id=rep)
            wctx.set_phase(Phase.EVAL)
            wctx.charge(Op.ATOMIC_RMW)  # queue pop
            local = env.child(label="worker")
            wctx.charge(Op.NODE_ALLOC)
            fallbacks = self.nested_fallbacks
            result = interp.eval_node(exprs[rep], local, wctx, 0)
            wctx.charge(Op.ATOMIC_RMW)  # completion count
            cycles = spec.costs.cycles(wctx.counts)
            job_cycles[rep] = cycles
            results[rep] = result
            # Each twin job falls back as often as the job it copies, and
            # yields its own result node (uncharged — the replicated
            # cycle count already covers it).
            fell = self.nested_fallbacks - fallbacks
            if fell:
                self.nested_fallbacks += fell * (len(indices) - 1)
            for idx in indices[1:]:
                job_cycles[idx] = cycles
                results[idx] = interp.copy_node(result, null)

        wall, waves = wave_schedule(job_cycles, spec.hw_threads)
        self.worker_wall_cycles += wall
        self.waves += waves

        # ---- main thread: join / gather ----------------------------------------
        c2 = dev.master_cycles(Phase.EVAL)
        master.charge(Op.POSTBOX_READ, n)
        c3 = dev.master_cycles(Phase.EVAL)
        self.collect_cycles += c3 - c2

        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]
