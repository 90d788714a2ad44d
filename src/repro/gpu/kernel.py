"""The persistent master/worker kernel (paper §III-C/D, Alg. 1).

This module is the GPU back-end's ``|||`` engine. The master thread
(block 0, thread 0):

1. builds one expression per job — a fresh list linking the function and
   the job's argument nodes (paper: "creates a new expression for each
   worker thread, which links to the function"),
2. deposits it in the worker's postbox and raises the work/sync flags,
3. sets the per-block synchronization flag for every block that received
   work — or has no more work to expect — so lockstep threads without a
   job do not spin forever (Fig. 13; disabling this flag reproduces the
   warp-divergence livelock),
4. waits for all workers, then collects results in distribution order.

Workers evaluate their sub-tree in an environment chained to the ``|||``
expression's environment, with their own (fresh) device stack.

Timing: the master's own work is charged to its context; worker wall
time per round is the maximum over warps of the per-warp lockstep time
(max over lanes), since every block is resident and runs concurrently.
If there are more jobs than workers, the master distributes in rounds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from ..context import CountingContext, ExecContext, NullContext
from ..core.interpreter import sequential_engine
from ..core.nodes import Node, NodeType
from ..errors import LivelockError
from ..ops import Op, Phase, RowCycles
from ..runtime.batch import run_contained
from ..runtime.fidelity import Fidelity, group_rows, task_signature

if TYPE_CHECKING:  # pragma: no cover
    from ..core.environment import Environment
    from ..core.interpreter import Interpreter
    from .device import GPUDevice

__all__ = ["GPUParallelEngine", "RoundReport", "ServiceJob"]

#: A service worker's one-each entry charges (Alg. 1 lines 5-7).
_WORKER_ENTRY_OPS = (Op.BARRIER, Op.FENCE, Op.POSTBOX_READ)


class ServiceJob:
    """One tenant request distributed as a worker job (serving layer).

    ``plan`` is the request's prepared :class:`~repro.core.interpreter.
    CommandPlan` — materialized top-level forms for the tree-walker,
    and/or compiled trace steps when the JIT tier promoted the request
    text; None when the request failed before it had one — ``env`` the
    tenant's persistent environment, ``out`` the
    request's private output buffer (``princ`` during worker evaluation
    lands there).
    """

    __slots__ = ("plan", "env", "out", "results", "error")

    def __init__(self, plan, env, out) -> None:
        self.plan = plan
        self.env = env
        self.out = out
        self.results: Optional[list[Node]] = None
        self.error: Optional[Exception] = None


class RoundReport:
    """Bookkeeping for one distribution round (exposed for tests)."""

    __slots__ = ("jobs", "warps_touched", "wall_cycles", "groups")

    def __init__(self, jobs: int, warps_touched: int, wall_cycles: float, groups: int):
        self.jobs = jobs
        self.warps_touched = warps_touched
        self.wall_cycles = wall_cycles
        self.groups = groups


class GPUParallelEngine:
    """Installed as ``interp.parallel_engine`` by :class:`GPUDevice`."""

    def __init__(self, device: "GPUDevice") -> None:
        self.device = device
        self.nested_fallbacks = 0
        self._active = False
        self._layouts: dict[int, tuple[list, list[int], int]] = {}
        #: Service lanes of one tenant's repeated command charge the
        #: same row: convert it once (``RowCycles``).
        self._lane_rows = RowCycles(device.spec.costs)
        self.begin_command()

    # -- per-command accumulators -------------------------------------------------

    def begin_command(self) -> None:
        self.worker_wall_cycles = 0.0
        self.distribute_cycles = 0.0
        self.collect_cycles = 0.0
        self.spin_cycles = 0.0
        self.jobs = 0
        self.rounds: list[RoundReport] = []

    @property
    def round_count(self) -> int:
        return len(self.rounds)

    # -- engine entry -----------------------------------------------------------------

    def __call__(
        self,
        interp: "Interpreter",
        fn: Node,
        rows: list[list[Node]],
        env: "Environment",
        ctx: ExecContext,
        depth: int,
    ) -> list[Node]:
        if self._active:
            # A worker hit a nested |||: CuLi has a single master, so
            # nested parallel sections degrade to sequential evaluation
            # inside the worker (documented limitation).
            self.nested_fallbacks += 1
            return sequential_engine(interp, fn, rows, env, ctx, depth)
        self._active = True
        try:
            return self._run(interp, fn, rows, env, ctx)
        finally:
            self._active = False

    # -- the master/worker protocol -------------------------------------------------

    def _run(
        self,
        interp: "Interpreter",
        fn: Node,
        rows: list[list[Node]],
        env: "Environment",
        master: ExecContext,
    ) -> list[Node]:
        dev = self.device
        grid = dev.grid
        spec = dev.spec
        n = len(rows)
        self.jobs += n

        if not grid.master_block_disabled and not spec.independent_thread_scheduling:
            # Paper Fig. 12: without disabling the master block's sibling
            # threads, the first block barrier diverges the master's warp
            # and the kernel livelocks. Volta's per-thread program
            # counters (the paper's "new threading model") remove this.
            raise LivelockError(
                "master-block worker threads are enabled: the master warp "
                "diverges at the block barrier and spins forever (Fig. 12)"
            )

        results: list[Optional[Node]] = [None] * n
        workers = grid.worker_count
        arena = interp.arena

        offset = 0
        # Nothing is charged between rounds: each round's closing reading
        # opens the next round.
        c0 = dev.master_cycles(Phase.EVAL)
        while offset < n:
            k = min(workers, n - offset)
            round_rows = rows[offset : offset + k]
            last_round = offset + k >= n

            # ---- master: distribution -------------------------------------
            for j, row in enumerate(round_rows):
                expr = self._build_worker_expression(interp, fn, row, master)
                box = dev.postboxes[grid.worker_tid(j)]
                box.assign(expr, master)
            warps_touched = grid.warps_for_jobs(k)
            if dev.enable_block_sync_flag:
                # One flag write per touched block, plus — once no more
                # jobs remain — per remaining block so their threads fall
                # through the barrier (Alg. 1 line 6 / Fig. 13).
                master.charge(Op.ATOMIC_RMW, warps_touched)
                if last_round:
                    idle_blocks = (grid.n_blocks - 1) - warps_touched
                    if idle_blocks > 0:
                        master.charge(Op.ATOMIC_RMW, idle_blocks)
            elif k % spec.warp_size != 0 and not spec.independent_thread_scheduling:
                raise LivelockError(
                    f"{k} jobs is not a multiple of {spec.warp_size} and the "
                    "block sync flag is disabled: unassigned lockstep lanes "
                    "spin forever (paper Fig. 13)"
                )
            c1 = dev.master_cycles(Phase.EVAL)
            self.distribute_cycles += c1 - c0

            # ---- workers: lockstep evaluation ---------------------------------
            wall = self._execute_round(interp, fn, round_rows, env, results, offset)
            self.worker_wall_cycles += wall

            # ---- master: collection -----------------------------------------
            c2 = dev.master_cycles(Phase.EVAL)
            for j in range(k):
                box = dev.postboxes[grid.worker_tid(j)]
                collected = box.collect(master)
                assert collected is not None
                results[offset + j] = collected
            c3 = dev.master_cycles(Phase.EVAL)
            self.collect_cycles += c3 - c2
            c0 = c3

            offset += k

        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    def _build_worker_expression(
        self, interp: "Interpreter", fn: Node, row: list[Node], master: ExecContext
    ) -> Node:
        """The per-job expression, e.g. (+ 1 4) for (||| 3 + (1 2 3) ...)."""
        arena = interp.arena
        expr = arena.alloc(NodeType.N_LIST, master)
        master.charge(Op.NODE_WRITE, 2)
        expr.append_child(interp.linkable(fn, master))
        for arg in row:
            master.charge(Op.NODE_WRITE, 2)
            expr.append_child(interp.linkable(arg, master))
        return expr.seal()

    def _execute_round(
        self,
        interp: "Interpreter",
        fn: Node,
        round_rows: list[list[Node]],
        env: "Environment",
        results: list[Optional[Node]],
        offset: int,
    ) -> float:
        """Run one round of workers; returns the round's wall cycles."""
        dev = self.device
        grid = dev.grid
        spec = dev.spec
        k = len(round_rows)
        lane_cycles = np.zeros(k, dtype=np.float64)

        if dev.fidelity is Fidelity.WARP:
            groups = group_rows(fn, round_rows)
        else:
            groups = {("job", i): [i] for i in range(k)}

        null = NullContext()
        for indices in groups.values():
            rep = indices[0]
            wctx = self._worker_context(grid.worker_tid(rep))
            box = dev.postboxes[grid.worker_tid(rep)]
            expr = box.io
            assert expr is not None
            result = self._worker_evaluate(interp, expr, env, wctx)
            box.complete(result, wctx)  # clears work/sync (2 atomic stores)
            cycles = spec.costs.cycles(wctx.counts) + sum(wctx.extra_cycles)
            lane_cycles[indices] = cycles
            results[offset + rep] = result
            for idx in indices[1:]:
                other_box = dev.postboxes[grid.worker_tid(idx)]
                if dev.fidelity is Fidelity.WARP:
                    # Lockstep twins: same instruction stream, same time.
                    # Each twin produces its own result node (as FULL mode
                    # and the paper's C do) — allocated uncharged because
                    # the replicated cycle count already covers it. Flag
                    # traffic still happens physically on their cells.
                    twin = interp.copy_node(result, null)
                    other_box.complete(twin, null)
                    results[offset + idx] = twin
                else:  # pragma: no cover - FULL mode has singleton groups
                    raise AssertionError("FULL fidelity must not share groups")

        # Warp divergence (paper §III-D-d): lanes on *different* code
        # paths "finish one after another" — distinct task groups within
        # one warp serialize, while lockstep-identical lanes run
        # together. A warp's time is therefore the SUM over its distinct
        # task signatures of that group's lane time; a uniform warp
        # degenerates to the plain max.
        sigs = [task_signature(fn, row) for row in round_rows]
        warp_cycles = []
        for w in range(0, k, spec.warp_size):
            per_sig: dict = {}
            for lane in range(w, min(w + spec.warp_size, k)):
                sig = sigs[lane]
                cycles = float(lane_cycles[lane])
                if cycles > per_sig.get(sig, 0.0):
                    per_sig[sig] = cycles
            warp_cycles.append(sum(per_sig.values()))
        wall = max(warp_cycles) if warp_cycles else 0.0

        # Energy metric: lanes that finished early (or never had work)
        # spin on their postbox flags until the round completes.
        idle_lane_cycles = float(wall * k - lane_cycles.sum())
        idle_workers = grid.worker_count - k
        self.spin_cycles += idle_lane_cycles + wall * idle_workers
        self.rounds.append(
            RoundReport(
                jobs=k,
                warps_touched=grid.warps_for_jobs(k),
                wall_cycles=wall,
                groups=len(groups),
            )
        )
        return wall

    # -- multi-tenant service rounds (repro.serve) --------------------------------

    def run_service_batch(
        self, interp: "Interpreter", jobs: list[ServiceJob]
    ) -> list[float]:
        """Evaluate many tenants' commands as shared distribution rounds.

        This reuses the ``|||`` master/worker machinery (Alg. 1) with one
        job per *tenant request* instead of one job per ``|||`` argument:
        the master deposits each request's parsed forms in a worker's
        postbox, raises the per-block sync flags once per touched block,
        waits, and collects — so the distribute/collect overhead and the
        flag traffic are amortized across every tenant in the round.

        Placement differs from ``|||`` rounds: different tenants run
        *different* code, and divergent lanes within a warp serialize
        (paper §III-D-d), so jobs are spread one-per-warp first and only
        share a warp once every warp has a job. A warp's time is the sum
        of its jobs' lane times; the round's wall time is the max over
        warps.

        Failure containment: Lisp-level failures and *containable*
        device faults (arena exhaustion, a livelock inside one job's
        evaluation — see :class:`~repro.errors.DeviceError`) are confined
        to their job (``job.error``), with the faulted job's nursery
        allocations rolled back to a per-job watermark so co-tenants can
        reuse the space. Device-fatal errors (shutdown, protocol
        corruption) and the batch-level engine-configuration livelocks
        raised before any job runs still abort the transaction. Returns
        per-job lane cycles (the request's own eval time).
        Wall/distribute/collect/spin cycles accumulate on the engine
        exactly like ``|||`` rounds.
        """
        dev = self.device
        grid = dev.grid
        spec = dev.spec
        master = dev.master_ctx
        n = len(jobs)
        if n == 0:
            return []
        if not grid.master_block_disabled and not spec.independent_thread_scheduling:
            # Same Fig. 12 hazard as ||| rounds: the master's warp
            # diverges at the block barrier the service workers hit.
            raise LivelockError(
                "master-block worker threads are enabled: the master warp "
                "diverges at the block barrier and spins forever (Fig. 12)"
            )
        if not dev.enable_block_sync_flag and not spec.independent_thread_scheduling:
            # Service rounds rarely fill whole warps, so without the
            # per-block sync flag the idle lockstep lanes of every
            # touched block spin forever (paper Fig. 13).
            raise LivelockError(
                "multi-tenant service rounds need the block sync flag: "
                "partially filled warps livelock without it (Fig. 13)"
            )
        workers = grid.worker_count

        per_job_cycles = [0.0] * n
        self._active = True  # a nested ||| inside a request runs sequentially
        try:
            offset = 0
            # Each round's closing reading opens the next round.
            c0 = dev.master_cycles(Phase.EVAL)
            while offset < n:
                k = min(workers, n - offset)
                round_jobs = jobs[offset : offset + k]
                last_round = offset + k >= n
                boxes, warp_of, warps_touched = self._service_layout(k)

                # ---- master: distribution ---------------------------------
                for job, box in zip(round_jobs, boxes):
                    master.charge(Op.NODE_READ)  # fetch request root
                    box.assign(job.plan, master)
                if dev.enable_block_sync_flag:
                    master.charge(Op.ATOMIC_RMW, warps_touched)
                    if last_round:
                        idle_blocks = (grid.n_blocks - 1) - warps_touched
                        if idle_blocks > 0:
                            master.charge(Op.ATOMIC_RMW, idle_blocks)
                c1 = dev.master_cycles(Phase.EVAL)
                self.distribute_cycles += c1 - c0

                # ---- workers: each evaluates one tenant's forms -----------
                lane_cycles = []
                for job, box in zip(round_jobs, boxes):
                    wctx = self._worker_context(box.thread_id)
                    # Barrier, fence, the two flag polls and the postbox
                    # fetch (Alg. 1) on the worker's fresh counts.
                    wctx.charge_many(_WORKER_ENTRY_OPS)
                    wctx.charge(Op.ATOMIC_LOAD, 2)
                    # princ during eval is the worker's work (single-command
                    # mode charges the same appends to its one context).
                    job.out.bind(wctx)
                    interp.push_output(job.out)
                    # Per-job containment: a job that dies on a Lisp
                    # error or a containable device fault is killed
                    # alone, its nursery allocations rolled back before
                    # the next job runs.
                    try:
                        job.results, job.error = run_contained(
                            interp,
                            wctx,
                            lambda: [
                                interp.run_plan_step(step, job.env, wctx)
                                for step in job.plan.steps
                            ],
                        )
                    finally:
                        interp.pop_output()
                    wctx.charge(Op.BARRIER)
                    box.complete(job.results, wctx)
                    lane_cycles.append(
                        spec.costs.cycles(wctx.counts, self._lane_rows)
                        + sum(wctx.extra_cycles)
                    )
                per_job_cycles[offset : offset + k] = lane_cycles

                # Divergent tenants in one warp serialize; warps run
                # concurrently.
                warp_sums: dict[int, float] = {}
                for warp, cycles in zip(warp_of, lane_cycles):
                    warp_sums[warp] = warp_sums.get(warp, 0.0) + cycles
                wall = max(warp_sums.values())
                self.worker_wall_cycles += wall
                # A numpy sum, as recorded: its pairwise order differs
                # from a Python sum for eight or more lanes. One lane is
                # its own sum, with no addition to order.
                busy = lane_cycles[0] if k == 1 else np.add.reduce(lane_cycles)
                idle_lane_cycles = float(wall * k - busy)
                self.spin_cycles += idle_lane_cycles + wall * (workers - k)

                # ---- master: collection -----------------------------------
                c2 = dev.master_cycles(Phase.EVAL)
                for box in boxes:
                    box.collect(master)
                c3 = dev.master_cycles(Phase.EVAL)
                self.collect_cycles += c3 - c2
                c0 = c3

                self.jobs += k
                self.rounds.append(
                    RoundReport(
                        jobs=k,
                        warps_touched=warps_touched,
                        wall_cycles=wall,
                        groups=k,
                    )
                )
                offset += k
        finally:
            self._active = False
        return per_job_cycles

    def _service_layout(self, k: int) -> tuple[list, list[int], int]:
        """Where a ``k``-job service round runs: each job's postbox and
        warp, and the number of warps touched.

        One job per warp first; jobs wrap to second lanes only once every
        warp is occupied. A pure function of ``k`` and the grid, so it is
        worked out once per round size.
        """
        layout = self._layouts.get(k)
        if layout is None:
            dev = self.device
            grid = dev.grid
            warp = dev.spec.warp_size
            workers = grid.worker_count
            n_warps = max(1, workers // warp)
            if k <= n_warps * warp and n_warps * warp <= workers:
                slots = [(j % n_warps) * warp + (j // n_warps) for j in range(k)]
            else:  # tiny/ablation grids: fall back to dense packing
                slots = list(range(k))
            warp_of = [slot // warp for slot in slots]
            boxes = [dev.postboxes[grid.worker_tid(slot)] for slot in slots]
            layout = self._layouts[k] = (boxes, warp_of, len(set(warp_of)))
        return layout

    def _worker_context(self, tid: int) -> CountingContext:
        """A worker's fresh counts (a context starts in the EVAL phase)."""
        return CountingContext(
            max_depth=self.device.spec.max_recursion_depth, thread_id=tid
        )

    def _worker_evaluate(
        self,
        interp: "Interpreter",
        expr: Node,
        env: "Environment",
        wctx: CountingContext,
    ) -> Node:
        """One worker's turn through Alg. 1: barrier, flag checks, eval,
        barrier — charged to the worker's own context."""
        wctx.charge(Op.BARRIER)        # threadBlockBarrier (line 5)
        wctx.charge(Op.FENCE)          # __threadfence_block
        wctx.charge(Op.ATOMIC_LOAD, 2)  # blockSyncFlag + availableWork check
        wctx.charge(Op.POSTBOX_READ)   # fetch the io sub-tree
        local = env.child(label="worker")
        wctx.charge(Op.NODE_ALLOC)
        result = interp.eval_node(expr, local, wctx, 0)
        wctx.charge(Op.BARRIER)        # line 11
        return result
