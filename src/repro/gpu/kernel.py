"""The persistent master/worker kernel (paper §III-C/D, Alg. 1).

This module is the GPU back-end's parallel engine. Every distribution
round, whether it serves a ``|||``, ``gpu-map`` or ``preduce`` form or a
batch of tenant requests, runs through one loop,
:meth:`GPUParallelEngine._rounds`. In each round the master thread
(block 0, thread 0):

1. places up to one job per worker, in one of two layouts: *dense* (job
   ``j`` on worker ``j``, so jobs fill warps in order) for ``|||``,
   whose contract names the worker of each row, or *spread* (one job
   per warp first) for ``gpu-map`` and ``preduce`` rows, which name no
   worker, and for tenant requests: divergent code would serialize
   inside a shared warp,
2. deposits each job in its worker's postbox and raises the work/sync
   flags — for a form the job is a fresh list linking the function and
   the job's argument nodes (paper: "creates a new expression for each
   worker thread, which links to the function"), for a tenant the
   request itself,
3. sets the per-block synchronization flag for every block that received
   work — or has no more work to expect — so lockstep threads without a
   job do not spin forever (Fig. 13; disabling this flag reproduces the
   warp-divergence livelock),
4. waits for all workers, then collects results in distribution order.

What differs between the two callers is what a job deposits and how its
lanes run (:meth:`~GPUParallelEngine.__call__`,
:meth:`~GPUParallelEngine.run_service_batch`). Form workers evaluate
their sub-tree in an environment chained to the form's environment, with
their own (fresh) device stack; tenant workers run the request's plan in
the tenant's environment. A served request whose plan is one parallel
form runs in master mode instead (:meth:`GPUDevice.submit_batch
<repro.gpu.device.GPUDevice.submit_batch>`): the master evaluates it and
its rows take this engine's form rounds, as in a single command.

Timing: the master's own work is charged to its context; worker wall
time per round is the maximum over warps of the per-warp lockstep time,
since every block is resident and runs concurrently. Both lane runners
sum a warp over the lanes that the layout placed on it. If there are
more jobs than workers, the master distributes in rounds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from ..context import CountingContext, ExecContext, NullContext
from ..core.interpreter import sequential_engine, worker_expression
from ..core.nodes import Node
from ..errors import LivelockError
from ..ops import N_OPS, Op, Phase, RowCycles
from ..runtime.batch import run_contained
from ..runtime.fidelity import Fidelity, group_signatures, task_signature

if TYPE_CHECKING:  # pragma: no cover
    from ..core.environment import Environment
    from ..core.interpreter import Interpreter
    from .device import GPUDevice

__all__ = ["GPUParallelEngine", "RoundReport", "ServiceJob"]


def _kernel_livelock(message: str) -> LivelockError:
    """A livelock of the kernel's configuration (Figs. 12/13). It fails
    the whole transaction even where a job's evaluation raises it (a
    served request in master mode), so it is not containable."""
    exc = LivelockError(message)
    exc.containable = False
    return exc


def _entry_row(*charges: tuple[Op, int]) -> tuple[float, ...]:
    """The op-count row a fresh worker context holds after ``charges``."""
    row = [0.0] * N_OPS
    for op, n in charges:
        row[op] += n
    return tuple(row)


#: A worker's Alg. 1 entry charges (lines 5-7): barrier, fence, the two
#: flag polls and the postbox fetch. A form's worker also allocates the
#: frame chained to the form's environment.
_SERVICE_ENTRY = _entry_row(
    (Op.BARRIER, 1), (Op.FENCE, 1), (Op.POSTBOX_READ, 1), (Op.ATOMIC_LOAD, 2)
)
_FORM_ENTRY = _entry_row(
    (Op.BARRIER, 1), (Op.FENCE, 1), (Op.POSTBOX_READ, 1), (Op.ATOMIC_LOAD, 2),
    (Op.NODE_ALLOC, 1),
)


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
    """Bookkeeping for one distribution round (exposed for tests, built
    on demand from the engine's round log)."""

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
        self._active = False
        self._layouts: dict[tuple[bool, int], tuple[list, list[int], int]] = {}
        #: One worker context serves every lane in turn. A worker never
        #: changes phase and has no cache, so its EVAL row is all it
        #: charges: each lane starts by overwriting that row with its
        #: entry charges, and its cycles are that row's conversion.
        self._lane_ctx = CountingContext(max_depth=device.spec.max_recursion_depth)
        self._lane_row = self._lane_ctx.counts.rows[Phase.EVAL]
        #: A tenant's repeated command charges its lane the same row:
        #: convert each row once (``RowCycles``).
        self._lane_rows = RowCycles(device.spec.costs)
        self.begin_command()

    # -- per-command accumulators -------------------------------------------------

    def begin_command(self) -> None:
        self.worker_wall_cycles = 0.0
        self.distribute_cycles = 0.0
        self.collect_cycles = 0.0
        self.spin_cycles = 0.0
        self.jobs = 0
        #: Parallel forms that ran inside a worker, each sequentially in
        #: that worker's lane (:meth:`__call__`).
        self.nested_fallbacks = 0
        #: ``(jobs, warps_touched, wall_cycles, groups)`` per round.
        self._round_log: list[tuple[int, int, float, int]] = []

    @property
    def rounds(self) -> list[RoundReport]:
        return [RoundReport(*entry) for entry in self._round_log]

    @property
    def round_count(self) -> int:
        return len(self._round_log)

    # -- engine entry -----------------------------------------------------------------

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
        """Distribute one parallel form's rows; ``spread`` selects the
        layout (:meth:`_layout`): False for ``|||``, True for the forms
        whose rows name no worker."""
        if self._active:
            # A worker hit a nested |||: CuLi has a single master, so
            # nested parallel sections degrade to sequential evaluation
            # inside the worker (documented limitation).
            self.nested_fallbacks += 1
            return sequential_engine(interp, fn, rows, env, ctx, depth)

        return self._rounds(
            ctx,
            rows,
            spread,
            lambda round_rows: [
                worker_expression(interp, fn, row, ctx) for row in round_rows
            ],
            lambda round_rows, boxes, warp_of, warps: self._lockstep_lanes(
                interp, fn, round_rows, env, boxes, warp_of, warps
            ),
        )

    # -- multi-tenant service rounds (repro.serve) --------------------------------

    def run_service_batch(
        self, interp: "Interpreter", jobs: list[ServiceJob]
    ) -> list[float]:
        """Evaluate many tenants' commands as shared distribution rounds.

        The ``|||`` round loop (Alg. 1) with one job per *tenant request*
        instead of one job per ``|||`` argument: the master deposits each
        request in a worker's postbox, raises the per-block sync flags
        once per touched block, waits, and collects — so the
        distribute/collect overhead and the flag traffic are amortized
        across every tenant in the round.

        Placement differs from ``|||`` rounds: different tenants run
        *different* code, and divergent lanes within a warp serialize
        (paper §III-D-d), so jobs are spread one-per-warp first and only
        share a warp once every warp has a job (the layout ``gpu-map``
        and ``preduce`` rows take too). A warp's time is the sum of its
        jobs' lane times; the round's wall time is the max over warps.

        Failure containment: Lisp-level failures and *containable*
        device faults (arena exhaustion, a livelock inside one job's
        evaluation — see :class:`~repro.errors.DeviceError`) are confined
        to their job (``job.error``), with the faulted job's nursery
        allocations rolled back to a per-job watermark so co-tenants can
        reuse the space. Device-fatal errors (shutdown, protocol
        corruption) and the batch-level engine-configuration livelocks
        (raised non-containable) still abort the transaction. Returns
        per-job lane cycles (the request's own eval time).
        Wall/distribute/collect/spin cycles accumulate on the engine
        exactly like ``|||`` rounds.
        """
        if not jobs:
            return []
        master = self.device.master_ctx
        wctx = self._lane_ctx
        lane_row = self._lane_row
        lane_rows = self._lane_rows
        per_job_cycles: list[float] = []

        def deposit(round_jobs: list[ServiceJob]) -> list[ServiceJob]:
            master.charge(Op.NODE_READ, len(round_jobs))  # each request's root
            return round_jobs

        def run_lanes(round_jobs, boxes, warp_of, warps):
            nonlocal per_job_cycles
            lanes = []
            for box in boxes:
                job = box.io
                wctx.thread_id = box.thread_id
                # Barrier, fence, the two flag polls and the postbox
                # fetch (Alg. 1) on the worker's fresh counts.
                lane_row[:] = _SERVICE_ENTRY
                # princ during eval is the worker's work (single-command
                # mode charges the same appends to its one context).
                job.out.bind(wctx)
                interp.push_output(job.out)
                # Per-job containment: a job that dies on a Lisp error or
                # a containable device fault is killed alone, its nursery
                # allocations rolled back before the next job runs.
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
                lanes.append(lane_rows[tuple(lane_row)])
            per_job_cycles += lanes
            # Divergent tenants in one warp serialize, lane by lane;
            # warps run concurrently.
            warp_sums = [0.0] * warps
            for warp, cycles in zip(warp_of, lanes):
                warp_sums[warp] += cycles
            return lanes, max(warp_sums), len(lanes)

        self._rounds(master, jobs, True, deposit, run_lanes)
        return per_job_cycles

    # -- the master/worker protocol -------------------------------------------------

    def _rounds(
        self,
        master: ExecContext,
        items: list,
        spread: bool,
        deposit: Callable[[list], list],
        run_lanes: Callable[[list, list, list[int], int], tuple],
    ) -> list:
        """Run one job per item as Alg. 1 distribution rounds; returns
        what the master collects from each job's postbox, in item order.

        ``spread`` selects the layout (:meth:`_layout`). Per round,
        ``deposit(round_items)`` charges the master for building the
        round's jobs and returns what each deposits in its postbox;
        ``run_lanes(round_items, boxes, warp_of, warps)`` runs the
        round's workers on them and returns their lane cycles (one per
        job), the round's wall cycles and its number of task groups.
        """
        dev = self.device
        grid = dev.grid
        spec = dev.spec
        if not grid.master_block_disabled and not spec.independent_thread_scheduling:
            # Paper Fig. 12: without disabling the master block's sibling
            # threads, the first block barrier diverges the master's warp
            # and the kernel livelocks. Volta's per-thread program
            # counters (the paper's "new threading model") remove this.
            raise _kernel_livelock(
                "master-block worker threads are enabled: the master warp "
                "diverges at the block barrier and spins forever (Fig. 12)"
            )
        flag = dev.enable_block_sync_flag
        idle_lanes_spin = not flag and not spec.independent_thread_scheduling
        workers = grid.worker_count
        layouts = self._layouts
        n = len(items)
        collected = [None] * n
        self._active = True  # a nested ||| inside a job runs sequentially
        try:
            offset = 0
            # Nothing is charged between rounds: each round's closing
            # reading opens the next round.
            c0 = dev.master_cycles(Phase.EVAL)
            while offset < n:
                k = min(workers, n - offset)
                if idle_lanes_spin and (spread or k % spec.warp_size):
                    # Paper Fig. 13: without the per-block sync flag, the
                    # lockstep lanes left without a job spin forever.
                    # Spread rounds rarely fill whole warps, so they
                    # need the flag whatever their size.
                    raise _kernel_livelock(
                        "spread rounds (tenant requests, gpu-map, preduce) "
                        "need the block sync flag: partially filled warps "
                        "livelock without it (Fig. 13)"
                        if spread
                        else f"{k} jobs is not a multiple of {spec.warp_size} "
                        "and the block sync flag is disabled: unassigned "
                        "lockstep lanes spin forever (paper Fig. 13)"
                    )
                try:
                    boxes, warp_of, warps = layouts[spread, k]
                except KeyError:
                    boxes, warp_of, warps = self._layout(spread, k)

                # ---- master: distribution ---------------------------------
                round_items = items[offset : offset + k]
                for box, payload in zip(boxes, deposit(round_items)):
                    box.assign(payload, master)
                if flag:
                    # One flag write per touched block, plus — once no
                    # more jobs remain — per remaining block so their
                    # threads fall through the barrier (Alg. 1 line 6 /
                    # Fig. 13).
                    master.charge(Op.ATOMIC_RMW, warps)
                    if offset + k >= n:
                        idle_blocks = (grid.n_blocks - 1) - warps
                        if idle_blocks > 0:
                            master.charge(Op.ATOMIC_RMW, idle_blocks)
                c1 = dev.master_cycles(Phase.EVAL)
                self.distribute_cycles += c1 - c0

                # ---- workers ----------------------------------------------
                lanes, wall, groups = run_lanes(round_items, boxes, warp_of, warps)
                self.worker_wall_cycles += wall
                # Energy metric: lanes that finished early (or never had
                # work) spin on their postbox flags until the round
                # completes. A numpy sum: its pairwise order differs from
                # a Python sum for eight or more lanes. One lane is its
                # own sum, with no addition to order.
                busy = lanes[0] if k == 1 else np.add.reduce(lanes)
                self.spin_cycles += float(wall * k - busy) + wall * (workers - k)

                # ---- master: collection -----------------------------------
                c2 = dev.master_cycles(Phase.EVAL)
                for j, box in enumerate(boxes, offset):
                    collected[j] = box.collect(master)
                c3 = dev.master_cycles(Phase.EVAL)
                self.collect_cycles += c3 - c2
                c0 = c3

                self.jobs += k
                self._round_log.append((k, warps, wall, groups))
                offset += k
        finally:
            self._active = False
        return collected

    def _layout(self, spread: bool, k: int) -> tuple[list, list[int], int]:
        """Where a ``k``-job round runs: each job's postbox and warp, and
        the number of warps touched.

        Dense: job ``j`` on worker ``j``. Spread: one job per warp first;
        jobs wrap to second lanes only once every warp is occupied (tiny
        or ablation grids whose workers do not fill whole warps fall back
        to dense). A pure function of the grid, the layout and ``k``, so
        it is worked out once per round size.
        """
        dev = self.device
        grid = dev.grid
        warp = dev.spec.warp_size
        workers = grid.worker_count
        n_warps = max(1, workers // warp)
        if spread and k <= n_warps * warp and n_warps * warp <= workers:
            slots = [(j % n_warps) * warp + (j // n_warps) for j in range(k)]
        else:
            slots = list(range(k))
        warp_of = [slot // warp for slot in slots]
        boxes = [dev.postboxes[grid.worker_tid(slot)] for slot in slots]
        layout = self._layouts[spread, k] = (boxes, warp_of, len(set(warp_of)))
        return layout

    def _lockstep_lanes(
        self,
        interp: "Interpreter",
        fn: Node,
        round_rows: list[list[Node]],
        env: "Environment",
        boxes: list,
        warp_of: list[int],
        warps: int,
    ) -> tuple[np.ndarray, float, int]:
        """Run one form round's workers on the expressions deposited in
        ``boxes``, lane ``i`` on warp ``warp_of[i]`` of ``warps``; returns
        the lane cycles, wall cycles and task groups."""
        dev = self.device
        k = len(round_rows)
        lane_cycles = np.zeros(k, dtype=np.float64)
        sigs = [task_signature(fn, row) for row in round_rows]
        if dev.fidelity is Fidelity.WARP:
            groups = group_signatures(sigs).values()
        else:
            groups = [[i] for i in range(k)]

        wctx = self._lane_ctx
        lane_row = self._lane_row
        null = NullContext()
        for indices in groups:
            box = boxes[indices[0]]
            wctx.thread_id = box.thread_id
            # Alg. 1 lines 5-11 on the worker's fresh counts: barrier,
            # fence, the two flag polls, the postbox fetch, a frame
            # chained to the form's environment, eval, barrier.
            lane_row[:] = _FORM_ENTRY
            fallbacks = self.nested_fallbacks
            result = interp.eval_node(box.io, env.child(label="worker"), wctx, 0)
            wctx.charge(Op.BARRIER)
            box.complete(result, wctx)  # clears work/sync (2 atomic stores)
            lane_cycles[indices] = self._lane_rows[tuple(lane_row)]
            # Lockstep twins (WARP fidelity): same instruction stream,
            # same time, so each twin fell back as often as the lane it
            # shares. Each twin produces its own result node (as FULL
            # mode and the paper's C do) — allocated uncharged because
            # the replicated cycle count already covers it. Flag traffic
            # still happens physically on their cells.
            fell = self.nested_fallbacks - fallbacks
            if fell:
                self.nested_fallbacks += fell * (len(indices) - 1)
            for idx in indices[1:]:
                boxes[idx].complete(interp.copy_node(result, null), null)

        # Warp divergence (paper §III-D-d): lanes on *different* code
        # paths "finish one after another" — distinct task groups within
        # one warp serialize, while lockstep-identical lanes run
        # together. A warp's time is therefore the SUM over its distinct
        # task signatures of that group's lane time; a uniform warp
        # degenerates to the plain max. The warps are the layout's, as
        # in a service round.
        per_warp: list[dict] = [{} for _ in range(warps)]
        for sig, warp, cycles in zip(sigs, warp_of, lane_cycles.tolist()):
            per_sig = per_warp[warp]
            if cycles > per_sig.get(sig, 0.0):
                per_sig[sig] = cycles
        wall = max([sum(per_sig.values()) for per_sig in per_warp])
        return lane_cycles, wall, len(groups)
