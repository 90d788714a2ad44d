"""The simulated GPU device: lifecycle, memory map, and command execution.

A :class:`GPUDevice` is the CUDA side of CuLi: it owns the simulated
global memory (node arena, string buffers, postboxes), the L2 cache
model, the command buffer shared with the host, the persistent
interpreter (the environment survives across commands, as the paper's
interactive REPL requires), and the master/worker kernel engine.

Lifecycle timing reproduces the paper's base latency (Fig. 14): CUDA
context creation + kernel launch (spec-calibrated) + the master thread
building the global environment (charged op-by-op) + the graceful stop
(deactivating every block and the final host handshake).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..context import CountingContext
from ..core.builtins.parallel import PARALLEL_HEADS
from ..core.interpreter import Interpreter, InterpreterOptions
from ..core.nodes import NODE_BYTES, NodeType
from ..core.printer import Printer
from ..gpu.cache import SetAssociativeCache
from ..gpu.fileio import FileServiceLink, HostFileSystem
from ..gpu.grid import GridConfig
from ..gpu.hostlink import CommandBuffer, gate_request
from ..gpu.kernel import GPUParallelEngine, ServiceJob
from ..gpu.memory import GlobalMemory, OutputBuffer, SourceBuffer
from ..gpu.postbox import PostboxArray
from ..gpu.specs import GPUSpec
from ..ops import Op, Phase
from ..runtime.batch import BatchDevice, BatchRequest, BatchResult, run_contained
from ..runtime.fidelity import Fidelity

__all__ = ["GPUDevice", "GPUDeviceConfig"]

#: Extra DRAM latency charged per L2 miss, in nanoseconds (per arch the
#: differences are small next to the calibrated per-op costs).
_DRAM_EXTRA_NS = {
    "fermi": 350.0,
    "kepler": 300.0,
    "maxwell": 280.0,
    "pascal": 250.0,
    "volta": 220.0,  # HBM2
}


@dataclass
class GPUDeviceConfig:
    """Behavioural switches (defaults = the paper's working design)."""

    fidelity: Fidelity = Fidelity.WARP
    enable_block_sync_flag: bool = True       #: Alg. 1 / Fig. 13 mechanism
    disable_master_block_workers: bool = True  #: Fig. 12 mechanism
    interpreter: Optional[InterpreterOptions] = None


class GPUDevice(BatchDevice):
    """One CuLi instance resident on one simulated GPU."""

    def __init__(self, spec: GPUSpec, config: Optional[GPUDeviceConfig] = None) -> None:
        super().__init__(spec, config or GPUDeviceConfig())
        self.enable_block_sync_flag = self.config.enable_block_sync_flag
        self.grid = GridConfig.for_spec(
            spec, master_block_disabled=self.config.disable_master_block_workers
        )

        # ---- device memory map -------------------------------------------
        interp_options = self.config.interpreter or InterpreterOptions()
        self.memory = GlobalMemory()
        self.cmdbuf = CommandBuffer(spec)
        self.input_region = self.memory.allocate_region("input", self.cmdbuf.capacity)
        self.output_region = self.memory.allocate_region("output", self.cmdbuf.capacity)
        self.arena_region = self.memory.allocate_region(
            "arena", interp_options.arena_capacity * NODE_BYTES
        )
        self.postbox_region = self.memory.allocate_region(
            "postboxes", self.grid.total_threads * 32
        )
        self.postboxes = PostboxArray(self.grid.total_threads)

        # ---- L2 cache + master context ---------------------------------------
        self.cache = SetAssociativeCache(
            spec.l2_kib, line_bytes=spec.l2_line_bytes, assoc=spec.l2_assoc
        )
        miss_penalty = _DRAM_EXTRA_NS[spec.arch.value] * spec.core_clock_ghz
        self.master_ctx = CountingContext(
            max_depth=spec.max_recursion_depth,
            thread_id=self.grid.master_tid,
            cache=self.cache,
            miss_penalty=miss_penalty,
        )

        # ---- kernel start: master builds the global environment ---------------
        self.master_ctx.set_phase(Phase.OTHER)
        self.interp = Interpreter(options=interp_options, setup_ctx=self.master_ctx)
        self._setup_cycles = self.master_cycles(Phase.OTHER)
        #: The master prints every batch's results.
        self._printer = Printer(self.master_ctx)
        self.engine = GPUParallelEngine(self)
        self.interp.parallel_engine = self.engine
        # Device file I/O goes through the host message buffer (§III-D).
        self.filesystem = HostFileSystem()
        self.file_link = FileServiceLink(spec, self.filesystem)
        self.interp.file_service = self.file_link
        self.master_ctx.set_phase(Phase.EVAL)

    # -- cycle accounting helpers ----------------------------------------------

    def _shutdown_cycles(self) -> float:
        """Graceful stop: the master clears every block's active flag and
        performs the final handshake."""
        store = self.spec.costs.cost_of(Op.POSTBOX_WRITE)
        fence = self.spec.costs.cost_of(Op.FENCE)
        return self.grid.n_blocks * store + fence

    # -- lifecycle -----------------------------------------------------------------

    @property
    def base_latency_ms(self) -> float:
        """Setup + graceful stop (paper Fig. 14).

        Context creation and kernel launch come from the spec model;
        the global-environment build was charged op-by-op at startup;
        the stop cost covers deactivating all blocks plus one handshake.
        """
        startup = self.spec.base_latency_ms + self.spec.cycles_to_ms(self._setup_cycles)
        stop = self.spec.cycles_to_ms(self._shutdown_cycles())
        stop += self.spec.command_overhead_us / 2000.0  # half a handshake
        return startup + stop

    @property
    def kind(self) -> str:
        return "gpu"

    def close(self) -> None:
        if self._closed:
            return
        self.cmdbuf.host_stop_kernel()
        self.master_ctx.set_phase(Phase.OTHER)
        self.postboxes.deactivate_all(self.master_ctx)
        self.master_ctx.set_phase(Phase.EVAL)
        self._closed = True

    def _abort_transaction(self) -> None:
        """Also release the command buffer so the REPL stays alive."""
        self.cmdbuf.dev_sync = 0
        super()._abort_transaction()

    # -- command execution ------------------------------------------------------------

    def _run_masters(
        self, jobs: list[ServiceJob], masters: list[int], eval_cycles: list[float]
    ) -> list[float]:
        """Master mode (Alg. 1): the master evaluates each job at an
        index in ``masters`` (a single command, or a served request
        whose plan is one parallel form), and the engine runs the rows
        of its parallel forms on the workers.

        Each job runs under :func:`~repro.runtime.batch.run_contained`
        with its own nursery watermark, as a service lane does. Its eval
        (stored at its index in ``eval_cycles``) is the master's EVAL
        delta plus its rounds' worker wall, less the distribution and
        collection that the batch's times share out to every request, as
        they share a service round's. Returns the batch's worker cycles
        per request: ``eval_cycles`` with each master-mode request's
        entry replaced by its rounds' wall.
        """
        master = self.master_ctx
        interp = self.interp
        engine = self.engine
        worker_cycles = eval_cycles[:]
        for i in masters:
            job = jobs[i]
            c0 = self.master_cycles(Phase.EVAL)
            wall0 = engine.worker_wall_cycles
            shared0 = engine.distribute_cycles + engine.collect_cycles
            job.out.bind(master)
            interp.push_output(job.out)
            try:
                job.results, job.error = run_contained(
                    interp, master, interp.run_plan, job.plan, job.env, master
                )
            finally:
                interp.pop_output()
            wall = engine.worker_wall_cycles - wall0
            shared = engine.distribute_cycles + engine.collect_cycles - shared0
            eval_cycles[i] = self.master_cycles(Phase.EVAL) - c0 - shared + wall
            worker_cycles[i] = wall
        return worker_cycles

    def submit_batch(
        self, requests: Sequence[BatchRequest], *, single: bool = False
    ) -> BatchResult:
        """Run many tenants' commands as one batched device transaction.

        The multi-tenant execution model (repro.serve): one mapped-buffer
        upload carries the whole batch, the master parses each request
        serially (parsing stays the paper's serial bottleneck), then all
        requests are distributed to worker threads as shared ``|||``-style
        service rounds — tenants evaluate *concurrently*, one warp each —
        and the master prints each result and releases the buffer once.
        The per-command handshake, the PCIe latency, and the distribution
        overhead are paid once per batch instead of once per command.

        A request whose plan is one parallel form (``|||``, ``gpu-map``
        or ``preduce``; noted by its head when the plan is prepared)
        runs in master mode after the service round: the master
        evaluates it and the engine distributes its rows to the workers
        (:meth:`_run_masters`). ``single`` (set only by
        :meth:`~repro.runtime.batch.BatchDevice.submit`) runs the one
        request in master mode whatever its plan, which is how a single
        REPL command runs, and raises its upload refusal before anything
        is uploaded. A parallel form that a worker reaches — anywhere
        else in a served request, or inside a row — runs sequentially in
        that worker's lane and is counted in ``nested_fallbacks``.

        Failure containment (fault isolation): each request's parse and
        evaluation run through :func:`~repro.runtime.batch.run_contained`,
        so Lisp-level errors and *containable* device faults — arena
        exhaustion, a livelock confined to one job's evaluation (see
        :class:`~repro.errors.DeviceError`) — kill only their request,
        with its nursery allocations rolled back to a per-job watermark,
        while the remaining runnable jobs finish their service round.
        Only device-fatal errors (shutdown, buffer-protocol corruption,
        batch-level engine misconfiguration) abort the transaction; the
        buffer is then released and the open nursery region closed, so
        the device serves subsequent batches.

        The batch is one buffer transaction. An unbalanced or singly
        over-capacity request is refused per request and carries no
        payload; a joined payload over capacity is refused whole by
        :meth:`~repro.gpu.hostlink.CommandBuffer.host_upload`
        (:class:`~repro.errors.HostProtocolError`, raised before any
        device state changes). Packing batches to capacity is the
        scheduler's job; it sizes each request with the same gate
        (:func:`~repro.gpu.hostlink.gate_request`).
        """
        self._check_lost()
        requests = list(requests)
        if not requests:
            return BatchResult()
        n = len(requests)
        capacity = self.cmdbuf.capacity

        # The host's upload gate, once per request: a refused command is
        # reported without failing its batch and carries no payload. A
        # refused single command raises before anything is uploaded.
        texts, sizes, refusals = zip(
            *[gate_request(r.text, capacity) for r in requests]
        )
        if single and refusals[0] is not None:
            raise refusals[0]
        # Host packs the accepted requests into one mapped-buffer transaction.
        up_ms = self.cmdbuf.host_upload(
            " ".join([t for t, refusal in zip(texts, refusals) if refusal is None])
        )

        master = self.master_ctx
        interp = self.interp
        master.reset()
        self.engine.begin_command()
        self.file_link.stats.reset()
        cache_hits0 = self.cache.stats.hits
        cache_miss0 = self.cache.stats.misses
        self.cmdbuf.device_read()  # master wakes once for the whole batch
        jit0 = self._jit_counts()
        # One nursery region serves the whole batch transaction: every
        # tenant's temporaries land in it, escapes are promoted by the
        # write barriers, and collection runs once per service round —
        # never per item.
        interp.begin_command_region()

        jobs: list[ServiceJob] = []
        # The requests the master evaluates itself (master mode).
        masters: list[int] = []
        parse_cycles = [0.0] * n
        print_cycles = [0.0] * n
        outputs = [""] * n
        try:
            # ---- master: serial parse scan over every request (PARSE) ----
            master.set_phase(Phase.PARSE)
            # Nothing is charged between two requests, so each request's
            # closing reading is the next one's opening reading. The
            # phase opens uncharged, at an exact 0.0.
            c0 = 0.0
            # Each accepted request's text starts where its predecessors'
            # payload bytes end, separators included.
            address = self.input_region.base
            for i, (req, text, size, refusal) in enumerate(
                zip(requests, texts, sizes, refusals)
            ):
                out = OutputBuffer(base=self.output_region.base, capacity=capacity)
                env = req.env if req.env is not None else interp.global_env
                job = ServiceJob(None, env, out)
                jobs.append(job)
                if refusal is not None:
                    job.error = refusal
                    continue
                # A request whose parse tree alone exhausts the arena is
                # killed without poisoning its co-tenants.
                source = SourceBuffer(text, base=address)
                address += size
                job.plan, job.error = run_contained(
                    interp, master, interp.prepare_command, source, master
                )
                # A single command, or a plan that is one parallel form,
                # runs in master mode (such a form has no trace, so its
                # step is a tree). Read by attribute and index only: a
                # batch without such a form makes no call for the check.
                steps = job.plan.steps if job.error is None else None
                if single and steps is not None:
                    masters.append(i)
                elif steps and steps[-1] is steps[0] and steps[0].form is not None:
                    head = steps[0].form.first
                    if (
                        head is not None
                        and head.ntype is NodeType.N_SYMBOL
                        and head.sval in PARALLEL_HEADS
                    ):
                        masters.append(i)
                c1 = self.master_cycles(Phase.PARSE)
                parse_cycles[i] = c1 - c0
                c0 = c1
            # The phase's closing reading: nothing charges PARSE after it.
            parse_total = c0

            # ---- shared service rounds: workers evaluate tenants (EVAL) ----
            master.set_phase(Phase.EVAL)
            runnable = [
                i for i, job in enumerate(jobs)
                if job.error is None and i not in masters
            ]
            eval_cycles = [0.0] * n
            for i, cycles in zip(
                runnable,
                self.engine.run_service_batch(interp, [jobs[i] for i in runnable]),
            ):
                eval_cycles[i] = cycles
            # A request's lane is its worker time; a master-mode
            # request's is its rounds' wall.
            worker_cycles = eval_cycles
            if masters:
                worker_cycles = self._run_masters(jobs, masters, eval_cycles)

            # ---- master: print each request's results (PRINT) -------------
            # Like PARSE, the phase opens uncharged, at an exact 0.0.
            master.set_phase(Phase.PRINT)
            c0 = 0.0
            printer = self._printer
            for i, job in enumerate(jobs):
                if job.error is None and job.results is not None:
                    job.out.bind(master)
                    for j, result in enumerate(job.results):
                        if j:
                            job.out.append(" ")
                        printer.print_node(result, job.out, readable=True)
                    outputs[i] = job.out.getvalue()
                else:
                    outputs[i] = f"error: {job.error}"
                c1 = self.master_cycles(Phase.PRINT)
                print_cycles[i] = c1 - c0
                c0 = c1
            print_total = c0
        except Exception:
            self._abort_transaction()
            raise

        # One downstream transaction returns every tenant's output.
        self.cmdbuf.device_write_result(" ".join(outputs))
        _, down_ms = self.cmdbuf.host_download()

        gc = self._run_gc()
        batch_times = self._master_times(
            parse_total,
            print_total,
            gc_ms=gc[1],  # ONE collection per batch transaction
            transfer_ms=up_ms + down_ms + self.file_link.stats.transfer_ms,
            cache_hits=self.cache.stats.hits - cache_hits0,
            cache_misses=self.cache.stats.misses - cache_miss0,
        )
        cpm = self._cycles_per_ms
        own_ms = []
        for i in range(n):
            own_ms.append((
                parse_cycles[i] / cpm,
                eval_cycles[i] / cpm,
                print_cycles[i] / cpm,
                worker_cycles[i] / cpm,
            ))
        return self._batch_result(
            requests,
            texts,
            outputs,
            [job.error for job in jobs],
            own_ms,
            batch_times,
            gc,
            jit0,
            jobs=self.engine.jobs,
            rounds=self.engine.round_count,
            upload_ms=up_ms,
            download_ms=down_ms,
        )
