"""The simulated CPU device (the paper's pthreads build of CuLi).

Same interpreter, same REPL protocol, no PCIe: the "command buffer" is
ordinary shared memory, so transfer time is zero and the per-command
overhead is a condition-variable wake instead of a mapped-memory
handshake. Base latency is just arena allocation + global environment
construction (no CUDA context), which is why the paper's CPUs start
>30x faster than any GPU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..context import CountingContext
from ..core.interpreter import Interpreter, InterpreterOptions
from ..gpu.fileio import HostFileSystem, InMemoryFileService
from ..gpu.hostlink import gate_request
from ..ops import Phase
from ..runtime.batch import BatchDevice, BatchRequest, BatchResult, run_contained
from ..runtime.fidelity import Fidelity
from ..timing import PhaseBreakdown
from .pool import CPUParallelEngine, wave_schedule
from .specs import CPUSpec

__all__ = ["CPUDevice", "CPUDeviceConfig"]


@dataclass
class CPUDeviceConfig:
    fidelity: Fidelity = Fidelity.WARP
    interpreter: Optional[InterpreterOptions] = None


class CPUDevice(BatchDevice):
    """One CuLi instance running on a simulated multicore CPU."""

    def __init__(self, spec: CPUSpec, config: Optional[CPUDeviceConfig] = None) -> None:
        super().__init__(spec, config or CPUDeviceConfig())
        self.master_ctx = CountingContext(
            max_depth=spec.max_recursion_depth, thread_id=0
        )
        self.master_ctx.set_phase(Phase.OTHER)
        interp_options = self.config.interpreter or InterpreterOptions()
        self.interp = Interpreter(options=interp_options, setup_ctx=self.master_ctx)
        self._setup_cycles = self.master_cycles(Phase.OTHER)
        self.engine = CPUParallelEngine(self)
        self.interp.parallel_engine = self.engine
        # Host and device share memory: file I/O is a direct call.
        self.filesystem = HostFileSystem()
        self.interp.file_service = InMemoryFileService(self.filesystem)
        self.master_ctx.set_phase(Phase.EVAL)

    # -- lifecycle ----------------------------------------------------------------

    @property
    def base_latency_ms(self) -> float:
        """Process setup + env build + teardown (no CUDA context)."""
        return self.spec.setup_us / 1000.0 + self.spec.cycles_to_ms(self._setup_cycles)

    @property
    def kind(self) -> str:
        return "cpu"

    def close(self) -> None:
        self._closed = True

    # -- command execution -------------------------------------------------------------

    def submit_batch(
        self, requests: Sequence[BatchRequest], *, single: bool = False
    ) -> BatchResult:
        """Run many tenants' commands as one batched transaction.

        On the CPU there is no PCIe and no lockstep: each request runs
        start-to-finish (parse/eval/print) on its own pthread, and the
        batch executes in waves of ``hw_threads`` concurrent requests —
        wave wall time is the slowest request in the wave. The
        condition-variable wake (``command_overhead_us``) is paid once
        per batch instead of once per command.

        ``single`` (set only by
        :meth:`~repro.runtime.batch.BatchDevice.submit`) runs the one
        request on the master thread, whose ``|||`` rows the pool runs
        in waves: the transaction's times are the master's phases, its
        jobs and rounds the pool's, and a refused command raises before
        anything runs.

        Failure containment is the GPU path's: each request runs through
        :func:`~repro.runtime.batch.run_contained`, so Lisp-level errors
        and containable device faults (arena exhaustion, per-job
        livelock) kill only their request — with the request's nursery
        allocations rolled back to a per-request watermark — while
        device-fatal errors abort the batch but leave the device usable.
        """
        self._check_lost()
        requests = list(requests)
        n = len(requests)
        if n == 0:
            return BatchResult()
        # The upload gate with no command buffer: a CPU packs nothing.
        texts, _, refusals = zip(*[gate_request(r.text, None) for r in requests])
        if single and refusals[0] is not None:
            raise refusals[0]
        interp = self.interp
        master = self.master_ctx
        if single:
            master.reset()

        engine = self.engine
        engine.begin_command()
        jit0 = self._jit_counts()
        # One nursery region for the whole batch; collection runs once
        # per batch wave-set, never per request.
        interp.begin_command_region()

        outputs = [""] * n
        errors: list[Optional[Exception]] = [None] * n
        rows: list[list[float]] = []  # each request's parse, eval, print rows
        nested_walls = [0.0] * n
        process = interp.process
        global_env = interp.global_env
        max_depth = self.spec.max_recursion_depth

        try:
            for i, (req, text, refusal) in enumerate(zip(requests, texts, refusals)):
                rctx = master if single else CountingContext(max_depth, i)
                env = req.env if req.env is not None else global_env
                nested_wall0 = engine.worker_wall_cycles
                if refusal is None:
                    # process() reads the text through a SourceBuffer and
                    # prints into an OutputBuffer of its own.
                    output, error = run_contained(
                        interp, rctx, process, text, rctx, env
                    )
                else:
                    output, error = None, refusal
                if error is not None:
                    output = f"error: {error}"
                    errors[i] = error
                outputs[i] = output
                nested_walls[i] = engine.worker_wall_cycles - nested_wall0
                rows += rctx.counts.rows[:3]
        except Exception:
            self._abort_transaction()
            raise

        # Every request's rows in one conversion, one dot per row.
        cycles = self.spec.costs.row_cycles(rows)
        phase_cycles = [
            (cycles[k], cycles[k + 1] + nested, cycles[k + 2])
            for k, nested in zip(range(0, 3 * n, 3), nested_walls)
        ]
        # sum(), not a + b + c: from Python 3.12 it sums floats compensated.
        job_cycles = np.array([sum(pc) for pc in phase_cycles])

        gc = self._run_gc()

        to_ms = self.spec.cycles_to_ms
        if single:
            # The master ran the command and the pool its ||| rows.
            batch_times = self._master_times(
                self.master_cycles(Phase.PARSE), self.master_cycles(Phase.PRINT), gc[1]
            )
            jobs, rounds = engine.jobs, engine.round_count
        else:
            wall_cycles, waves = wave_schedule(job_cycles, self.spec.hw_threads)
            total_cycles = float(job_cycles.sum())
            # The batch's kernel wall time keeps each phase's share of the
            # summed work (phases interleave across concurrent threads).
            shrink = wall_cycles / total_cycles if total_cycles > 0 else 0.0
            parse_sum, eval_sum, print_sum = (
                sum(column) for column in zip(*phase_cycles)
            )
            batch_times = PhaseBreakdown(
                parse_ms=to_ms(parse_sum * shrink),
                eval_ms=to_ms(eval_sum * shrink),
                print_ms=to_ms(print_sum * shrink),
                other_ms=self.spec.command_overhead_us / 1000.0,  # ONE wake
                host_ms=self._HOST_LOOP_MS,
                gc_ms=gc[1],  # ONE collection per batch
                worker_ms=to_ms(wall_cycles),
            )
            jobs = engine.jobs + errors.count(None)
            rounds = engine.round_count + waves
        own_ms = [
            (to_ms(p), to_ms(e), to_ms(r), to_ms(cycles))
            for (p, e, r), cycles in zip(phase_cycles, job_cycles)
        ]
        return self._batch_result(
            requests,
            texts,
            outputs,
            errors,
            own_ms,
            batch_times,
            gc,
            jit0,
            jobs=jobs,
            rounds=rounds,
        )
