"""Per-layer spans, recorded from outside the program.

The tracer wraps the public entry point of each layer by patching class
attributes (and module-level names where the caller resolves them) for
the duration of a traced run, then restores them. Each call becomes one
span ``(name, start_ns, end_ns, parent, batch)`` kept in memory:
``parent`` is the index of the enclosing span (-1 at the top) and
``batch`` the number of the ``Scheduler.dispatch`` call the span ran
under (-1 outside any batch). A layer's self time is its spans' duration
minus the part covered by child spans.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from collections import defaultdict

__all__ = ["BOUNDARIES", "Tracer"]

#: ``(span name, module, class or None for a module-level name, attribute)``.
#: Where a caller imported a function into its own module, the name is
#: patched there, because that is where the call resolves it.
BOUNDARIES = (
    ("serve.pool.place", "repro.serve.pool", "DevicePool", "place_session"),
    ("serve.scheduler.form_batch", "repro.serve.scheduler", "Scheduler", "form_batch_async"),
    ("serve.scheduler.dispatch", "repro.serve.scheduler", "Scheduler", "dispatch"),
    ("serve.scheduler.rebalance", "repro.serve.scheduler", "Rebalancer", "at_safe_point"),
    ("serve.supervisor.safe_point", "repro.serve.supervisor", "DeviceSupervisor", "at_safe_point"),
    ("serve.checkpoint.checkpoint", "repro.serve.checkpoint", "CheckpointStore", "checkpoint"),
    ("runtime.snapshot.restore", "repro.serve.supervisor", None, "restore_env"),
    ("runtime.snapshot.restore", "repro.serve.server", None, "restore_env"),
    ("serve.bulk.shard", "repro.serve.server", None, "shard_bulk_job"),
    ("serve.bulk.gather", "repro.serve.bulk", "BulkJob", "result"),
    ("serve.stats.record", "repro.serve.stats", "ServerStats", "record_*"),
    ("serve.timeline.charge", "repro.serve.timeline", "DevicePipeline", "charge"),
    ("gpu.device.init", "repro.gpu.device", "GPUDevice", "__init__"),
    ("gpu.device.submit_batch", "repro.gpu.device", "GPUDevice", "submit_batch"),
    ("cpu.device.submit_batch", "repro.cpu.device", "CPUDevice", "submit_batch"),
    ("gpu.kernel.service_batch", "repro.gpu.kernel", "GPUParallelEngine", "run_service_batch"),
    ("gpu.kernel.parallel", "repro.gpu.kernel", "GPUParallelEngine", "__call__"),
    ("core.reader.prepare", "repro.core.interpreter", "Interpreter", "prepare_command"),
    ("jit.compiler.compile", "repro.jit.compiler", None, "compile_form"),
    # Split by the step: a trace step runs on the JIT, any other tree-walks.
    ("jit.executor.trace|core.evaluator.walk", "repro.core.interpreter", "Interpreter", "run_plan_step"),
    ("core.printer.print", "repro.core.printer", "Printer", "print_node"),
    # Interpreter.collect_garbage/collect_major and the devices' per-batch
    # collection all resolve these two names in repro.core.gc.
    ("core.gc.collect", "repro.core.gc", None, "collect_garbage"),
    ("core.gc.collect", "repro.core.gc", None, "collect_major"),
)

#: Every boundary's span name, in table order.
SPAN_NAMES = tuple(
    dict.fromkeys(n for names, *_ in BOUNDARIES for n in names.split("|"))
)


class Tracer:
    """Installs span wrappers; collects spans and boundary counters."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._batch = -1
        self._batches = 0
        self._undo: list = []
        self._last_batch: list = []
        #: Σ len(pdev.queue) at each form_batch entry.
        self.queue_scanned = 0
        #: Modeled wait of each charged ticket: batch upload start - arrival.
        self.queue_waits: list[float] = []

    # -- install / uninstall ---------------------------------------------------------

    def install(self) -> None:
        for names, module_name, cls_name, attr in BOUNDARIES:
            module = importlib.import_module(module_name)
            owner = getattr(module, cls_name) if cls_name else module
            attrs = (
                [a for a in vars(owner) if a.startswith("record_")]
                if attr == "record_*"
                else [attr]
            )
            for a in attrs:
                original = vars(owner)[a]
                self._undo.append((owner, a, original))
                setattr(owner, a, self._wrap(names, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self._batch = -1
        self._last_batch = []
        self.queue_scanned = 0
        self.queue_waits.clear()

    def _wrap(self, names: str, attr: str, original):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        if "|" in names:
            traced, walked = names.split("|")

            def name_of(args):
                return traced if args[1].trace is not None else walked
        else:

            def name_of(args):
                return names

        def wrapper(*args, **kwargs):
            name = name_of(args)
            if attr == "form_batch_async":
                self.queue_scanned += len(args[1].queue)
            prior_batch = self._batch
            if attr == "dispatch":
                self._batches += 1
                self._batch = self._batches
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._batch)
                self._batch = prior_batch
            if attr == "form_batch_async":
                self._last_batch = result
            elif attr == "charge":
                begin = args[0].last.upload_start_ms
                self.queue_waits.extend(
                    begin - t.arrival_ms for t in self._last_batch if not t.replay
                )
            return result

        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        return wrapper

    # -- analysis -----------------------------------------------------------------

    def summary(self, window_ns: tuple[int, int]) -> dict:
        """Calls and self seconds per span name, plus the share of the
        host-timed window that no span covers."""
        spans = self.spans
        child = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        covered = 0
        lo, hi = window_ns
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            self_ns[name] += end - start - child[i]
            if parent < 0 and start >= lo and end <= hi:
                covered += end - start
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_ns.get(name, 0) / 1e9
        out["serve.scheduler.form_batch.queue_scanned"] = self.queue_scanned
        waits = sorted(self.queue_waits)
        out["serve.timeline.queue_wait_p99_ms"] = (
            waits[max(0, math.ceil(0.99 * len(waits)) - 1)] if waits else 0.0
        )
        out["trace.unattributed_frac"] = 1.0 - covered / max(1, hi - lo)
        return out

    def write_chrome_trace(self, path) -> None:
        """Write the spans as Chrome trace-event JSON (Perfetto opens it)."""
        if not self.spans:
            return
        t0 = min(s[1] for s in self.spans)
        events = [
            {
                "name": name,
                "cat": name.rsplit(".", 1)[0],
                "ph": "X",
                "ts": (start - t0) / 1000.0,
                "dur": (end - start) / 1000.0,
                "pid": 1,
                "tid": 1,
                "args": {"parent": parent, "batch": batch},
            }
            for name, start, end, parent, batch in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
