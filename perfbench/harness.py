"""Drive one workload through the public ``CuLiServer`` API and measure it.

A run builds the fleet and opens one session per tenant (set-up), then
submits every request in arrival order, flushes once and reads every
output (the host-timed part). All modeled figures come from the tickets
and the scheduler's virtual clock; a run records the ``time.perf_counter``
span of each part, which the caller turns into host seconds.

A workload whose fleet has several cells runs one server per cell,
side by side on the virtual clock; tenant ``t`` lives in cell
``t % cells``.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Optional

from repro import CuLiServer
from repro.errors import AdmissionError, CuLiError
from repro.serve.chaos import ChaosMonkey

from workloads import BulkRequest, Workload

__all__ = ["BenchmarkError", "Iteration", "build", "run_once", "percentile"]

#: Size of the gpu-map job a workload without bulk jobs of its own runs
#: after its stream has drained, so every workload reports the bulk path.
TRAILING_BULK_ELEMS = 2048


class BenchmarkError(RuntimeError):
    """The run is invalid: its figures must not be reported."""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; refuses unless ten samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < 10:
        raise BenchmarkError(
            f"p{q * 100:g} needs ten samples beyond it; only {len(ordered)} samples"
        )
    return ordered[rank - 1]


@dataclass
class Iteration:
    """What one run of a workload measured."""

    #: ``time.perf_counter`` at the start and end of set-up, and of the
    #: host-timed submit + flush + gather.
    setup_at: tuple[float, float]
    host_at: tuple[float, float]
    attempted: int
    failed: int
    completed: int
    #: Modeled (virtual-clock) end-to-end figures: identical for one seed.
    modeled: dict = field(default_factory=dict)
    #: Modeled per-layer figures and counts read off the servers.
    layers: dict = field(default_factory=dict)
    digest: str = ""
    #: bulk_elems_per_s of the trailing gpu-map job, when one ran.
    trailing_bulk: Optional[float] = None


def build(workload: Workload) -> tuple[list[CuLiServer], list]:
    """Build each cell's fleet and open one session per tenant."""
    fleet = workload.fleet
    per_tenant = [0] * len(workload.slos)
    for req in workload.requests:
        per_tenant[req.tenant] += 1
    servers = []
    for cell in range(fleet.cells):
        chaos = (
            ChaosMonkey(seed=fleet.chaos_seed + cell, kill_rate=fleet.kill_rate)
            if fleet.kill_rate
            else None
        )
        # Every option is passed explicitly so that REPRO_SERVE_* variables
        # in the environment cannot change the configuration being measured.
        servers.append(CuLiServer(
            devices=list(fleet.devices),
            jit=True,
            scheduler="async",
            placement="cost",
            rebalance=fleet.rebalance,
            failover=fleet.failover,
            chaos=chaos,
            # The whole stream is queued before one flush, so the admission
            # cap must hold a tenant's whole stream (and the bulk chunks).
            max_session_queue=max(per_tenant + [64]) + 16 * max(1, len(workload.bulk)),
        ))
    sessions = [
        servers[t % fleet.cells].open_session(name=f"t{t}", slo_ms=slo)
        for t, slo in enumerate(workload.slos)
    ]
    return servers, sessions


def _submit_all(server: CuLiServer, sessions: list, workload: Workload):
    """Submit tenant requests and bulk jobs (to the first cell) interleaved
    by arrival."""
    tickets: list = []
    jobs: list = []
    bulk = workload.bulk
    k = 0
    for req in workload.requests:
        while k < len(bulk) and bulk[k].arrival_ms <= req.arrival_ms:
            jobs.append(_submit_bulk(server, bulk[k]))
            k += 1
        try:
            tickets.append(sessions[req.tenant].submit(req.text, arrival_ms=req.arrival_ms))
        except AdmissionError:
            tickets.append(None)
    for b in bulk[k:]:
        jobs.append(_submit_bulk(server, b))
    return tickets, jobs


def _submit_bulk(server: CuLiServer, b: BulkRequest) -> Optional[object]:
    try:
        return server.submit_bulk(b.fn_text, b.elements, arrival_ms=b.arrival_ms)
    except AdmissionError:
        return None


def _gather(job) -> Optional[str]:
    if job is None:
        return None
    try:
        return job.result()
    except CuLiError:
        return None


def _bulk_rate(specs, jobs, gathered) -> float:
    """gpu-map elements gathered per modeled second, first bulk arrival
    to last chunk resolve."""
    elems = sum(len(s.elements) for s, g in zip(specs, gathered) if g == s.expected)
    first = min(s.arrival_ms for s in specs)
    last = max(
        c.ticket.resolve_ms for j in jobs if j is not None for c in j.chunks
    )
    return elems / ((last - first) / 1000.0)


def run_once(workload: Workload, observe=None, bulk_probe: bool = True) -> Iteration:
    """Set up, run and check one workload; returns its measurements.

    ``observe(phase)`` is called with ``"setup"``, ``"start"`` and
    ``"stop"`` around the parts of the run (the tracer uses it).
    ``bulk_probe`` runs the trailing gpu-map job on a workload that has
    no bulk jobs of its own.
    """
    if observe:
        observe("setup")
    t0 = time.perf_counter()
    servers, sessions = build(workload)
    t1 = time.perf_counter()
    if observe:
        observe("start")
    t2 = time.perf_counter()
    tickets, jobs = _submit_all(servers[0], sessions, workload)
    for server in servers:
        server.flush()
    outputs = [t.output if t is not None and t.ok else None for t in tickets]
    gathered = [_gather(j) for j in jobs]
    t3 = time.perf_counter()
    if observe:
        observe("stop")
    try:
        it = _measure(servers, workload, tickets, outputs, jobs, gathered)
        it.setup_at = (t0, t1)
        it.host_at = (t2, t3)
        if bulk_probe and not workload.bulk:
            it.trailing_bulk = _trailing_bulk(servers[0], workload)
    finally:
        for server in servers:
            server.close()
    return it


def _trailing_bulk(server: CuLiServer, workload: Workload) -> float:
    """One gpu-map job submitted after the stream drained (not host-timed)."""
    elements = tuple((workload.seed * 7 + i) % 97 + 1 for i in range(TRAILING_BULK_ELEMS))
    spec = BulkRequest(
        server.scheduler.makespan_ms,
        "(lambda (x) (+ (* x x) 1))",
        elements,
        "(" + " ".join(str(x * x + 1) for x in elements) + ")",
    )
    job = _submit_bulk(server, spec)
    server.flush()
    gathered = _gather(job)
    if gathered != spec.expected:
        raise BenchmarkError("the trailing gpu-map job returned a wrong result")
    return _bulk_rate([spec], [job], [gathered])


def _measure(servers, workload, tickets, outputs, jobs, gathered) -> Iteration:
    failed = 0
    latencies: list[float] = []
    slo_total = slo_met = 0
    transcripts: dict[int, list[str]] = {}
    for req, ticket, out in zip(workload.requests, tickets, outputs):
        ok = out == req.expected
        failed += not ok
        transcripts.setdefault(req.tenant, []).append(out if ok else f"!{out}")
        slo = workload.slos[req.tenant]
        if slo is None:
            continue
        slo_total += 1
        if ticket is not None and ticket.resolve_ms is not None:
            latency = ticket.resolve_ms - ticket.arrival_ms
            latencies.append(latency)
            slo_met += ok and latency <= slo
    for spec, out in zip(workload.bulk, gathered):
        failed += out != spec.expected
    attempted = workload.size
    completed = attempted - failed
    # Cells serve side by side: the deployment is done when the last is.
    makespan_ms = max(s.scheduler.makespan_ms for s in servers)

    digest = hashlib.sha256()
    for tenant in sorted(transcripts):
        digest.update(f"{tenant}:".encode())
        digest.update("\x1f".join(transcripts[tenant]).encode())
        digest.update(b"\x1e")
    for out in gathered:
        digest.update(str(out).encode())
        digest.update(b"\x1e")

    modeled = {
        "modeled_jobs_per_s": completed / (makespan_ms / 1000.0),
        "modeled_p50_ms": percentile(latencies, 0.50),
        "modeled_p99_ms": percentile(latencies, 0.99),
        "latency_samples": len(latencies),
        "slo_met_frac": slo_met / slo_total,
        "makespan_ms": makespan_ms,
        "last_arrival_ms": max(r.arrival_ms for r in workload.requests),
    }
    if workload.bulk:
        modeled["bulk_elems_per_s"] = _bulk_rate(workload.bulk, jobs, gathered)
    return Iteration(
        setup_at=(0.0, 0.0),
        host_at=(0.0, 0.0),
        attempted=attempted,
        failed=failed,
        completed=completed,
        modeled=modeled,
        layers=_layer_counters(servers),
        digest=digest.hexdigest(),
    )


def _layer_counters(servers: list[CuLiServer]) -> dict:
    """Modeled per-layer figures and exact counts, read after a run and
    summed over the cells."""
    total: dict = {}

    def add(key, value):
        total[key] = total.get(key, 0) + value

    pipes = []
    for server in servers:
        stats = server.stats
        phases = stats.phase_totals
        pipes += server.scheduler.pipelines.values()
        for pdev in server.pool.devices.values():
            cache = pdev.device.interp.parse_cache
            if cache is not None:
                add("cache_hits", cache.stats.hits)
                add("cache_lookups", cache.stats.hits + cache.stats.misses)
        for d in stats.per_device.values():
            add(f"{d.kind}.device.modeled_ms", d.busy_ms)
            add("gpu.kernel.jobs", d.jobs)
        add("batched", stats.batch_size_sum)
        add("batch_slots", stats.batches * server.scheduler.max_batch)
        add("serve.scheduler.migrations", stats.sessions_migrated)
        add("serve.supervisor.devices_lost", stats.devices_lost)
        add("shipped", stats.checkpoints_shipped)
        add("checkpoints", stats.checkpoints_shipped + stats.checkpoints_skipped)
        add("serve.checkpoint.bytes", stats.checkpoint_bytes)
        add("runtime.snapshot.restore.bytes", stats.migration_bytes + stats.failover_restore_bytes)
        add("trace_hits", stats.jit_trace_hits)
        add("trace_runs", stats.jit_trace_hits + stats.jit_guard_bails)
        add("core.reader.parse_ms", phases.parse_ms)
        add("jit.compiler.traces_compiled", stats.jit_traces_compiled)
        add("core.evaluator.eval_ms", phases.eval_ms)
        add("core.printer.print_ms", phases.print_ms)
        add("core.gc.gc_ms", phases.gc_ms)
        add("core.gc.major_collections", stats.gc_major_collections)

    def frac(num, den):
        return total.get(num, 0) / total[den] if total.get(den) else 0.0

    utils = [p.utilization for p in pipes]
    return {
        "serve.scheduler.batch_fill": frac("batched", "batch_slots"),
        "serve.scheduler.migrations": total["serve.scheduler.migrations"],
        "serve.supervisor.devices_lost": total["serve.supervisor.devices_lost"],
        "serve.checkpoint.shipped_frac": frac("shipped", "checkpoints"),
        "serve.checkpoint.bytes": total["serve.checkpoint.bytes"],
        "runtime.snapshot.restore.bytes": total["runtime.snapshot.restore.bytes"],
        "serve.timeline.overlap_ms": sum(p.overlap_ms for p in pipes),
        "serve.timeline.utilization_spread": max(utils) - min(utils) if utils else 0.0,
        "gpu.device.modeled_ms": total.get("gpu.device.modeled_ms", 0.0),
        "cpu.device.modeled_ms": total.get("cpu.device.modeled_ms", 0.0),
        "gpu.kernel.jobs": total["gpu.kernel.jobs"],
        "runtime.parse_cache.hit_frac": frac("cache_hits", "cache_lookups"),
        "core.reader.parse_ms": total["core.reader.parse_ms"],
        "jit.compiler.traces_compiled": total["jit.compiler.traces_compiled"],
        "jit.executor.hit_frac": frac("trace_hits", "trace_runs"),
        "core.evaluator.eval_ms": total["core.evaluator.eval_ms"],
        "core.printer.print_ms": total["core.printer.print_ms"],
        "core.gc.gc_ms": total["core.gc.gc_ms"],
        "core.gc.major_collections": total["core.gc.major_collections"],
    }
