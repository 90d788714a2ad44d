#!/usr/bin/env python3
"""The repository benchmark: seeded serving workloads through ``CuLiServer``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload hot-repl --seed 1 --seconds 8 --trace 0

Workloads (``workloads.py``): ``zipf-fleet``, ``hot-repl``, ``bulk-mix``
and ``stateful-failover``. Each invocation is one fresh process running
one workload, so set-up includes the per-process capability probe and the
peak memory belongs to that workload alone.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
*Modeled* figures use the scheduler's virtual clock and repeat exactly
for one seed; *host* figures use this process's wall clock, corrected
for the host's speed (below).

* ``modeled_jobs_per_s``: completed requests / ``Scheduler.makespan_ms``.
* ``modeled_p50_ms``, ``modeled_p99_ms``: ``resolve_ms - arrival_ms`` over
  every SLO-bearing ticket, timed from the scheduled arrival; a
  percentile is reported only with ten samples beyond it.
* ``slo_met_frac``: SLO-bearing requests resolved correctly within their
  SLO; a failed or refused request is a miss.
* ``slo_capacity_rps``: the highest rung of a fixed ladder of arrival
  rates at which the workload keeps p99 within the SLO and keeps pace.
* ``bulk_elems_per_s``: gpu-map elements gathered / modeled time from the
  first bulk arrival to the last chunk resolve. A workload with no bulk
  job of its own runs one after its stream has drained.
* ``host_req_per_s``: completed requests / host seconds in submit, flush
  and gather; the median over the runs made in ``--seconds`` of run time
  (two at least), interleaved with the set-up probes and the ladder rungs.
* ``setup_s``: host seconds to build the server and open the sessions in
  a fresh process; the median of five processes.
* ``host_peak_rss_mb``: peak resident memory of the process, the host
  speed sampler's 11 MB included.

Host seconds are reference-host seconds (``hostspeed.py``): each span is
divided by how much slower than the reference host this host ran during
it, measured by a sampler on the program's CPU. The raw seconds are
printed beside them.

``failed_frac`` (requests that errored, were refused or printed a wrong
output, over requests submitted) is printed above the result and is
``failed / attempted`` in it.

``--trace 1`` alternates untraced and traced runs; the traced ones wrap
every layer boundary (``tracing.py``) and report per-layer call counts
and self time, modeled per-layer figures, ``trace.unattributed_frac`` and
``trace.overhead_frac``. The spans of the last traced run are written as
Chrome trace-event JSON under ``.perfbench-out/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The process exits non-zero,
without that line, when the run is invalid: the program is missing, a
percentile lacks samples, or two runs of one seed disagree on a modeled
figure, a call count or the transcript digest.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

#: SLO-capacity ladder per workload: the workload's own generator at
#: ``scale``, at fixed arrival rates (per modeled second) 6% apart, from a
#: quarter of the ``anchor`` rate to four times it. The anchor is the
#: capacity measured when the ladder was set; the search starts there.
LADDERS = {
    "zipf-fleet": (0.2, 454_492),
    "hot-repl": (1.0, 107_311),
    "bulk-mix": (1.0, 69_436),
    "stateful-failover": (0.25, 271_552),
}
#: Rungs below the anchor (1.06**-24 is about 1/4); as many above.
ANCHOR = 24

#: Fresh processes whose set-up time joins the main process's own.
SETUP_PROBES = 4

E2E_UNITS = {
    "modeled_jobs_per_s": "1/s",
    "modeled_p50_ms": "ms",
    "modeled_p99_ms": "ms",
    "slo_met_frac": "frac",
    "slo_capacity_rps": "1/s",
    "bulk_elems_per_s": "1/s",
    "host_req_per_s": "1/s",
    "setup_s": "s",
    "host_peak_rss_mb": "MB",
}


def _load_program() -> None:
    """Put the checkout's ``src`` and this directory on the import path."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.stderr.write(
            "perfbench: src/repro not found; run from the root of a "
            "checkout of the repository\n"
        )
        sys.exit(2)
    sys.path[:0] = [src, HERE]


def ladder(anchor: float) -> tuple[float, ...]:
    return tuple(float(round(anchor * 1.06**k)) for k in range(-ANCHOR, ANCHOR))


class Invalid(Exception):
    """The run broke the determinism or sampling contract."""


def _check_same(what: str, first, other) -> None:
    if first != other:
        raise Invalid(f"two runs of one seed disagree on {what}: {first!r} != {other!r}")


def _iterate(workload, seconds: float, at_least: int, run) -> list:
    """Run ``run(workload)`` until ``seconds`` of wall time have passed."""
    out = []
    start = time.perf_counter()
    while len(out) < at_least or time.perf_counter() - start < seconds:
        out.append(run(workload))
        gc.collect()
    return out


def _check_iterations(its: list) -> None:
    for it in its[1:]:
        _check_same("modeled metrics", its[0].modeled, it.modeled)
        _check_same("per-layer counters", its[0].layers, it.layers)
        _check_same("the transcript digest", its[0].digest, it.digest)


def _setup_probe(name: str, seed: int) -> float:
    """Set-up reference seconds measured in a fresh process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise Invalid(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def _ladder_run(harness, workloads, name: str, seed: int, rate: float):
    scale, _ = LADDERS[name]
    it = harness.run_once(
        workloads.generate(name, seed, scale=scale, rate_per_s=rate), bulk_probe=False
    )
    if it.failed:
        raise Invalid(f"{it.failed} requests failed on the SLO ladder at {rate:g}/s")
    return it


def _slo_capacity(harness, workloads, name: str, seed: int):
    """Search the fixed ladder for the highest rung that meets the SLO
    without a growing backlog (assumes a rung that passes implies every
    lower rung passes).

    The backlog does not grow while the fleet keeps pace with arrivals:
    it finishes within 1/0.9 of the time the last request arrived, that
    is, it completes work at 90% or more of the offered rate.

    The search gallops away from the anchor rung in doubling steps until
    it brackets the boundary, then bisects: two runs when the capacity
    has not moved, about 2*log2(distance) when it has. When even the
    bottom rung misses, the bottom rung is reported; when the top rung
    passes, the top rung.

    A generator that yields after each rung it runs and returns the rate
    and the rungs probed.
    """
    rungs = ladder(LADDERS[name][1])
    probed = []
    verdicts: dict[int, bool] = {}

    def probe(k: int) -> bool:
        m = _ladder_run(harness, workloads, name, seed, rungs[k]).modeled
        ok = (
            m["modeled_p99_ms"] <= workloads.SLO_MS
            and m["makespan_ms"] <= m["last_arrival_ms"] / 0.9
        )
        probed.append((rungs[k], m["modeled_p99_ms"], m["last_arrival_ms"] / m["makespan_ms"], ok))
        verdicts[k] = ok
        return ok

    up = probe(ANCHOR)
    yield
    step = 1
    while 0 <= (k := ANCHOR + step if up else ANCHOR - step) < len(rungs):
        ok = probe(k)
        yield
        if ok != up:
            break
        step *= 2
    # rungs[lo] passes (lo = -1: none does); rungs[hi:] fail.
    lo = max((k for k, ok in verdicts.items() if ok), default=-1)
    hi = min((k for k, ok in verdicts.items() if not ok), default=len(rungs))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probe(mid):
            lo = mid
        else:
            hi = mid
        yield
    return rungs[max(lo, 0)], sorted(probed)


def _host_rates(its: list, speed) -> list[float]:
    """Completed requests per reference-host second of each run."""
    return [it.completed / speed.ref_seconds(*it.host_at) for it in its]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(args, harness, workloads, speed) -> dict:
    workload = workloads.generate(args.workload, args.seed)
    side: dict = {"setups": []}

    def side_work():
        for _ in range(SETUP_PROBES):
            side["setups"].append(_setup_probe(args.workload, args.seed))
            yield
        side["ladder"] = yield from _slo_capacity(harness, workloads, args.workload, args.seed)

    # The set-up probes and the SLO ladder run one step between measured
    # runs, so the host samples spread over the whole invocation: this
    # host's speed drifts over seconds, and one stretch of it is a biased
    # sample. Two runs at least, for the determinism gate; only the first
    # carries the trailing gpu-map job.
    steps = side_work()
    its: list = []
    spent = 0.0
    while len(its) < 2 or spent < args.seconds:
        t0 = time.perf_counter()
        its.append(harness.run_once(workload, bulk_probe=not its))
        gc.collect()
        spent += time.perf_counter() - t0
        next(steps, None)
    for _ in steps:
        pass
    _check_iterations(its)
    capacity, probed = side["ladder"]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [speed.ref_seconds(*its[0].setup_at)] + side["setups"]
    m = its[0].modeled
    values = {
        "modeled_jobs_per_s": m["modeled_jobs_per_s"],
        "modeled_p50_ms": m["modeled_p50_ms"],
        "modeled_p99_ms": m["modeled_p99_ms"],
        "slo_met_frac": m["slo_met_frac"],
        "slo_capacity_rps": capacity,
        "bulk_elems_per_s": m.get("bulk_elems_per_s", its[0].trailing_bulk),
        "host_req_per_s": statistics.median(_host_rates(its, speed)),
        "setup_s": statistics.median(setups),
        "host_peak_rss_mb": rss_mb,
    }
    it = its[0]
    print(f"workload {args.workload} seed {args.seed}: {len(its)} runs, "
          f"{it.attempted} requests each, {m['latency_samples']} SLO-bearing latency samples")
    print(f"failed_frac {it.failed / it.attempted:.6f}  digest {it.digest[:16]}")
    print("host seconds per run (raw/reference): " + " ".join(
        f"{x.host_at[1] - x.host_at[0]:.3f}/{speed.ref_seconds(*x.host_at):.3f}" for x in its))
    for rate, p99, pace, ok in probed:
        print(f"  ladder {rate:>10.0f}/s  p99 {p99:9.4f} ms  pace {pace:.3f}  "
              f"{'meets' if ok else 'misses'} the SLO")
    rungs = ladder(LADDERS[args.workload][1])
    if capacity == rungs[-1]:
        print("  the top ladder rung passes: slo_capacity_rps is capped there")
    elif capacity == rungs[0] and not any(ok for *_, ok in probed):
        print("  even the bottom ladder rung misses: slo_capacity_rps is floored there")
    for name, value in values.items():
        n = f"  (n={m['latency_samples']})" if name in ("modeled_p50_ms", "modeled_p99_ms") else ""
        print(f"{name:<20} {value:.6g} {E2E_UNITS[name]}{n}")
    return {
        "correct": all(x.failed == 0 for x in its),
        "attempted": it.attempted,
        "failed": it.failed,
        "metrics": {name: _metric(v, E2E_UNITS[name]) for name, v in values.items()},
    }


def run_traced(args, harness, workloads, speed) -> dict:
    from tracing import Tracer

    workload = workloads.generate(args.workload, args.seed)
    tracer = Tracer()
    marks: dict = {}
    summaries = []

    def observe(phase: str) -> None:
        if phase == "setup":
            tracer.reset()
        marks[phase] = time.perf_counter_ns()

    def pair(w):
        # Untraced then traced, alternating, so that drift in the host's
        # speed weighs on both sides of the overhead ratio alike. The first
        # untraced run also warms the per-process capability cache.
        plain = harness.run_once(w, bulk_probe=False)
        tracer.install()
        try:
            traced = harness.run_once(w, observe=observe, bulk_probe=False)
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary((marks["start"], marks["stop"])))
        return plain, traced

    pairs = _iterate(workload, args.seconds, 2, pair)
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    _check_iterations(plain + traced)
    calls = {k: v for k, v in summaries[0].items() if k.endswith(".calls")}
    for s in summaries[1:]:
        _check_same("per-layer call counts", calls, {k: v for k, v in s.items() if k.endswith(".calls")})
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.trace.json")
    tracer.write_chrome_trace(trace_path)

    metrics: dict = {}
    for key in summaries[0]:
        values = [s[key] for s in summaries]
        metrics[key] = statistics.mean(values) if key.endswith(("self_s", "_frac")) else values[0]
    metrics.update(traced[0].layers)
    untraced_rps = statistics.median(_host_rates(plain, speed))
    traced_rps = statistics.median(_host_rates(traced, speed))
    metrics["trace.overhead_frac"] = 1.0 - traced_rps / untraced_rps
    print(f"workload {args.workload} seed {args.seed}: {len(pairs)} untraced and "
          f"{len(pairs)} traced runs; spans of the last run in {os.path.relpath(trace_path, ROOT)}")
    for name, value in metrics.items():
        print(f"{name:<48} {value:.6g} {layer_unit(name)}")
    it = traced[0]
    return {
        "correct": all(x.failed == 0 for x in plain + traced),
        "attempted": it.attempted,
        "failed": it.failed,
        "metrics": {name: _metric(v, layer_unit(name)) for name, v in metrics.items()},
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac") or name.endswith("batch_fill") or name.endswith("utilization_spread"):
        return "frac"
    if name.endswith("bytes"):
        return "B"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _load_program()
    import harness
    import hostspeed
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}: one of {sorted(workloads.WORKLOADS)}")
    hostspeed.pin_to_one_cpu()
    if args.setup_probe:
        workload = workloads.generate(args.workload, args.seed)
        with hostspeed.Sampler() as speed:
            t0 = time.perf_counter()
            servers, _ = harness.build(workload)
            t1 = time.perf_counter()
        print(speed.ref_seconds(t0, t1))
        for server in servers:
            server.close()
        return 0
    try:
        with hostspeed.Sampler() as speed:
            result = (run_traced if args.trace else run_untraced)(args, harness, workloads, speed)
    except (Invalid, harness.BenchmarkError) as exc:
        sys.stderr.write(f"perfbench: invalid run: {exc}\n")
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
