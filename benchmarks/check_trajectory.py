"""Perf-trajectory gate: diff fresh bench JSON against committed baselines.

Every bench run with ``--json-out DIR`` drops machine-readable
``BENCH_<module>.json`` files, but those are gitignored and CI only
*uploads* them — so until this gate existed the repo's perf history was
empty and a modeled-performance regression could land silently. The fix:
committed snapshots of the simulated metrics (all seeded and
deterministic), one per baseline *family*, diffed against every fresh
run by the perf-smoke job:

* ``serve`` — ``benchmarks/baselines/BENCH_serve.json``: the
  homogeneous serve-layer family (throughput, rebalance, failover,
  continuous batching).
* ``hetero`` — ``benchmarks/baselines/BENCH_hetero.json``: the mixed
  GPU+CPU fleet family (capability-aware placement on the 10k-session
  replay harness).
* ``bulk`` — ``benchmarks/baselines/BENCH_bulk.json``: the data-parallel
  ``gpu-map`` family (fleet sharding vs one device, interactive p99
  under a co-running bulk job).
* ``core`` — ``benchmarks/baselines/BENCH_core.json``: the interpreter
  core family (the paper's Figs. 14-18 per-phase figures, a full device
  command, the JIT and GC benches), which a reader, evaluator or
  collector change must not move.

Check a fresh run (exit 1 on drift beyond tolerance)::

    python benchmarks/check_trajectory.py bench-results

Rebuild one family's baseline after an *intentional* model change::

    python benchmarks/check_trajectory.py bench-results --rebuild --family hetero

Because every number in the snapshots is simulated (modeled device ms,
modeled jobs/s — never host wall time), the default tolerance is a
tight 5%: honest drift, not noise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

#: Bench modules whose points feed the serve-family baseline.
SERVE_MODULES = ("serve_throughput", "rebalance", "failover", "continuous_batching")
#: Bench modules whose points feed the heterogeneous-fleet baseline.
HETERO_MODULES = ("hetero_fleet",)
#: Bench modules whose points feed the bulk gpu-map baseline.
BULK_MODULES = ("gpu_map",)
#: Bench modules whose points feed the interpreter-core baseline.
CORE_MODULES = (
    "fig14_base_latency", "fig15_runtime", "fig16_phases", "fig17_proportions",
    "fig18_cpu_proportions", "interpreter", "jit", "gc",
)

_BASELINE_DIR = os.path.join(os.path.dirname(__file__), "baselines")

#: family name -> (bench modules, committed baseline snapshot).
FAMILIES = {
    "serve": (SERVE_MODULES, os.path.join(_BASELINE_DIR, "BENCH_serve.json")),
    "hetero": (HETERO_MODULES, os.path.join(_BASELINE_DIR, "BENCH_hetero.json")),
    "bulk": (BULK_MODULES, os.path.join(_BASELINE_DIR, "BENCH_bulk.json")),
    "core": (CORE_MODULES, os.path.join(_BASELINE_DIR, "BENCH_core.json")),
}


def load_results(results_dir: str, modules: tuple[str, ...]) -> dict:
    """Read ``BENCH_<module>.json`` files for one family's modules."""
    out: dict = {}
    for module in modules:
        path = os.path.join(results_dir, f"BENCH_{module}.json")
        if not os.path.exists(path):
            continue
        with open(path) as fh:
            out[module] = json.load(fh)["points"]
    return out


def numeric_metrics(point: dict) -> dict:
    """The gate-able metrics of one recorded point: simulated numbers
    only. Keys naming host wall time (``host_`` / ``_host_``) are
    recorded in the artifacts for trending but excluded from the drift
    gate — consecutive runs on one machine differ by ~10%, so a 5%
    tolerance on them is a coin flip, not a regression signal."""
    return {
        key: value
        for key, value in point.items()
        if key != "test"
        and isinstance(value, (int, float))
        and "host_" not in key
    }


def compare(baseline: dict, fresh: dict, tolerance: float) -> list[str]:
    """All drift violations between the two snapshots (empty = green)."""
    problems: list[str] = []
    for module, base_points in baseline.items():
        fresh_points = {p["test"]: p for p in fresh.get(module, [])}
        if not fresh_points:
            problems.append(f"{module}: no fresh results (bench not run?)")
            continue
        for base in base_points:
            test = base["test"]
            point = fresh_points.get(test)
            if point is None:
                problems.append(f"{module}: baseline test vanished: {test}")
                continue
            for key, expected in numeric_metrics(base).items():
                if key not in point:
                    problems.append(f"{test}: metric vanished: {key}")
                    continue
                actual = point[key]
                scale = max(abs(expected), 1e-9)
                drift = abs(actual - expected) / scale
                if drift > tolerance:
                    problems.append(
                        f"{test}: {key} drifted {drift * 100.0:.1f}% "
                        f"(baseline {expected:g}, fresh {actual:g})"
                    )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("results_dir", help="directory holding fresh BENCH_*.json")
    parser.add_argument(
        "--family", choices=(*FAMILIES, "all"), default="all",
        help="baseline family to check or rebuild (default: all)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.05,
        help="max relative drift per metric (default 0.05 = 5%%)",
    )
    parser.add_argument(
        "--rebuild", action="store_true",
        help="overwrite the baseline(s) from the fresh results instead of checking",
    )
    args = parser.parse_args(argv)

    families = list(FAMILIES) if args.family == "all" else [args.family]
    status = 0
    for family in families:
        modules, baseline_path = FAMILIES[family]
        fresh = load_results(args.results_dir, modules)
        if args.rebuild:
            if not fresh:
                print(
                    f"{family}: no BENCH_*.json under {args.results_dir}",
                    file=sys.stderr,
                )
                status = max(status, 2)
                continue
            os.makedirs(os.path.dirname(baseline_path), exist_ok=True)
            with open(baseline_path, "w") as fh:
                json.dump({"modules": fresh}, fh, indent=2, sort_keys=True)
                fh.write("\n")
            n = sum(len(points) for points in fresh.values())
            print(
                f"{family}: baseline rebuilt: {baseline_path} "
                f"({len(fresh)} module(s), {n} point(s))"
            )
            continue
        with open(baseline_path) as fh:
            baseline = json.load(fh)["modules"]
        problems = compare(baseline, fresh, args.tolerance)
        if problems:
            print(f"{family}: perf trajectory DRIFTED vs {baseline_path}:")
            for problem in problems:
                print(f"  - {problem}")
            print(
                "if the change is intentional, rerun with --rebuild and "
                "commit the new baseline"
            )
            status = 1
        else:
            n = sum(len(points) for points in baseline.values())
            print(
                f"{family}: perf trajectory OK: {n} baseline point(s) "
                f"within {args.tolerance:.0%}"
            )
    return status


if __name__ == "__main__":
    raise SystemExit(main())
