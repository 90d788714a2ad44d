"""Seeded arrival-trace generator — benchmark-facing entry point.

The implementation lives in :mod:`repro.serve.traces` so the property
tests, the benchmarks and the serving layer share one generator and one
solo transcript oracle; this module re-exports the generator for the
benchmark harness and doubles as a CLI preview::

    PYTHONPATH=src python benchmarks/traces.py --seed 7 --tenants 16

which prints the head of the trace plus its class/heaviness mix — handy
when tuning a workload before committing a baseline.
"""

from __future__ import annotations

from repro.serve.traces import TraceRequest, generate_trace, replay_trace

__all__ = ["TraceRequest", "generate_trace", "replay_trace"]


def _main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tenants", type=int, default=16)
    parser.add_argument("--requests", type=int, default=256)
    parser.add_argument("--duration-ms", type=float, default=50.0)
    parser.add_argument("--skew", type=float, default=4.0)
    parser.add_argument("--head", type=int, default=12, help="rows to print")
    args = parser.parse_args()
    trace = generate_trace(
        seed=args.seed,
        tenants=args.tenants,
        requests=args.requests,
        duration_ms=args.duration_ms,
        skew=args.skew,
    )
    interactive = sum(1 for r in trace if r.tenant_class == "interactive")
    print(
        f"{len(trace)} requests, {args.tenants} tenants "
        f"({interactive} interactive-class requests), "
        f"span {trace[0].arrival_ms:.2f}..{trace[-1].arrival_ms:.2f} ms"
    )
    for req in trace[: args.head]:
        slo = f"slo={req.slo_ms}ms" if req.slo_ms is not None else "bulk"
        print(f"  t={req.arrival_ms:8.3f}  tenant {req.tenant:2d}  {slo:9s}  {req.text}")


if __name__ == "__main__":
    _main()
