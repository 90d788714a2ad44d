#!/usr/bin/env python3
"""Host calls per completed request on each perfbench workload.

Host wall time varies about 10% between runs; the number of calls the
program makes does not. This script counts, over the host-timed part
(submit, flush, gather) of one ``harness.run_once`` of a ``perfbench``
workload, every call made on behalf of ``repro`` and divides by the
requests completed. A perf change reports it beside its alternating-pair
medians as a deterministic end-to-end figure.

What counts as a call (:class:`CallCounter`, also the rule of the GPU
batch call gates in ``tests/runtime/test_batch_host_work.py``):

* a Python call into a function defined under ``src/repro``;
* a call into a dataclass-generated ``__init__`` (its code is compiled
  from a string) made from a ``repro`` frame, so work moved into result
  objects stays counted;
* a builtin call made from a ``repro`` frame.

Run from the root of a checkout::

    python benchmarks/host_calls.py                      # all four workloads
    python benchmarks/host_calls.py --workload stateful-failover --seed 1

It imports ``perfbench/harness.py`` and ``perfbench/workloads.py`` and
changes neither. The counts belong to one CPython version: 3.12 inlines
comprehensions, so it counts fewer calls than 3.11.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class CallCounter:
    """A ``sys.setprofile`` function that counts the calls made for the
    package whose source directory is ``src`` (``repro``'s)."""

    def __init__(self, src: str) -> None:
        self.src = src
        self.calls = 0

    def __call__(self, frame, event, arg) -> None:
        if event == "call":
            filename = frame.f_code.co_filename
            if filename.startswith(self.src):
                self.calls += 1
            elif filename == "<string>":  # a dataclass-generated __init__
                caller = frame.f_back
                if caller is not None and caller.f_code.co_filename.startswith(
                    self.src
                ):
                    self.calls += 1
        elif event == "c_call" and frame.f_code.co_filename.startswith(self.src):
            self.calls += 1


def calls_per_request(name: str, seed: int) -> dict:
    """One ``run_once`` of workload ``name``, counted in its host-timed part."""
    import harness
    import repro
    import workloads

    counter = CallCounter(os.path.dirname(repro.__file__))

    def observe(phase: str) -> None:
        if phase == "start":
            sys.setprofile(counter)
        elif phase == "stop":
            sys.setprofile(None)

    try:
        it = harness.run_once(workloads.generate(name, seed), observe=observe)
    finally:
        sys.setprofile(None)
    return {
        "workload": name,
        "seed": seed,
        "completed": it.completed,
        "calls": counter.calls,
        "calls_per_request": counter.calls / it.completed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="default: all four")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import workloads

    names = args.workload or list(workloads.WORKLOADS)
    rows = [calls_per_request(name, args.seed) for name in names]
    for row in rows:
        print(
            f"{row['workload']:<18} {row['calls']:>12,} calls  "
            f"{row['completed']:>7,} requests  "
            f"{row['calls_per_request']:>9.1f} per request"
        )
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
