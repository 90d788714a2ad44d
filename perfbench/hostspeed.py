"""The host's speed, sampled while the benchmark runs.

On a shared 2-vCPU Xeon VM, host speed drifts by up to 2x over seconds to
minutes with load from outside the VM, and the program's host time drifts
with it. A daemon thread times a fixed pure-Python snippet every 100 ms on
the same CPU as the program; the mean snippet time over a window, against
its time on the reference host, says how much slower than the reference
the host ran then. Host seconds are divided by that ratio, so a host
figure reads as if measured on the reference host throughout.

Workloads slow by different amounts in the slow periods: hot-repl (small
heap, interpreter-bound) by about 1.9x, zipf-fleet (scans of long queues
over a large heap) by about 1.45x. So the snippet blends both kinds of
work: dict and string operations, which slow by 1.6-1.8x, and a
pointer chase through a ring of integers a few megabytes large. On that
VM the blend cut the per-run spread of host time (IQR / median) from
0.16 to 0.02 on zipf-fleet and from 0.31 to 0.08 on hot-repl.

The snippet holds the interpreter lock for about 1-2 ms, well under the
5 ms switch interval, so each sample is one uninterrupted stretch of work;
sampling costs the program about 1-2% of its host time, alike on every
commit. The ring (about 11 MB, counted in the process's peak memory) is a
list of ints, so the program's garbage collector has one object more to
scan, not 300k.
"""

from __future__ import annotations

import os
import random
import threading
import time

__all__ = ["Sampler", "pin_to_one_cpu"]

#: The snippet's time on the reference host, a 2.0 GHz Xeon vCPU in its
#: fast periods (1.2-1.3 ms then, 1.9-2.1 ms in its slow ones).
REF_SNIPPET_S = 0.00125

INTERVAL_S = 0.1

RING = 300_000
CHASE_STEPS = 2000


def _ring() -> list[int]:
    """A random cyclic permutation: ``ring[i]`` is the index after ``i``."""
    order = list(range(RING))
    random.Random(0).shuffle(order)
    ring = [0] * RING
    for a, b in zip(order, order[1:] + order[:1]):
        ring[a] = b
    return ring


def _snippet(ring: list[int], at: int) -> int:
    d: dict = {}
    for i in range(1000):
        k = f"k{i % 97}"
        d[k] = d.get(k, 0) + i
        s = [i, i + 1, i + 2]
        s.sort(reverse=True)
    for _ in range(CHASE_STEPS):
        at = ring[at]
    return at


def pin_to_one_cpu() -> None:
    """Keep this process (and the threads and processes it starts) on one
    CPU, so the sampler measures the CPU the program runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Sampler:
    """Times the snippet every ``INTERVAL_S`` until stopped."""

    def __init__(self) -> None:
        self._ring = _ring()
        self._samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="hostspeed", daemon=True)

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        at = 0
        while True:
            t = time.perf_counter()
            at = _snippet(self._ring, at)
            self._samples.append((t, time.perf_counter() - t))
            if self._stop.wait(INTERVAL_S):
                return

    def ref_seconds(self, start: float, end: float) -> float:
        """``end - start`` host seconds, in reference-host seconds."""
        window = [d for t, d in self._samples if start <= t <= end]
        if not window:
            # Shorter than one interval: take the nearest samples.
            window = [d for _, d in sorted(self._samples, key=lambda s: abs(s[0] - start))[:3]]
        slowdown = sum(window) / len(window) / REF_SNIPPET_S
        return (end - start) / slowdown
