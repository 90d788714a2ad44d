"""Workload generators for the paper's evaluation (§IV).

"In our test all threads compute the 5th Fibonacci number recursively.
... CuLi's upload of input strings was not bounded by the bandwidth
limits of PCIe as the strings are rather short (17 to 8207 characters
per transfer, around 8 KB in size)."

The Fibonacci workload submits a ``defun`` preamble once and then one
``(||| n fib (5 5 ... 5))`` command whose length grows ~2 chars per
thread — landing in the paper's 17..8207-character envelope across the
1..4096 sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "FIB_DEFUN",
    "THREAD_SWEEP",
    "Workload",
    "fibonacci_workload",
    "parallel_sum_workload",
]

FIB_DEFUN = (
    "(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))"
)

#: The paper's Fig. 15/16 x-axis.
THREAD_SWEEP: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)


@dataclass(frozen=True)
class Workload:
    """A preamble (definitions, submitted once) + one measured command."""

    name: str
    preamble: tuple[str, ...]
    command: str
    jobs: int


def fibonacci_workload(n_threads: int, fib_n: int = 5) -> Workload:
    """The paper's workload: ``n_threads`` workers, each computing
    fib(``fib_n``) recursively."""
    if n_threads <= 0:
        raise ValueError("n_threads must be positive")
    args = " ".join(str(fib_n) for _ in range(n_threads))
    return Workload(
        name=f"fib{fib_n}-x{n_threads}",
        preamble=(FIB_DEFUN,),
        command=f"(||| {n_threads} fib ({args}))",
        jobs=n_threads,
    )


def parallel_sum_workload(n_threads: int) -> Workload:
    """(||| n + (1 2 ... n) (n ... 2 1)) — the paper's §III-D example
    shape, scaled."""
    if n_threads <= 0:
        raise ValueError("n_threads must be positive")
    ascending = " ".join(str(i + 1) for i in range(n_threads))
    descending = " ".join(str(n_threads - i) for i in range(n_threads))
    return Workload(
        name=f"parsum-x{n_threads}",
        preamble=(),
        command=f"(||| {n_threads} + ({ascending}) ({descending}))",
        jobs=n_threads,
    )
