"""Timing results for one REPL command and for device lifecycles.

The paper reports three kernel phases — parse, eval, print (Figs. 16-18)
— plus base latency (Fig. 14) and total runtimes (Fig. 15). A
:class:`PhaseBreakdown` carries all of them; ``eval_ms`` includes the
master's distribution and collection work and the workers' wall time
(reported separately for analysis).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["PhaseBreakdown", "CommandStats"]


@dataclass
class PhaseBreakdown:
    """Wall-clock decomposition of one command, in milliseconds."""

    parse_ms: float = 0.0
    eval_ms: float = 0.0      #: master eval work + distribution + workers + collect
    print_ms: float = 0.0
    other_ms: float = 0.0     #: per-command handshake / wakeup overhead
    transfer_ms: float = 0.0  #: PCIe up + down (0 on CPU devices)
    host_ms: float = 0.0      #: host-side read/print loop work
    gc_ms: float = 0.0        #: modeled between-command reclamation (charged
                              #: GC policies only; always 0 in literal mode)

    # Informational sub-components of eval_ms:
    distribute_ms: float = 0.0
    worker_ms: float = 0.0
    collect_ms: float = 0.0

    # Energy / contention metrics (do not contribute to wall time):
    spin_cycles: float = 0.0  #: busy-wait cycles burned by idle lanes
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def kernel_ms(self) -> float:
        """Device-kernel time, the paper's Fig. 16a quantity."""
        return self.parse_ms + self.eval_ms + self.print_ms

    @property
    def total_ms(self) -> float:
        """End-to-end command time, the paper's Fig. 15 quantity (plus
        modeled GC time under the charged reclamation policies; the
        kernel-phase split the paper reports is untouched)."""
        return (
            self.kernel_ms + self.other_ms + self.transfer_ms + self.host_ms
            + self.gc_ms
        )

    def proportions(self) -> dict[str, float]:
        """parse/eval/print shares of kernel time (paper Figs. 17/18)."""
        k = self.kernel_ms
        if k <= 0:
            return {"parse": 0.0, "eval": 0.0, "print": 0.0}
        return {
            "parse": self.parse_ms / k,
            "eval": self.eval_ms / k,
            "print": self.print_ms / k,
        }

    def accumulate(self, other: "PhaseBreakdown") -> None:
        """Add ``other`` into this breakdown, field by field, in place
        (a running total such as ``ServerStats.phase_totals``)."""
        self.parse_ms += other.parse_ms
        self.eval_ms += other.eval_ms
        self.print_ms += other.print_ms
        self.other_ms += other.other_ms
        self.transfer_ms += other.transfer_ms
        self.host_ms += other.host_ms
        self.gc_ms += other.gc_ms
        self.distribute_ms += other.distribute_ms
        self.worker_ms += other.worker_ms
        self.collect_ms += other.collect_ms
        self.spin_cycles += other.spin_cycles
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses


@dataclass
class CommandStats:
    """A command's result plus its timing (what ``Session.eval_timed``
    returns alongside the output string)."""

    output: str = ""
    times: PhaseBreakdown = field(default_factory=PhaseBreakdown)
    input_chars: int = 0
    output_chars: int = 0
    jobs: int = 0        #: ||| jobs executed by the command (0 if none)
    rounds: int = 0      #: distribution rounds used
    nodes_freed: int = 0  #: nodes reclaimed by between-command collection
