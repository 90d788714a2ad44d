"""Set-associative cache model (the device L2).

The paper attributes Fermi's parsing advantage to its L2 configuration;
this module provides a real set-associative LRU cache so that string scans
(the parser walking the input buffer, the printer writing the output
buffer) produce genuine hit/miss behaviour. Miss penalties are charged in
cycles by the owning context.

The model is deliberately simple — physical L2s are sectored and hashed —
but it has the properties that matter for this workload: sequential scans
miss once per line, working sets beyond capacity thrash, and associativity
conflicts are possible.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CacheStats", "SetAssociativeCache"]


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0

class SetAssociativeCache:
    """LRU set-associative cache over a byte-addressed space.

    ``access(addr, size)`` returns True if *all* touched lines hit.
    Line fills happen on miss (allocate-on-miss, no write-back modeling —
    CuLi's buffers are read-once/write-once streams).
    """

    def __init__(self, size_kib: int, line_bytes: int = 128, assoc: int = 16) -> None:
        if size_kib <= 0 or line_bytes <= 0 or assoc <= 0:
            raise ValueError("cache geometry must be positive")
        size_bytes = size_kib * 1024
        if size_bytes % (line_bytes * assoc):
            raise ValueError("cache size must be divisible by line_bytes * assoc")
        self.line_bytes = line_bytes
        self.assoc = assoc
        self.n_sets = size_bytes // (line_bytes * assoc)
        # Each set is an ordered list of tags; index 0 = LRU, -1 = MRU.
        self._sets: list[list[int]] = [[] for _ in range(self.n_sets)]
        self.stats = CacheStats()

    @property
    def size_kib(self) -> int:
        return self.n_sets * self.assoc * self.line_bytes // 1024

    def _touch_line(self, line_addr: int) -> bool:
        set_idx = line_addr % self.n_sets
        tag = line_addr // self.n_sets
        ways = self._sets[set_idx]
        try:
            ways.remove(tag)
        except ValueError:
            self.stats.misses += 1
            if len(ways) >= self.assoc:
                ways.pop(0)
            ways.append(tag)
            return False
        ways.append(tag)
        self.stats.hits += 1
        return True

    def access(self, addr: int, size: int = 1) -> bool:
        """Touch ``size`` bytes starting at ``addr``; True iff all lines hit."""
        if addr < 0 or size <= 0:
            raise ValueError("invalid access")
        first = addr // self.line_bytes
        last = (addr + size - 1) // self.line_bytes
        all_hit = True
        for line in range(first, last + 1):
            if not self._touch_line(line):
                all_hit = False
        return all_hit

    def access_each(self, addr: int, size: int) -> int:
        """Touch ``size`` bytes from ``addr`` one byte at a time, in order.

        Equivalent to ``size`` calls of ``access(addr + i)``: each line
        is touched once (hit or miss) and the line's remaining bytes in
        the run hit, because the line is then most recently used.
        Returns the number of misses.
        """
        if addr < 0 or size < 0:
            raise ValueError("invalid access")
        if size == 0:
            return 0
        stats = self.stats
        misses0 = stats.misses
        first = addr // self.line_bytes
        last = (addr + size - 1) // self.line_bytes
        for line in range(first, last + 1):
            self._touch_line(line)
        stats.hits += size - (last - first + 1)
        return stats.misses - misses0

    def access_spans(self, addr: int, sizes: list[int]) -> int:
        """``access(addr, size)`` for each size, over consecutive spans
        from ``addr``, in order, made as one call. Returns the number of
        spans that missed a line.

        A line touched again straight after its last touch is its set's
        most recently used way: the touch hits and leaves the set as it
        was, so it is counted without the set lookup.
        """
        line_bytes = self.line_bytes
        touch = self._touch_line
        recent = -1
        repeat_hits = 0
        missed_spans = 0
        try:
            for size in sizes:
                if addr < 0 or size <= 0:
                    raise ValueError("invalid access")
                all_hit = True
                for line in range(addr // line_bytes, (addr + size - 1) // line_bytes + 1):
                    if line == recent:
                        repeat_hits += 1
                    elif not touch(line):
                        all_hit = False
                    recent = line
                if not all_hit:
                    missed_spans += 1
                addr += size
        finally:
            self.stats.hits += repeat_hits
        return missed_spans

    def flush(self) -> None:
        self._sets = [[] for _ in range(self.n_sets)]
