"""Simulated global memory: address space, regions, and string buffers.

CuLi keeps everything in GPU global memory: the node arena, the
environment entries, the input/output string buffers, and the postboxes.
This module provides the byte-addressed backing store plus the two buffer
types the interpreter streams through — :class:`SourceBuffer` (the parser
reads it char by char, charging ``CHAR_LOAD``/``PARSE_STEP`` and touching
the cache) and :class:`OutputBuffer` (the printer appends to it, charging
``CHAR_STORE``/``PRINT_STEP``).

The parser's character loads are charged as one run per parse
(:meth:`SourceBuffer.load_run`): the same op counts, and the same cache
addresses in the same order, as one load per character, made in one
call. The contract is in DESIGN.md ("Host-side charge folding").
"""

from __future__ import annotations

from dataclasses import dataclass

from ..context import ExecContext
from ..errors import MemoryFaultError
from ..ops import Op

__all__ = ["GlobalMemory", "Region", "SourceBuffer", "OutputBuffer"]

# Fixed op tuples of the two character streams, charged once per run
# (a parse's loads, one append) with the run length as the count.
_SCAN_OPS = (Op.CHAR_LOAD, Op.PARSE_STEP)
_PRINT_OPS = (Op.CHAR_STORE, Op.PRINT_STEP)


@dataclass(frozen=True)
class Region:
    """A named, contiguous span of the device address space."""

    name: str
    base: int
    size: int


class GlobalMemory:
    """Byte-addressed device memory with a simple region allocator.

    Only the string buffers store real bytes (a bytearray); structured
    data (nodes, postboxes) keeps Python-level storage and uses regions
    purely to derive addresses for the cache model. This keeps the
    simulator fast while preserving address behaviour.
    """

    def __init__(self, size_bytes: int = 1 << 30) -> None:
        if size_bytes <= 0:
            raise ValueError("memory size must be positive")
        self.size_bytes = size_bytes
        self._cursor = 0
        self._regions: dict[str, Region] = {}

    def allocate_region(self, name: str, size: int, align: int = 128) -> Region:
        if name in self._regions:
            raise ValueError(f"region {name!r} already allocated")
        if size <= 0:
            raise ValueError("region size must be positive")
        base = -(-self._cursor // align) * align
        if base + size > self.size_bytes:
            raise MemoryFaultError(
                f"out of device memory allocating {name!r} "
                f"({size} B at {base}, capacity {self.size_bytes} B)"
            )
        region = Region(name=name, base=base, size=size)
        self._regions[name] = region
        self._cursor = base + size
        return region

    def region(self, name: str) -> Region:
        return self._regions[name]


class SourceBuffer:
    """The uploaded input string, read char-by-char by the parser.

    Mirrors the paper's parser: "it reads the string character by
    character". Every character read charges one ``CHAR_LOAD`` plus one
    ``PARSE_STEP`` and touches the cache at the character's address;
    :meth:`load_run` charges a run of consecutive reads in one call.
    """

    __slots__ = ("text", "base", "_ctx")

    def __init__(self, text: str, base: int = 0) -> None:
        self.text = text
        self.base = base
        self._ctx: ExecContext | None = None

    def __len__(self) -> int:
        return len(self.text)

    def bind(self, ctx: ExecContext) -> "SourceBuffer":
        self._ctx = ctx
        return self

    def load_run(self, start: int, count: int) -> None:
        """Charge ``count`` character reads from ``start``, in address order.

        Reads at or past the end load the C terminator ('\\0') and are
        charged like any other. A negative start faults before anything
        is charged or touched.
        """
        if start < 0:
            raise MemoryFaultError(f"negative read at {start} in source buffer")
        ctx = self._ctx
        if ctx is not None and count > 0:
            ctx.charge_many(_SCAN_OPS, count)
            ctx.touch_each(self.base + start, count)

class OutputBuffer:
    """The device-side output string under construction.

    The printer appends to it; every character charges ``CHAR_STORE`` +
    ``PRINT_STEP`` and touches the cache. ``getvalue()`` yields the string
    the host will read back through the command buffer.
    """

    __slots__ = ("_parts", "_len", "base", "_ctx", "capacity")

    def __init__(self, base: int = 0, capacity: int = 1 << 20) -> None:
        self._parts: list[str] = []
        self._len = 0
        self.base = base
        self.capacity = capacity
        self._ctx: ExecContext | None = None

    def bind(self, ctx: ExecContext) -> "OutputBuffer":
        self._ctx = ctx
        return self

    def __len__(self) -> int:
        return self._len

    def append(self, text: str) -> None:
        if not text:
            return
        n = len(text)
        if self._len + n > self.capacity:
            raise MemoryFaultError(
                f"output buffer overflow ({self._len + n} > {self.capacity} B)"
            )
        ctx = self._ctx
        if ctx is not None:
            ctx.charge_many(_PRINT_OPS, n)
            ctx.touch_memory(self.base + self._len, n)
        self._parts.append(text)
        self._len += n

    def append_run(self, pieces: list[str]) -> None:
        """``append(piece)`` for each piece in order, charged as one run.

        One ``CHAR_STORE`` + ``PRINT_STEP`` charge covers every character,
        and each non-empty piece makes its own cache access at its own
        address, adding the miss penalty once per missed piece as
        :meth:`append` does (DESIGN.md, "Known modeled defect"). If the
        run overflows the buffer, the pieces before the first one that
        does not fit are stored and charged, then the overflow raises, as
        the appends would.
        """
        room = self.capacity - self._len
        sizes = []
        total = 0
        overflow = None
        for piece in pieces:
            n = len(piece)
            if not n:
                continue
            if total + n > room:
                overflow = self._len + total + n
                break
            sizes.append(n)
            total += n
        if total:
            ctx = self._ctx
            if ctx is not None:
                ctx.charge_many(_PRINT_OPS, total)
                ctx.touch_spans(self.base + self._len, sizes)
            self._parts.append("".join(pieces)[:total])
            self._len += total
        if overflow is not None:
            raise MemoryFaultError(
                f"output buffer overflow ({overflow} > {self.capacity} B)"
            )

    def getvalue(self) -> str:
        return "".join(self._parts)

    def clear(self) -> None:
        self._parts.clear()
        self._len = 0
