"""Device-side file I/O over the host message buffer (paper §III-D).

"A missing feature to mention is the unavailability of program internal
file I/O in the current version. This feature can be realized by using
the buffer for exchanging messages between host and device and will be
added in future versions."

This module adds that future version. The host owns a virtual file
system; when device code evaluates ``(read-file ...)`` / ``(write-file
...)``, the kernel writes a request message into the shared buffer,
signals the host, and blocks until the host services it — one full
host<->device round trip per operation, charged with the same mapped-
memory + PCIe costs as REPL traffic. The file system is virtual
(in-memory) so Lisp programs cannot touch the real disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..context import ExecContext
from ..errors import EvalError
from ..ops import Op

__all__ = ["HostFileSystem", "FileServiceLink", "InMemoryFileService"]


class HostFileSystem:
    """The host-side virtual file system serving device requests."""

    def __init__(self, files: Optional[dict[str, str]] = None) -> None:
        self._files: dict[str, str] = dict(files or {})

    def read(self, name: str) -> Optional[str]:
        return self._files.get(name)

    def write(self, name: str, text: str) -> None:
        self._files[name] = text

    def exists(self, name: str) -> bool:
        return name in self._files

    def listing(self) -> list[str]:
        return sorted(self._files)

    def delete(self, name: str) -> bool:
        return self._files.pop(name, None) is not None

    def __len__(self) -> int:
        return len(self._files)


@dataclass
class FileServiceStats:
    transfer_ms: float = 0.0

    def reset(self) -> None:
        self.transfer_ms = 0.0


class FileServiceLink:
    """The device side of the file protocol.

    Every operation costs: writing the request message into the buffer
    (one ``CHAR_STORE`` per byte), a device->host transfer, the host
    service (free — host time is not kernel time), a host->device
    transfer of the response, and reading it (one ``CHAR_LOAD`` per
    byte). Transfer milliseconds accumulate in ``stats`` and are folded
    into the command's ``transfer_ms`` by the device.
    """

    def __init__(self, spec, filesystem: HostFileSystem) -> None:
        self.spec = spec
        self.filesystem = filesystem
        self.stats = FileServiceStats()

    # -- protocol ---------------------------------------------------------------

    def _round_trip(self, ctx: ExecContext, request: str, response: str) -> None:
        ctx.charge(Op.CHAR_STORE, len(request))
        ctx.charge(Op.ATOMIC_RMW)   # raise the message flag
        ctx.charge(Op.ATOMIC_LOAD)  # wait for the host's answer flag
        ctx.charge(Op.CHAR_LOAD, len(response))
        self.stats.transfer_ms += self.spec.transfer_ms(len(request.encode()))
        self.stats.transfer_ms += self.spec.transfer_ms(len(response.encode()))

    # -- operations ----------------------------------------------------------------

    def read(self, name: str, ctx: ExecContext) -> Optional[str]:
        content = self.filesystem.read(name)
        self._round_trip(ctx, f"READ {name}", content if content is not None else "")
        return content

    def write(self, name: str, text: str, ctx: ExecContext) -> None:
        self._round_trip(ctx, f"WRITE {name} {text}", "OK")
        self.filesystem.write(name, text)

    def exists(self, name: str, ctx: ExecContext) -> bool:
        found = self.filesystem.exists(name)
        self._round_trip(ctx, f"STAT {name}", "1" if found else "0")
        return found

    def listing(self, ctx: ExecContext) -> list[str]:
        names = self.filesystem.listing()
        self._round_trip(ctx, "LIST", " ".join(names))
        return names

    def delete(self, name: str, ctx: ExecContext) -> bool:
        removed = self.filesystem.delete(name)
        self._round_trip(ctx, f"DELETE {name}", "1" if removed else "0")
        return removed


class InMemoryFileService:
    """File service for bare interpreters (no device, no transfer cost).

    Same interface as :class:`FileServiceLink`; character work is still
    charged so the op mix stays comparable.
    """

    def __init__(self, filesystem: Optional[HostFileSystem] = None) -> None:
        # Explicit None check: an *empty* HostFileSystem is falsy
        # (it has __len__), but it is still the caller's filesystem.
        self.filesystem = filesystem if filesystem is not None else HostFileSystem()

    def read(self, name: str, ctx: ExecContext) -> Optional[str]:
        content = self.filesystem.read(name)
        if content is not None:
            ctx.charge(Op.CHAR_LOAD, len(content))
        return content

    def write(self, name: str, text: str, ctx: ExecContext) -> None:
        ctx.charge(Op.CHAR_STORE, len(text))
        self.filesystem.write(name, text)

    def exists(self, name: str, ctx: ExecContext) -> bool:
        return self.filesystem.exists(name)

    def listing(self, ctx: ExecContext) -> list[str]:
        return self.filesystem.listing()

    def delete(self, name: str, ctx: ExecContext) -> bool:
        return self.filesystem.delete(name)
