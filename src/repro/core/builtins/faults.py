"""Deterministic device-fault injection (fault-isolation test support).

Installed only when ``InterpreterOptions.enable_fault_injection`` is set
— never part of the default builtin table, so the literal paper figures
and ``builtin-count`` are untouched. ``(inject-fault "kind")`` raises
the named device- or host-level error at evaluation time, which lets the
serving fault-isolation suites place an arena exhaustion, a livelock, or
a batch-fatal protocol corruption at an exact position inside a batch
without relying on cramped arenas or ablation grids.
"""

from __future__ import annotations

from ...errors import (
    ArenaExhaustedError,
    DeviceHangError,
    DeviceLostError,
    DeviceShutdownError,
    HostProtocolError,
    LivelockError,
    MemoryFaultError,
    TypeMismatchError,
)
from ..nodes import Node, NodeType


__all__ = ["register"]

#: kind -> exception factory. "arena-exhausted"/"livelock"/"memory-fault"
#: are containable per-job faults; "shutdown"/"protocol" are batch-fatal
#: (the device survives); "device-lost"/"device-hang" are device *losses*
#: (the device does not survive — with a supervisor installed they
#: trigger checkpoint failover, without one they degrade to batch-fatal
#: quarantine), which makes whole-device chaos scenarios scriptable from
#: Lisp programs, not just from the host harness.
_FAULTS = {
    "arena-exhausted": lambda: ArenaExhaustedError(
        "injected fault: node arena exhausted"
    ),
    "livelock": lambda: LivelockError("injected fault: warp livelock"),
    "memory-fault": lambda: MemoryFaultError(
        "injected fault: out-of-bounds global memory access"
    ),
    "shutdown": lambda: DeviceShutdownError("injected fault: device shut down"),
    "protocol": lambda: HostProtocolError(
        "injected fault: command buffer corrupted"
    ),
    "device-lost": lambda: DeviceLostError(
        "injected fault: device fell off the bus"
    ),
    "device-hang": lambda: DeviceHangError(
        "injected fault: device stopped responding mid-round"
    ),
}


def _inject_fault(interp, env, ctx, values, depth) -> Node:
    (kind,) = values
    if kind.ntype != NodeType.N_STRING or kind.sval not in _FAULTS:
        raise TypeMismatchError(
            f"inject-fault expects one of {sorted(_FAULTS)} as a string"
        )
    raise _FAULTS[kind.sval]()


def register(reg) -> None:
    reg.add_values(
        "inject-fault",
        _inject_fault,
        1,
        1,
        "Raise the named device fault (fault-injection test hook).",
    )
