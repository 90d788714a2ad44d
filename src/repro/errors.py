"""Exception hierarchy for the CuLi reproduction.

Errors are split along the paper's system boundaries: Lisp-level errors
(bad programs), device-level errors (the simulated GPU/CPU misbehaving or
hitting a resource limit), and host/protocol errors (REPL plumbing).
"""

from __future__ import annotations


class CuLiError(Exception):
    """Base class for every error raised by this package."""


# ---------------------------------------------------------------------------
# Lisp-level errors (paper §III-A/B)
# ---------------------------------------------------------------------------


class LispError(CuLiError):
    """A Lisp program did something invalid."""


class ParseError(LispError):
    """The parser rejected the input string."""

    def __init__(self, message: str, position: int = -1) -> None:
        super().__init__(message)
        self.position = position


class EvalError(LispError):
    """Evaluation failed (wrong arity, bad types, unbound function, ...)."""


class ArityError(EvalError):
    """A function or special form received the wrong number of arguments."""


class TypeMismatchError(EvalError):
    """A builtin received an argument of the wrong node type."""


class RecursionDepthError(EvalError):
    """Evaluation exceeded the device's stack depth.

    CUDA device stacks are small; the paper's interpreter inherits that
    limit, so the simulated device enforces a maximum recursion depth.
    """


class ImmutabilityError(LispError):
    """A sealed node was written to.

    The paper: "After a value has been assigned to a node, it becomes
    immutable. This is necessary for parallel execution."
    """


# ---------------------------------------------------------------------------
# Device-level errors (paper §III-C/D)
# ---------------------------------------------------------------------------


class DeviceError(CuLiError):
    """Base class for simulated-device failures.

    ``containable`` classifies the failure for the batched serving layer
    (fault isolation): a *containable* fault is scoped to the one job
    that triggered it — the device kills that job, reclaims its partial
    allocations, and the rest of the batch continues. A non-containable
    fault (the device shut down, the host/device buffer protocol
    corrupted) aborts the whole batch transaction; the device must still
    come back usable.
    """

    containable = False


class ArenaExhaustedError(DeviceError):
    """The fixed-size node array is full.

    The paper: "the size of the possible inputs is currently limited...
    reasoned by the organization of the nodes used for storing objects."
    """

    containable = True


class LivelockError(DeviceError):
    """Warp-divergence livelock detected.

    Without the per-block synchronization flag (paper Alg. 1, Fig. 13),
    lockstep threads that never receive work spin forever and block their
    warp siblings from completing.

    Containment is not purely type-based: a livelock raised while one
    job evaluates (e.g. an injected fault) kills just that job, while
    the engine-configuration livelocks (Figs. 12/13) abort the whole
    batch. The kernel raises those with ``containable`` set to False on
    the instance, because a served request in master mode meets them
    inside its own contained evaluation.
    """

    containable = True


class DeviceShutdownError(DeviceError):
    """An operation was issued to a device that has been shut down."""


class DeviceLostError(DeviceError):
    """The whole device crashed mid-round (ECC error, driver reset,
    falling off the bus): everything resident on it — every tenant's
    arena state, the in-flight batch — is gone.

    Unlike the other device-fatal errors, the device does *not* come
    back usable by itself: the serving layer's supervisor must
    force-reset it (a fresh device object, empty arena) and rebuild the
    victim sessions from their last checkpoints on surviving devices.
    Never containable — a crash cannot be scoped to one job.
    """


class DeviceHangError(DeviceLostError):
    """The device stopped responding: it hung after a round (a chaos
    hang or an injected ``device-hang`` fault) or the post-round
    heartbeat went silent. Detection is modeled (``hang_detect_ms``),
    never read off the host's wall clock.

    Classified as a *loss* (subclass of :class:`DeviceLostError`)
    because the only recovery is a force-reset: whatever the hung round
    computed never reached the host, so the supervisor discards it and
    replays from the last checkpoint — the at-least-once corner of the
    failover contract (a hung batch may have committed device-side
    effects that are wiped with the reset and re-executed).
    """


class MemoryFaultError(DeviceError):
    """An out-of-bounds access on simulated global memory."""

    containable = True


def is_containable_fault(exc: BaseException) -> bool:
    """True when a per-job handler may contain ``exc`` instead of
    aborting its batch (see :class:`DeviceError`)."""
    return isinstance(exc, DeviceError) and exc.containable


# ---------------------------------------------------------------------------
# Host / protocol errors
# ---------------------------------------------------------------------------


class HostProtocolError(CuLiError):
    """The host<->device command-buffer protocol was violated."""


class UnbalancedInputError(HostProtocolError):
    """The host refused to upload input with unbalanced parentheses.

    The paper: "The host uploads the input to the GPU if the number of
    opening and closing parentheses is equal."
    """


class AdmissionError(CuLiError):
    """The serving layer refused to enqueue a request (backpressure).

    Raised by :meth:`~repro.serve.server.CuLiServer.submit` when a
    tenant already has ``max_session_queue`` unresolved tickets queued:
    admission control sheds load at the front door instead of letting a
    bulk tenant grow an unbounded queue that inflates everyone's tail
    latency. The tenant should drain (flush) and resubmit.
    """


class UnknownDeviceError(CuLiError):
    """A device name not present in the registry was requested."""


class SnapshotError(CuLiError):
    """A heap snapshot could not be decoded or restored (unknown wire
    version, dangling node reference, or a builtin name the destination
    interpreter does not provide)."""
