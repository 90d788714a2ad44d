"""Host-side session checkpoints: the recovery substrate for device loss.

Live migration (``runtime/snapshot.py``) reads the **live** source heap,
so it can move a session off a *healthy* device — but a device that
crashes or hangs takes every resident tenant's arena state with it.
The :class:`CheckpointStore` closes that gap: every ``interval``
completed commands ("rounds" from the session's point of view — a
session advances one command per distribution round), the host
serializes the session's reachable persistent heap through the existing
relocatable :class:`~repro.runtime.snapshot.HeapSnapshot` format and
keeps it host-side, together with the **suffix log** — the texts of the
commands the session completed *since* that checkpoint.

Recovery = restore the last checkpoint into a surviving device's arena,
then **replay** the suffix log in order. Replay re-executes commands
whose outputs were already delivered (their replay outputs are
discarded), which makes the contract *at-least-once* with an RPO of at
most ``interval`` rounds: deterministic commands reconverge to exactly
the pre-loss state, and a non-idempotent command can observe at most one
re-execution per loss.

Cost honesty: serializing is host-side work (uncharged, like migration's
serialize step), but a checkpoint only protects the session if it
*leaves* the device — so the supervisor charges ``HeapSnapshot.nbytes``
as modeled device→host transfer on the session's link for every
checkpoint actually shipped. A snapshot whose :meth:`digest
<repro.runtime.snapshot.HeapSnapshot.digest>` matches the one already
stored (the session ran only pure reads since) is **not** re-shipped and
charges nothing; its suffix log still resets, because the stored
checkpoint already equals the live state. The digest is a SHA-1 over a
binary (``marshal``) encoding of the snapshot's rows, equal exactly when
their JSON encodings are.

Host cost follows the work: the store indexes a session as *due* on its
device the moment its suffix log reaches the interval, so a safe point
visits only that device's due sessions (:meth:`CheckpointStore.due_on`),
never every resident; a migration moves the entry with its session
(:meth:`CheckpointStore.move`), and a checkpoint, a recovery or a close
removes it. A checkpoint costs one walk of the session's heap, one row
per node and one digest.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..runtime.snapshot import HeapSnapshot, snapshot_env

if TYPE_CHECKING:  # pragma: no cover
    from .session import TenantSession

__all__ = ["CheckpointStore"]


class CheckpointStore:
    """Per-session heap checkpoints plus post-checkpoint command logs."""

    def __init__(self, interval: int = 8) -> None:
        if interval < 1:
            raise ValueError("checkpoint interval must be >= 1 round")
        self.interval = interval
        self._snapshots: dict[str, HeapSnapshot] = {}
        self._digests: dict[str, str] = {}
        self._suffix: dict[str, list[str]] = {}
        #: The due index: device id -> the ids of the sessions on it
        #: whose suffix log has reached the interval (a dict as an
        #: ordered set), and each due session's device.
        self._due: dict[str, dict[str, None]] = {}
        self._due_device: dict[str, str] = {}

    # -- session lifecycle --------------------------------------------------------

    def register(self, session_id: str) -> None:
        """Start tracking a session (fresh sessions need no snapshot:
        recovery before the first checkpoint restores an empty session
        root and replays the whole — still ``< interval`` long — log)."""
        self._suffix.setdefault(session_id, [])

    def drop(self, session_id: str) -> None:
        """Forget a closed session's checkpoint and log."""
        self._snapshots.pop(session_id, None)
        self._digests.pop(session_id, None)
        self._suffix.pop(session_id, None)
        self._undue(session_id)

    def tracked(self, session_id: str) -> bool:
        return session_id in self._suffix

    # -- the round-by-round protocol ----------------------------------------------

    def record_completed(self, session_id: str, text: str, device_id: str) -> None:
        """Append one completed command to the session's suffix log
        (errored commands too: deterministic replay reproduces their
        partial state exactly). When the log reaches the interval, the
        session is indexed as due on ``device_id``, the device it is
        resident on (:meth:`due_on`)."""
        suffix = self._suffix.setdefault(session_id, [])
        suffix.append(text)
        if len(suffix) >= self.interval:
            self._index_due(session_id, device_id)

    def due_on(self, device_id: str) -> list[str]:
        """The ids of the sessions due on ``device_id``, in the order they
        fell due. A safe point visits only these: its work follows the
        due sessions, not the residents."""
        return list(self._due.get(device_id, ()))

    def move(self, session_id: str, device_id: str) -> None:
        """A session migrated to ``device_id``: its due entry, if any,
        moves with it."""
        if session_id in self._due_device:
            self._index_due(session_id, device_id)

    def _index_due(self, session_id: str, device_id: str) -> None:
        if self._due_device.get(session_id) != device_id:
            self._undue(session_id)
            self._due.setdefault(device_id, {})[session_id] = None
            self._due_device[session_id] = device_id

    def _undue(self, session_id: str) -> None:
        device_id = self._due_device.pop(session_id, None)
        if device_id is not None:
            del self._due[device_id][session_id]

    def checkpoint(self, session: "TenantSession") -> tuple[HeapSnapshot, bool]:
        """Snapshot the session's heap now; returns ``(snapshot, shipped)``.

        ``shipped`` is False when the digest matches the stored
        checkpoint (nothing crosses the link, nothing to charge). Either
        way the suffix log resets — the stored checkpoint now equals the
        live persistent state. The caller records the outcome in
        ``ServerStats`` (the only checkpoint counters).
        """
        snap = snapshot_env(session.env, label=session.session_id)
        digest = snap.digest()
        shipped = digest != self._digests.get(session.session_id)
        if shipped:
            self._snapshots[session.session_id] = snap
            self._digests[session.session_id] = digest
        self._suffix[session.session_id] = []
        self._undue(session.session_id)
        return snap, shipped

    # -- recovery -----------------------------------------------------------------

    def get(self, session_id: str) -> Optional[HeapSnapshot]:
        """The last shipped checkpoint, or None before the first one."""
        return self._snapshots.get(session_id)

    def suffix(self, session_id: str) -> list[str]:
        """The post-checkpoint command texts, oldest first (a copy)."""
        return list(self._suffix.get(session_id, ()))

    def on_recovered(self, session_id: str) -> None:
        """Reset the suffix log after a failover: the replay tickets now
        queued will re-record themselves as they complete, so the log
        rebuilds in step with the restored session's actual state."""
        self._suffix[session_id] = []
        self._undue(session_id)
