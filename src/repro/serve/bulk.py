"""Bulk collection jobs: host-sharded ``gpu-map`` over a device fleet.

The PyCUDA/PyOpenCL stance (PAPERS.md): the *host* owns shard/gather
orchestration, the devices own execution. A bulk job takes one function
text and a large element list, apportions contiguous element ranges
across the pool's devices **capability-weighted** (a Volta card gets
proportionally more elements than a Fermi card —
:mod:`repro.serve.capability` scores), and submits each range as an
ordinary ``(gpu-map fn (elems...))`` request on an internal per-device
bulk session. A chunk request is the form alone, so the device runs it
in master mode: the master evaluates the form and the parallel engine
makes one job per element on the device's workers (on a GPU spread one
per warp first, in rounds when elements outnumber workers), and the
modeled upload/kernel/download for each chunk lands on that device's
:class:`~repro.serve.timeline.DevicePipeline` clock.

Nothing below the chunk boundary is new machinery — a chunk is a normal
:class:`~repro.serve.session.Ticket` on a normal session, which buys the
serving guarantees for free:

* **coexistence** — bulk sessions carry no SLO, so their tickets take a
  ``+inf`` EDF deadline and admit *behind* every interactive deadline
  while still aging FIFO among themselves, under one EDF scheduler;
* **fault containment** — a fault inside one chunk resolves that
  chunk's ticket with the error under the PR 4 quarantine rules and
  never touches sibling chunks on other devices;
* **failover** — bulk sessions are supervisor-tracked like any tenant,
  so chunks in flight on a lost device are replayable suffix work.

Gathering reassembles per-chunk list outputs in element order with a
paren-aware splitter (results may themselves be lists), so
``server.gpu_map(fn, elems)`` is byte-compatible with evaluating one
giant ``gpu-map`` — the differential property tests pin it against
sequential ``mapcar``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from ..errors import AdmissionError, EvalError

if TYPE_CHECKING:  # pragma: no cover
    from .pool import PooledDevice
    from .server import CuLiServer
    from .session import Ticket
    from .stats import ServerStats

__all__ = ["BulkChunk", "BulkJob", "split_list_text"]

#: Default elements per chunk. Small enough that a device holding
#: several chunks interleaves with interactive rounds (a chunk is one
#: batch-round of bulk work), large enough that per-chunk upload labels
#: amortize. Callers override per job.
DEFAULT_CHUNK_ELEMS = 256


def split_list_text(text: str) -> list[str]:
    """Split a printed list ``"(a b (c d) e)"`` into its top-level
    element texts — paren-aware, because mapped functions may return
    lists themselves, and string-aware: a ``"…"`` run is one piece of
    its element (the printer emits no escapes, so every ``"`` opens or
    closes one). ``"nil"`` and ``"()"`` split to no elements."""
    text = text.strip()
    if text == "nil" or text == "()":
        return []
    if not (text.startswith("(") and text.endswith(")")):
        raise EvalError(f"bulk gather: expected a list result, got {text!r}")
    body = text[1:-1]
    out: list[str] = []
    depth = 0
    in_string = False
    start: Optional[int] = None
    for i, ch in enumerate(body):
        if ch == '"':
            in_string = not in_string
        elif in_string:
            continue
        elif ch.isspace() and depth == 0:
            if start is not None:
                out.append(body[start:i])
                start = None
            continue
        if start is None:
            start = i
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise EvalError(
                    f"bulk gather: unbalanced list result {text!r}"
                )
    if depth != 0:
        raise EvalError(f"bulk gather: unbalanced list result {text!r}")
    if start is not None:
        out.append(body[start:])
    return out


def capability_shares(
    devices: Sequence["PooledDevice"], total: int
) -> list[int]:
    """Apportion ``total`` elements over devices ∝ capability score.

    Largest-remainder over ``1/probe_ms`` (a device twice as fast gets
    twice the elements), deterministic, sums to ``total`` exactly. A
    device may get zero elements (tiny jobs on big fleets).
    """
    weights = [1.0 / pdev.probe_ms for pdev in devices]
    w_sum = sum(weights)
    ideal = [total * w / w_sum for w in weights]
    shares = [int(x) for x in ideal]
    short = total - sum(shares)
    order = sorted(
        range(len(devices)), key=lambda k: (-(ideal[k] - shares[k]), k)
    )
    for k in order:
        if short <= 0:
            break
        shares[k] += 1
        short -= 1
    return shares


class BulkChunk:
    """One contiguous element range of a bulk job, riding one ticket."""

    __slots__ = ("ticket", "device_id", "start", "count")

    def __init__(
        self, ticket: "Ticket", device_id: str, start: int, count: int
    ) -> None:
        self.ticket = ticket
        self.device_id = device_id
        self.start = start      #: index of the first element in the job
        self.count = count      #: elements carried by this chunk

    @property
    def done(self) -> bool:
        return self.ticket.done

    @property
    def ok(self) -> bool:
        return self.ticket.ok

    def __repr__(self) -> str:
        state = "done" if self.done else "pending"
        return (
            f"<BulkChunk [{self.start}:{self.start + self.count}] "
            f"on {self.device_id} [{state}]>"
        )


class BulkJob:
    """One sharded ``gpu-map`` job: chunks out, gathered list back.

    Created by :meth:`CuLiServer.submit_bulk`; the caller flushes the
    server (chunks drain through the ordinary scheduler) and then reads
    :meth:`result`. ``fn_text`` must be self-contained over the global
    environment (a builtin name or a ``lambda`` text) — bulk sessions
    are internal per-device tenants and do not see any user session's
    definitions.
    """

    def __init__(
        self, job_id: int, fn_text: str, n_elements: int,
        chunks: list[BulkChunk], stats: "ServerStats",
    ) -> None:
        self.job_id = job_id
        self.fn_text = fn_text
        self.n_elements = n_elements
        self.chunks = chunks
        self._stats = stats
        self._gather_recorded = False

    @property
    def done(self) -> bool:
        return all(chunk.done for chunk in self.chunks)

    @property
    def ok(self) -> bool:
        return self.done and all(chunk.ok for chunk in self.chunks)

    @property
    def errors(self) -> list[tuple[BulkChunk, Exception]]:
        """Failed chunks with their errors (contained per chunk)."""
        return [
            (chunk, chunk.ticket.error)
            for chunk in self.chunks
            if chunk.done and chunk.ticket.error is not None
        ]

    def result(self) -> str:
        """The gathered whole-list result, in element order.

        Raises the first failed chunk's error (with its element range in
        context) — sibling chunks still completed; their outputs remain
        readable per chunk for partial-result callers.
        """
        if not self.done:
            raise RuntimeError(
                "bulk job not finished: call server.flush() first"
            )
        if not self._gather_recorded:
            self._gather_recorded = True
            self._stats.record_bulk_gathered(errors=len(self.errors))
        for chunk in self.chunks:
            if chunk.ticket.error is not None:
                raise EvalError(
                    f"bulk job {self.job_id}: chunk "
                    f"[{chunk.start}:{chunk.start + chunk.count}] on "
                    f"{chunk.device_id} failed: {chunk.ticket.error}"
                ) from chunk.ticket.error
        parts: list[str] = []
        for chunk in sorted(self.chunks, key=lambda c: c.start):
            parts.extend(split_list_text(chunk.ticket.output))
        if len(parts) != self.n_elements:
            raise EvalError(
                f"bulk job {self.job_id}: gathered {len(parts)} results "
                f"for {self.n_elements} elements"
            )
        if not parts:
            return "nil"
        return "(" + " ".join(parts) + ")"

    def __repr__(self) -> str:
        state = "done" if self.done else "pending"
        return (
            f"<BulkJob {self.job_id} {self.fn_text!r} "
            f"{self.n_elements} elements in {len(self.chunks)} chunks "
            f"[{state}]>"
        )


def shard_bulk_job(
    server: "CuLiServer",
    job_id: int,
    fn_text: str,
    elements: Sequence,
    chunk_elems: int,
    arrival_ms: Optional[float],
) -> BulkJob:
    """Shard ``elements`` across the fleet and submit the chunks.

    Contiguous ranges keep the gather a plain concatenation in chunk
    order. Each device's share is sub-chunked to ``chunk_elems`` so a
    big job pipelines as several batch rounds instead of one monolith —
    but never into more tickets than the device's bulk session has
    admission headroom for (chunks coalesce rather than trip the
    per-session queue cap). If any device with a share has *no*
    headroom the whole job is refused with
    :class:`~repro.errors.AdmissionError`, like any tenant, before a
    single chunk is queued.
    """
    texts = [
        element if isinstance(element, str) else repr(element)
        for element in elements
    ]
    devices = [
        pdev for pdev in server.pool.devices.values() if not pdev.draining
    ] or list(server.pool.devices.values())
    shares = capability_shares(devices, len(texts))
    plan = []  # (device id, bulk session, share, headroom)
    for pdev, share in zip(devices, shares):
        if share == 0 and texts:
            continue
        session = server._bulk_session(pdev.device_id)
        headroom = server.max_session_queue - session.pending
        if headroom <= 0:
            raise AdmissionError(
                f"bulk session on {pdev.device_id} has no admission "
                f"headroom (cap {server.max_session_queue}): flush first"
            )
        plan.append((pdev.device_id, session, share, headroom))
        if not texts:
            break  # the single empty chunk is enough
    chunks: list[BulkChunk] = []
    cursor = 0
    for device_id, session, share, headroom in plan:
        want = max(1, -(-share // chunk_elems)) if texts else 1
        n_chunks = min(want, headroom)
        base, rem = divmod(share, n_chunks)
        for k in range(n_chunks):
            count = base + (1 if k < rem else 0)
            if count == 0 and texts:
                continue
            body = " ".join(texts[cursor:cursor + count])
            text = f"(gpu-map {fn_text} ({body}))"
            ticket = session.submit(text, arrival_ms=arrival_ms)
            chunks.append(BulkChunk(ticket, device_id, cursor, count))
            cursor += count
    job = BulkJob(job_id, fn_text, len(texts), chunks, stats=server.stats)
    server.stats.record_bulk_submitted(
        chunks=len(chunks), elements=len(texts)
    )
    return job
