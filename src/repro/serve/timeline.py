"""Modeled event timeline for per-device continuous batching.

The scheduler drives one :class:`DevicePipeline` per pooled device: a
small virtual-time model of a double-buffered command stream. All times here are *simulated device
milliseconds* on the same clock as
:class:`~repro.timing.PhaseBreakdown` — the pipeline never sleeps or
measures host wall time; it just decides *when* each batch's phases
would land on real hardware so the scheduler can charge overlap.

Resource model (per device):

``engine``
    The compute side — master parse/print plus worker service rounds.
    Strictly serial: batch *k+1*'s kernel cannot start before batch
    *k*'s kernel finished (one interpreter, one arena).

``up`` / ``down``
    The two directions of the PCIe link, modeled as independent
    resources (the link is full duplex): batch *k+1*'s payload upload
    can proceed while batch *k*'s result download streams back. This is
    exactly the double-buffered command-buffer trick — while the device
    chews on buffer A, the host fills buffer B — so the only part of
    transfer the engine ever waits on is an upload that did not finish
    hiding under the previous kernel.

A batch charged at arrival-floor ``floor`` with phases
``(upload_ms, kernel_ms, download_ms)`` runs:

- upload on the up-link starting at ``max(floor, up_free)``,
- kernel on the engine starting at ``max(upload_end, engine_free)``,
- download on the down-link starting at ``max(kernel_end, down_free)``,

and its requests resolve at download end. The *serial* clock — what the
same sequence of batches would cost with no overlap, i.e. the classic
``sum(total_ms)`` occupancy — is kept
alongside, so ``overlap_ms`` (serial minus pipelined completion) is the
modeled win attributable purely to the timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["PipelineSlot", "DevicePipeline"]


@dataclass
class PipelineSlot:
    """Where one charged batch landed on the timeline (for tests/bench)."""

    floor_ms: float          #: earliest admissible start (arrival watermark)
    upload_start_ms: float
    upload_end_ms: float
    kernel_start_ms: float
    kernel_end_ms: float
    download_end_ms: float   #: when the batch's results reach the host


@dataclass
class DevicePipeline:
    """Virtual-time clocks for one device's double-buffered stream."""

    up_free_ms: float = 0.0      #: host->device link free at
    engine_free_ms: float = 0.0  #: compute engine free at
    down_free_ms: float = 0.0    #: device->host link free at
    completed_ms: float = 0.0    #: last batch's results landed at
    serial_ms: float = 0.0       #: no-overlap clock (sum of total_ms + waits)
    engine_busy_ms: float = 0.0  #: total kernel occupancy charged so far
    batches: int = 0
    last: PipelineSlot | None = field(default=None, repr=False)

    def charge(
        self,
        floor_ms: float,
        upload_ms: float,
        kernel_ms: float,
        download_ms: float,
    ) -> float:
        """Place one batch on the timeline; return its completion time.

        ``floor_ms`` is the batch's admission floor (no phase may start
        before it — typically the latest arrival among its requests).
        ``kernel_ms`` is everything that occupies the engine: the
        batch's ``total_ms`` minus the two overlappable transfers.
        """
        upload_start = max(floor_ms, self.up_free_ms)
        upload_end = upload_start + upload_ms
        kernel_start = max(upload_end, self.engine_free_ms)
        kernel_end = kernel_start + kernel_ms
        download_start = max(kernel_end, self.down_free_ms)
        download_end = download_start + download_ms

        self.up_free_ms = upload_end
        self.engine_free_ms = kernel_end
        self.down_free_ms = download_end
        self.completed_ms = download_end
        # Serial reference: the same batch on an unpipelined device —
        # wait for the previous batch to fully finish, then pay every
        # phase back to back.
        self.serial_ms = max(self.serial_ms, floor_ms) + (
            upload_ms + kernel_ms + download_ms
        )
        self.engine_busy_ms += kernel_ms
        self.batches += 1
        self.last = PipelineSlot(
            floor_ms=floor_ms,
            upload_start_ms=upload_start,
            upload_end_ms=upload_end,
            kernel_start_ms=kernel_start,
            kernel_end_ms=kernel_end,
            download_end_ms=download_end,
        )
        return download_end

    @property
    def overlap_ms(self) -> float:
        """Modeled time saved by double buffering vs. the serial clock."""
        return max(0.0, self.serial_ms - self.completed_ms)

    @property
    def utilization(self) -> float:
        """Fraction of this device's elapsed pipeline time the engine
        spent computing (kernel occupancy / completion clock). The
        per-device gauge behind the fleet utilization-spread metric: on
        a well-balanced heterogeneous fleet every device's utilization
        sits close together; a fleet that starves its fast devices shows
        a wide spread."""
        if self.completed_ms <= 0.0:
            return 0.0
        return self.engine_busy_ms / self.completed_ms

    @property
    def horizon_ms(self) -> float:
        """Earliest time a *new* batch's kernel could start — the
        admission horizon the scheduler uses to decide which queued
        requests have "arrived" in virtual time."""
        return max(self.up_free_ms, self.engine_free_ms)
