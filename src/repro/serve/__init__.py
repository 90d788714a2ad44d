"""Multi-tenant serving layer: many logical CuLi REPLs on a shared pool
of simulated devices.

The paper's CuLi is one interactive REPL on one GPU. This package scales
that execution model out: a :class:`DevicePool` owns N simulated devices
with per-device queues, a :class:`Scheduler` batches independent
requests from different tenant sessions into shared ``|||`` distribution
rounds (one master handshake, one PCIe transaction, tenants evaluated
concurrently by worker warps), and :class:`ServerStats` reports
throughput, per-phase latency, queue depth, and device utilization
through the same :class:`~repro.timing.PhaseBreakdown` machinery the
single-device benchmarks use.

See ``examples/serve_demo.py`` for a tour and
``benchmarks/bench_serve_throughput.py`` for the batched-vs-sequential
comparison.
"""

from ..errors import AdmissionError
from .bulk import BulkChunk, BulkJob, split_list_text
from .capability import (
    PROBE_FORMS,
    batch_cost_ms,
    capability_probe_ms,
    capability_score,
    restore_ms_per_byte,
)
from .chaos import ChaosMonkey
from .checkpoint import CheckpointStore
from .pool import DevicePool, PooledDevice, link_ms
from .scheduler import Rebalancer, Scheduler
from .server import CuLiServer
from .session import TenantSession, Ticket
from .stats import DeviceStats, LatencyReservoir, MigrationRecord, ServerStats
from .timeline import DevicePipeline, PipelineSlot
from .traces import TraceRequest, generate_trace, replay_trace
from .supervisor import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    DeviceSupervisor,
)

__all__ = [
    "AdmissionError",
    "BulkChunk",
    "BulkJob",
    "split_list_text",
    "CuLiServer",
    "ChaosMonkey",
    "DevicePipeline",
    "PipelineSlot",
    "LatencyReservoir",
    "PROBE_FORMS",
    "batch_cost_ms",
    "capability_probe_ms",
    "capability_score",
    "restore_ms_per_byte",
    "TraceRequest",
    "generate_trace",
    "replay_trace",
    "CheckpointStore",
    "CircuitBreaker",
    "DeviceSupervisor",
    "DevicePool",
    "PooledDevice",
    "Rebalancer",
    "Scheduler",
    "TenantSession",
    "Ticket",
    "DeviceStats",
    "MigrationRecord",
    "ServerStats",
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "link_ms",
]
