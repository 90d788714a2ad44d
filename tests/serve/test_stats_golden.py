"""Golden pin of the serving stats surface on a chaotic mixed fleet.

One fixed scenario runs on a GTX 1080 + Tesla V100 + Xeon E5-2620
server with rebalancing, failover and a seeded chaos monkey (kills,
hangs and idle kills): ten tenants, some with an SLO, write and read
session state over six flush rounds. Along the way one request raises a
Lisp error (``(car 5)``), one a contained ``(inject-fault
"arena-exhausted")``, one a batch-fatal ``(inject-fault "protocol")``;
one submission is refused by admission control, one ``gpu_map`` is
sharded over the fleet, and one session is closed with tickets still
queued.

The whole ``snapshot()``, each device's ``session_count`` and every
:class:`~repro.serve.stats.MigrationRecord` are compared with ``==``
against literals. A refactor of the serving bookkeeping that moves a
single counter, placement or modeled figure fails here. Host wall time
(``gc.wall_ms``) is the one field left out.
"""

from __future__ import annotations

from dataclasses import astuple

import pytest

from repro.core.interpreter import InterpreterOptions
from repro.cpu.device import CPUDeviceConfig
from repro.errors import AdmissionError
from repro.gpu.device import GPUDeviceConfig
from repro.serve import ChaosMonkey, CuLiServer

FLEET = ["gtx1080", "tesla-v100", "intel-e5-2620"]
TENANTS = 10
ROUNDS = 6


def _run() -> tuple[dict, dict, list]:
    # Explicit device configs: the pin must not follow REPRO_SERVE_JIT.
    opts = InterpreterOptions.fast(
        enable_fault_injection=True, jit=True, jit_threshold=2
    )
    monkey = ChaosMonkey(
        seed=11, kill_rate=0.06, hang_rate=0.04, idle_kill_rate=0.02
    )
    server = CuLiServer(
        devices=FLEET,
        max_batch=8,
        rebalance=True,
        failover=True,
        checkpoint_interval=3,
        chaos=monkey,
        max_session_queue=6,
        gpu_config=GPUDeviceConfig(interpreter=opts),
        cpu_config=CPUDeviceConfig(interpreter=opts),
        failover_config={"breaker_failures": 2, "cooldown_rounds": 1},
    )
    moves = []
    migrate = server.migrate_session

    def recording_migrate(*args, **kwargs):
        record = migrate(*args, **kwargs)
        moves.append(astuple(record))
        return record

    server.migrate_session = recording_migrate
    with server:
        tenants = [
            server.open_session(f"t{i}", slo_ms=0.5 if i % 3 == 0 else None)
            for i in range(TENANTS)
        ]
        for i, tenant in enumerate(tenants):
            tenant.submit(f"(setq n {i})")
            tenant.submit("(defun f (x) (list x n))")
        server.flush()
        for r in range(ROUNDS):
            for tenant in tenants:
                if not tenant.closed:
                    tenant.submit(f"(setq n (+ n {r + 1}))")
                    tenant.submit("(f n)")
            if r == 1:
                tenants[2].submit("(car 5)")
                tenants[4].submit('(inject-fault "arena-exhausted")')
                tenants[5].submit('(inject-fault "protocol")')
            if r == 2:
                with pytest.raises(AdmissionError):
                    for _ in range(10):
                        tenants[7].submit("(+ 1 1)")
            if r == 3:
                tenants[8].submit("(+ n 1)")
                tenants[8].close()
            if r == 4:
                squares = server.gpu_map(
                    "(lambda (x) (* x x))", list(range(1, 25)), chunk_elems=4
                )
                assert squares == (
                    "(" + " ".join(str(x * x) for x in range(1, 25)) + ")"
                )
            server.flush()
        assert monkey.kills and monkey.hangs and monkey.idle_kills
        snap = server.stats.snapshot()
        del snap["gc"]["wall_ms"]
        counts = {
            device_id: pdev.session_count
            for device_id, pdev in server.pool.devices.items()
        }
    return snap, counts, moves


@pytest.fixture(scope="module")
def golden_run():
    return _run()


def test_snapshot(golden_run):
    snap, _, _ = golden_run
    assert snap == SNAPSHOT


def test_session_counts(golden_run):
    _, counts, _ = golden_run
    assert counts == SESSION_COUNTS


def test_migrations(golden_run):
    _, _, moves = golden_run
    assert moves == MIGRATIONS


# -- literals recorded from the run above -------------------------------------

SNAPSHOT = {
    "requests": {
        "enqueued": 187,
        "completed": 184,
        "cancelled": 3,
        "rejected": 1,
        "errors": 3,
    },
    "latency": {
        "count": 148,
        "mean_ms": 0.027889998499601852,
        "p50_ms": 0.00617084999999995,
        "p95_ms": 0.10256985228758175,
        "p99_ms": 0.528167791503268,
        "max_ms": 0.7043089679738562,
    },
    "scheduler": {
        "makespan_ms": 1.451,
        "tickets_examined": 235,
        "sessions_examined": 46,
        "devices": {
            "gtx1080#0": {
                "completed_ms": 0.742,
                "serial_ms": 0.742,
                "overlap_ms": 0.0,
                "engine_busy_ms": 0.625,
                "utilization": 0.8413,
                "batches": 10,
            },
            "intel-e5-2620#2": {
                "completed_ms": 1.361,
                "serial_ms": 1.361,
                "overlap_ms": 0.0,
                "engine_busy_ms": 0.143,
                "utilization": 0.1048,
                "batches": 46,
            },
            "tesla-v100#1": {
                "completed_ms": 1.451,
                "serial_ms": 1.571,
                "overlap_ms": 0.12,
                "engine_busy_ms": 1.421,
                "utilization": 0.9793,
                "batches": 15,
            },
        },
    },
    "faults": {
        "contained": 1,
        "batch_fatal": 2,
        "quarantine_retries": 5,
        "poisoned": 1,
    },
    "batches": {"count": 71, "mean_size": 2.5774647887323945, "max_size": 8},
    "throughput_rps": 1218.02446640213,
    "makespan_ms": 151.0642889986518,
    "fleet": {
        "devices": 3,
        "utilization_spread": 0.9859832828060882,
        "nested_fallbacks": 0,
    },
    "phases_ms": {
        "parse": 0.17298172789712263,
        "eval": 1.179356126047103,
        "print": 0.04704347268071179,
        "transfer": 0.7114837000000007,
        "overhead": 300.788,
        "gc": 0.0011583472099190235,
    },
    "gc": {
        "nodes_freed": 642,
        "regions_reset": 71,
        "major_collections": 0,
        "simulated_ms": 0.0011583472099190235,
    },
    "jit": {"traces_compiled": 19, "trace_hits": 125, "guard_bails": 0},
    "bulk": {
        "jobs": 1,
        "chunks": 7,
        "elements": 24,
        "jobs_gathered": 1,
        "chunk_errors": 0,
    },
    "rebalance": {
        "migrations": 31,
        "nodes_moved": 247,
        "bytes_moved": 16286,
        "transfer_ms": 0.17247016666666665,
        "devices_drained": 2,
        "sessions_restored": 0,
    },
    "failover": {
        "devices_lost": 18,
        "device_hangs": 6,
        "sessions_recovered": 85,
        "requests_replayed": 36,
        "rpo_mean_rounds": 0.4235294117647059,
        "rpo_max_rounds": 2,
        "checkpoints_shipped": 41,
        "checkpoints_skipped": 2,
        "checkpoint_bytes": 22504,
        "checkpoint_transfer_ms": 0.015171500000000001,
        "restore_bytes": 42973,
        "restore_transfer_ms": 0.27375123333333334,
        "breaker_opens": 8,
        "probes_sent": 8,
        "probes_ok": 8,
        "devices_evicted": 0,
        "breaker_states": {
            "gtx1080#0": "closed",
            "tesla-v100#1": "closed",
            "intel-e5-2620#2": "closed",
        },
    },
    "devices": {
        "gtx1080#0": {
            "name": "gtx1080",
            "kind": "gpu",
            "capability_ms": 0.019402220564976147,
            "busy_ms": 151.0642889986518,
            "batches": 10,
            "requests": 14,
            "jobs": 20,
            "rounds": 10,
            "nested_fallbacks": 0,
            "faults": 5,
            "migrations_in": 2,
            "migrations_out": 18,
            "losses": 5,
            "hangs": 3,
            "recoveries_in": 26,
            "uptime": 1.0,
            "utilization": 1.0,
        },
        "tesla-v100#1": {
            "name": "tesla-v100",
            "kind": "gpu",
            "capability_ms": 0.011550216870915033,
            "busy_ms": 2.117425416993465,
            "batches": 15,
            "requests": 26,
            "jobs": 26,
            "rounds": 16,
            "nested_fallbacks": 0,
            "faults": 6,
            "migrations_in": 1,
            "migrations_out": 13,
            "losses": 6,
            "hangs": 0,
            "recoveries_in": 32,
            "uptime": 1.0,
            "utilization": 0.014016717193911808,
        },
        "intel-e5-2620#2": {
            "name": "intel-e5-2620",
            "kind": "cpu",
            "capability_ms": 0.000219965625,
            "busy_ms": 150.15184225000004,
            "batches": 46,
            "requests": 144,
            "jobs": 161,
            "rounds": 52,
            "nested_fallbacks": 0,
            "faults": 10,
            "migrations_in": 28,
            "migrations_out": 0,
            "losses": 7,
            "hangs": 3,
            "recoveries_in": 27,
            "uptime": 0.967741935483871,
            "utilization": 0.993959877912245,
        },
    },
    "queue_depths": {"gtx1080#0": 0, "tesla-v100#1": 0, "intel-e5-2620#2": 0},
}

SESSION_COUNTS = {"gtx1080#0": 0, "tesla-v100#1": 0, "intel-e5-2620#2": 11}

MIGRATIONS = [
    ("t2", "gtx1080#0", "intel-e5-2620#2", 1, 66, 0.005011),
    ("t8", "gtx1080#0", "intel-e5-2620#2", 0, 0, 0.005),
    ("t0", "tesla-v100#1", "intel-e5-2620#2", 8, 529, 0.0050529),
    ("t1", "gtx1080#0", "intel-e5-2620#2", 8, 529, 0.005088166666666667),
    ("t5", "gtx1080#0", "intel-e5-2620#2", 8, 529, 0.005088166666666667),
    ("t7", "tesla-v100#1", "gtx1080#0", 9, 593, 0.010158133333333333),
    ("t0", "tesla-v100#1", "gtx1080#0", 9, 593, 0.010158133333333333),
    ("t0", "gtx1080#0", "intel-e5-2620#2", 9, 593, 0.005098833333333334),
    ("t7", "gtx1080#0", "intel-e5-2620#2", 8, 529, 0.005088166666666667),
    ("t1", "gtx1080#0", "intel-e5-2620#2", 9, 593, 0.005098833333333334),
    ("t3", "gtx1080#0", "intel-e5-2620#2", 9, 593, 0.005098833333333334),
    ("t0", "tesla-v100#1", "intel-e5-2620#2", 9, 593, 0.0050593),
    ("t1", "gtx1080#0", "intel-e5-2620#2", 9, 593, 0.005098833333333334),
    ("t2", "tesla-v100#1", "intel-e5-2620#2", 9, 593, 0.0050593),
    ("t3", "tesla-v100#1", "intel-e5-2620#2", 9, 593, 0.0050593),
    ("t4", "tesla-v100#1", "intel-e5-2620#2", 8, 529, 0.0050529),
    ("t6", "tesla-v100#1", "intel-e5-2620#2", 8, 529, 0.0050529),
    ("t3", "tesla-v100#1", "intel-e5-2620#2", 9, 593, 0.0050593),
    ("t0", "gtx1080#0", "intel-e5-2620#2", 9, 593, 0.005098833333333334),
    ("t6", "tesla-v100#1", "intel-e5-2620#2", 9, 593, 0.0050593),
    ("t0", "gtx1080#0", "intel-e5-2620#2", 9, 593, 0.005098833333333334),
    ("t7", "tesla-v100#1", "intel-e5-2620#2", 9, 593, 0.0050593),
    ("t3", "gtx1080#0", "intel-e5-2620#2", 9, 593, 0.005098833333333334),
    ("t2", "tesla-v100#1", "intel-e5-2620#2", 9, 593, 0.0050593),
    ("t5", "tesla-v100#1", "intel-e5-2620#2", 9, 593, 0.0050593),
    ("t0", "gtx1080#0", "intel-e5-2620#2", 9, 593, 0.005098833333333334),
    ("t1", "gtx1080#0", "intel-e5-2620#2", 9, 593, 0.005098833333333334),
    ("t3", "gtx1080#0", "tesla-v100#1", 9, 593, 0.010158133333333333),
    ("t6", "gtx1080#0", "intel-e5-2620#2", 9, 593, 0.005098833333333334),
    ("bulk@intel-e5-2620#2/2", "gtx1080#0", "intel-e5-2620#2", 0, 0, 0.005),
    ("t3", "gtx1080#0", "intel-e5-2620#2", 9, 593, 0.005098833333333334),
]
