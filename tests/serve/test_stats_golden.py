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
        "enqueued": 216,
        "completed": 213,
        "cancelled": 3,
        "rejected": 1,
        "errors": 4,
    },
    "latency": {
        "count": 148,
        "mean_ms": 0.027206178789129887,
        "p50_ms": 0.006181949999999992,
        "p95_ms": 0.10324146535947706,
        "p99_ms": 0.19179197320261443,
        "max_ms": 0.2603391333333335,
    },
    "scheduler": {
        "makespan_ms": 1.457,
        "tickets_examined": 261,
        "sessions_examined": 64,
        "devices": {
            "gtx1080#0": {
                "completed_ms": 1.457,
                "serial_ms": 1.467,
                "overlap_ms": 0.01,
                "engine_busy_ms": 0.935,
                "utilization": 0.642,
                "batches": 17,
            },
            "intel-e5-2620#2": {
                "completed_ms": 1.343,
                "serial_ms": 1.343,
                "overlap_ms": 0.0,
                "engine_busy_ms": 0.171,
                "utilization": 0.1277,
                "batches": 55,
            },
            "tesla-v100#1": {
                "completed_ms": 1.439,
                "serial_ms": 1.479,
                "overlap_ms": 0.04,
                "engine_busy_ms": 1.172,
                "utilization": 0.8143,
                "batches": 12,
            },
        },
    },
    "faults": {
        "contained": 1,
        "batch_fatal": 2,
        "quarantine_retries": 6,
        "poisoned": 1,
    },
    "batches": {"count": 84, "mean_size": 2.5238095238095237, "max_size": 8},
    "throughput_rps": 851.3745419496294,
    "makespan_ms": 250.18366125,
    "fleet": {
        "devices": 3,
        "utilization_spread": 0.7938689625639163,
        "nested_fallbacks": 0,
    },
    "phases_ms": {
        "parse": 0.16974778267286827,
        "eval": 1.137161320755766,
        "print": 0.0508681380994437,
        "transfer": 1.0612985333333345,
        "overhead": 400.9190000000001,
        "gc": 0.0014105013385067781,
    },
    "gc": {
        "nodes_freed": 834,
        "regions_reset": 84,
        "major_collections": 0,
        "simulated_ms": 0.0014105013385067781,
    },
    "jit": {"traces_compiled": 28, "trace_hits": 145, "guard_bails": 0},
    "bulk": {
        "jobs": 1,
        "chunks": 7,
        "elements": 24,
        "jobs_gathered": 1,
        "chunk_errors": 0,
    },
    "rebalance": {
        "migrations": 78,
        "nodes_moved": 619,
        "bytes_moved": 40810,
        "transfer_ms": 0.4667661333333331,
        "devices_drained": 3,
        "sessions_restored": 0,
    },
    "failover": {
        "devices_lost": 17,
        "device_hangs": 8,
        "sessions_recovered": 81,
        "requests_replayed": 65,
        "rpo_mean_rounds": 0.8024691358024691,
        "rpo_max_rounds": 2,
        "checkpoints_shipped": 41,
        "checkpoints_skipped": 2,
        "checkpoint_bytes": 22504,
        "checkpoint_transfer_ms": 0.0101122,
        "restore_bytes": 42602,
        "restore_transfer_ms": 0.29427726666666654,
        "breaker_opens": 7,
        "probes_sent": 7,
        "probes_ok": 7,
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
            "batch_ms": 0.04835616027795064,
            "request_ms": 0.016379960547604232,
            "busy_ms": 51.570617643020235,
            "batches": 17,
            "requests": 34,
            "jobs": 37,
            "rounds": 17,
            "nested_fallbacks": 0,
            "faults": 3,
            "migrations_in": 12,
            "migrations_out": 39,
            "losses": 3,
            "hangs": 1,
            "recoveries_in": 30,
            "uptime": 0.9852941176470589,
            "utilization": 0.2061310374360837,
        },
        "tesla-v100#1": {
            "name": "tesla-v100",
            "kind": "gpu",
            "capability_ms": 0.011550216870915033,
            "batch_ms": 0.0943050814379085,
            "request_ms": 0.005656149281045752,
            "busy_ms": 101.85932708104566,
            "batches": 12,
            "requests": 24,
            "jobs": 26,
            "rounds": 13,
            "nested_fallbacks": 0,
            "faults": 7,
            "migrations_in": 12,
            "migrations_out": 29,
            "losses": 6,
            "hangs": 2,
            "recoveries_in": 33,
            "uptime": 0.9852941176470589,
            "utilization": 0.40713820627663255,
        },
        "intel-e5-2620#2": {
            "name": "intel-e5-2620",
            "kind": "cpu",
            "capability_ms": 0.000219965625,
            "batch_ms": 0.00303833,
            "request_ms": 3.006999999999998e-05,
            "busy_ms": 250.18366125,
            "batches": 55,
            "requests": 155,
            "jobs": 187,
            "rounds": 64,
            "nested_fallbacks": 0,
            "faults": 10,
            "migrations_in": 54,
            "migrations_out": 10,
            "losses": 8,
            "hangs": 5,
            "recoveries_in": 18,
            "uptime": 0.9852941176470589,
            "utilization": 1.0,
        },
    },
    "queue_depths": {"gtx1080#0": 0, "tesla-v100#1": 0, "intel-e5-2620#2": 0},
}

SESSION_COUNTS = {"gtx1080#0": 0, "tesla-v100#1": 1, "intel-e5-2620#2": 10}

MIGRATIONS = [
    ("t1", "tesla-v100#1", "intel-e5-2620#2", 1, 66, 0.0050066),
    ("t2", "tesla-v100#1", "intel-e5-2620#2", 1, 66, 0.0050066),
    ("t8", "tesla-v100#1", "intel-e5-2620#2", 0, 0, 0.005),
    ("t2", "gtx1080#0", "intel-e5-2620#2", 0, 0, 0.005),
    ("t1", "gtx1080#0", "tesla-v100#1", 9, 593, 0.010158133333333333),
    ("t9", "gtx1080#0", "intel-e5-2620#2", 9, 593, 0.005098833333333334),
    ("t1", "gtx1080#0", "intel-e5-2620#2", 8, 529, 0.005088166666666667),
    ("t0", "intel-e5-2620#2", "tesla-v100#1", 9, 593, 0.0050593),
    ("t1", "intel-e5-2620#2", "gtx1080#0", 9, 593, 0.005098833333333334),
    ("t2", "intel-e5-2620#2", "tesla-v100#1", 9, 593, 0.0050593),
    ("t3", "intel-e5-2620#2", "gtx1080#0", 9, 593, 0.005098833333333334),
    ("t4", "intel-e5-2620#2", "tesla-v100#1", 9, 593, 0.0050593),
    ("t5", "intel-e5-2620#2", "tesla-v100#1", 9, 593, 0.0050593),
    ("t6", "intel-e5-2620#2", "gtx1080#0", 9, 593, 0.005098833333333334),
    ("t7", "intel-e5-2620#2", "gtx1080#0", 9, 593, 0.005098833333333334),
    ("t8", "intel-e5-2620#2", "gtx1080#0", 9, 593, 0.005098833333333334),
    ("t9", "intel-e5-2620#2", "gtx1080#0", 9, 593, 0.005098833333333334),
    ("t1", "gtx1080#0", "tesla-v100#1", 9, 593, 0.010158133333333333),
    ("t3", "gtx1080#0", "tesla-v100#1", 9, 593, 0.010158133333333333),
    ("t7", "gtx1080#0", "intel-e5-2620#2", 8, 529, 0.005088166666666667),
    ("t0", "tesla-v100#1", "intel-e5-2620#2", 8, 529, 0.0050529),
    ("t1", "gtx1080#0", "tesla-v100#1", 9, 593, 0.010158133333333333),
    ("t1", "tesla-v100#1", "intel-e5-2620#2", 9, 593, 0.0050593),
    ("t7", "tesla-v100#1", "intel-e5-2620#2", 9, 593, 0.0050593),
    ("t1", "gtx1080#0", "intel-e5-2620#2", 9, 593, 0.005098833333333334),
    ("t3", "gtx1080#0", "intel-e5-2620#2", 8, 529, 0.005088166666666667),
    ("t0", "tesla-v100#1", "intel-e5-2620#2", 8, 529, 0.0050529),
    ("t0", "tesla-v100#1", "gtx1080#0", 9, 593, 0.010158133333333333),
    ("t3", "tesla-v100#1", "gtx1080#0", 9, 593, 0.010158133333333333),
    ("t4", "tesla-v100#1", "gtx1080#0", 9, 593, 0.010158133333333333),
    ("t6", "tesla-v100#1", "gtx1080#0", 9, 593, 0.010158133333333333),
    ("t7", "gtx1080#0", "intel-e5-2620#2", 9, 593, 0.005098833333333334),
    ("t1", "gtx1080#0", "intel-e5-2620#2", 9, 593, 0.005098833333333334),
    ("t4", "gtx1080#0", "intel-e5-2620#2", 9, 593, 0.005098833333333334),
    ("t5", "gtx1080#0", "intel-e5-2620#2", 8, 529, 0.005088166666666667),
    ("t8", "gtx1080#0", "intel-e5-2620#2", 8, 529, 0.005088166666666667),
    ("t0", "gtx1080#0", "tesla-v100#1", 9, 593, 0.010158133333333333),
    ("t2", "gtx1080#0", "intel-e5-2620#2", 9, 593, 0.005098833333333334),
    ("t3", "gtx1080#0", "intel-e5-2620#2", 9, 593, 0.005098833333333334),
    ("t6", "gtx1080#0", "intel-e5-2620#2", 9, 593, 0.005098833333333334),
    ("t9", "gtx1080#0", "intel-e5-2620#2", 9, 593, 0.005098833333333334),
    ("t7", "gtx1080#0", "intel-e5-2620#2", 9, 593, 0.005098833333333334),
    ("t3", "tesla-v100#1", "intel-e5-2620#2", 9, 593, 0.0050593),
    ("t6", "tesla-v100#1", "intel-e5-2620#2", 8, 529, 0.0050529),
    ("t8", "tesla-v100#1", "intel-e5-2620#2", 8, 529, 0.0050529),
    ("t1", "gtx1080#0", "tesla-v100#1", 9, 593, 0.010158133333333333),
    ("t4", "gtx1080#0", "intel-e5-2620#2", 9, 593, 0.005098833333333334),
    ("t5", "gtx1080#0", "intel-e5-2620#2", 9, 593, 0.005098833333333334),
    ("bulk@intel-e5-2620#2/2", "gtx1080#0", "intel-e5-2620#2", 0, 0, 0.005),
    ("t7", "tesla-v100#1", "gtx1080#0", 8, 529, 0.010141066666666667),
    ("t0", "gtx1080#0", "intel-e5-2620#2", 9, 593, 0.005098833333333334),
    ("t1", "tesla-v100#1", "intel-e5-2620#2", 9, 593, 0.0050593),
    ("bulk@intel-e5-2620#2/2", "tesla-v100#1", "intel-e5-2620#2", 0, 0, 0.005),
    ("t1", "gtx1080#0", "intel-e5-2620#2", 9, 593, 0.005098833333333334),
    ("t0", "tesla-v100#1", "intel-e5-2620#2", 9, 593, 0.0050593),
    ("t2", "gtx1080#0", "intel-e5-2620#2", 9, 593, 0.005098833333333334),
    ("t3", "tesla-v100#1", "intel-e5-2620#2", 9, 593, 0.0050593),
    ("t4", "tesla-v100#1", "intel-e5-2620#2", 9, 593, 0.0050593),
    ("t7", "gtx1080#0", "intel-e5-2620#2", 9, 593, 0.005098833333333334),
    ("t5", "tesla-v100#1", "intel-e5-2620#2", 9, 593, 0.0050593),
    ("bulk@intel-e5-2620#2/2", "tesla-v100#1", "intel-e5-2620#2", 0, 0, 0.005),
    ("t2", "tesla-v100#1", "gtx1080#0", 8, 529, 0.010141066666666667),
    ("t0", "gtx1080#0", "intel-e5-2620#2", 9, 593, 0.005098833333333334),
    ("t2", "gtx1080#0", "intel-e5-2620#2", 9, 593, 0.005098833333333334),
    ("t3", "gtx1080#0", "intel-e5-2620#2", 9, 593, 0.005098833333333334),
    ("t4", "gtx1080#0", "intel-e5-2620#2", 9, 593, 0.005098833333333334),
    ("t3", "gtx1080#0", "tesla-v100#1", 9, 593, 0.010158133333333333),
    ("t4", "gtx1080#0", "tesla-v100#1", 9, 593, 0.010158133333333333),
    ("bulk@intel-e5-2620#2/2", "gtx1080#0", "intel-e5-2620#2", 0, 0, 0.005),
    ("t0", "tesla-v100#1", "intel-e5-2620#2", 9, 593, 0.0050593),
    ("t1", "tesla-v100#1", "intel-e5-2620#2", 9, 593, 0.0050593),
    ("t5", "gtx1080#0", "intel-e5-2620#2", 9, 593, 0.005098833333333334),
    ("t2", "tesla-v100#1", "intel-e5-2620#2", 9, 593, 0.0050593),
    ("t3", "tesla-v100#1", "intel-e5-2620#2", 9, 593, 0.0050593),
    ("t4", "tesla-v100#1", "intel-e5-2620#2", 8, 529, 0.0050529),
    ("t6", "tesla-v100#1", "intel-e5-2620#2", 8, 529, 0.0050529),
    ("t7", "gtx1080#0", "intel-e5-2620#2", 9, 593, 0.005098833333333334),
    ("t9", "gtx1080#0", "intel-e5-2620#2", 9, 593, 0.005098833333333334),
]
