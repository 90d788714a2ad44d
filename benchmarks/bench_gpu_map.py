"""Data-parallel ``gpu-map`` — fleet sharding vs one device, and SLO
coexistence.

Two claims guard the bulk collection path:

* **Sharding wins** — mapping 1k+ elements through the host-sharded
  fleet path (``CuLiServer.gpu_map``: capability-weighted contiguous
  chunks, one bulk carrier session per device) must beat the paper's
  single-device ``|||`` distribution of the same work by >= 1.3x
  modeled jobs/s, with byte-identical output. The win is pure
  parallelism across devices; the semantics never move. Both sides run
  on the workers: the solo ``|||`` is served in master mode as 1,024
  engine jobs, and every chunk makes one engine job per element.
* **Coexistence holds** — replaying an all-interactive SLO trace while
  a 2048-element bulk job co-runs, the tenants' p99 latency must stay
  within 3x the bulk-free baseline *and* under their SLO. Two scheduler
  rules carry this: bulk chunks take +inf EDF deadlines (interactive
  always admits first), and a chunk never joins a batch holding a
  deadline-bearing ticket (batches resolve atomically, so co-batching
  would bill chunk kernel time to the SLO tenant).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_gpu_map.py -q
"""

from __future__ import annotations

from repro import CuLiServer
from repro.serve import generate_trace
from repro.serve.bulk import split_list_text

from conftest import record_point

DEVICE = "gtx1080"
N_DEVICES = 4
N_ELEMENTS = 1024
FN = "(lambda (x) (+ (* x x) 3))"
#: Chunk size for the coexistence run: small enough that an in-flight
#: chunk kernel (the one thing an arriving interactive request can
#: still wait behind) costs well under the SLO.
COEXIST_CHUNK = 32
TRACE_SEED = 2018  # conf year of the source paper; any fixed seed works
TENANTS = 12
REQUESTS = 240
DURATION_MS = 2.0
INTERACTIVE_SLO_MS = 5.0
BULK_ELEMS = 2048
#: CI bound on interactive p99 inflation under a co-running bulk job
#: (measured ~1.08x at COEXIST_CHUNK with chunks on the workers, ~1.14x
#: when each chunk ran in one worker lane; ~12x before batch
#: segregation).
P99_BOUND = 3.0


def run_solo() -> dict:
    """The paper's path: one device, one ``|||`` distribution. The
    served request is the form alone, so the master evaluates it and
    the engine runs one job per element on the device's workers."""
    body = " ".join(str(x) for x in range(N_ELEMENTS))
    with CuLiServer(devices=[DEVICE]) as server:
        out = server.open_session().eval(
            f"(||| {N_ELEMENTS} {FN} ({body}))"
        )
        snap = server.stats.snapshot()
        (device,) = snap["devices"].values()
        assert (device["jobs"], snap["fleet"]["nested_fallbacks"]) == (
            N_ELEMENTS,
            0,
        ), "the solo ||| must run as one engine job per element"
        return {
            "output": out,
            "makespan_ms": snap["scheduler"]["makespan_ms"],
        }


def run_sharded() -> dict:
    """The fleet path: host-sharded ``gpu_map`` across N devices. Each
    chunk is a batch of its own, whose engine jobs are its elements."""
    with CuLiServer(devices=[DEVICE] * N_DEVICES) as server:
        batches = []
        record_batch = server.stats.record_batch

        def recording(device_id, result):
            batches.append(
                (result.jobs, [len(split_list_text(o)) for o in result.outputs])
            )
            record_batch(device_id, result)

        server.stats.record_batch = recording
        out = server.gpu_map(FN, list(range(N_ELEMENTS)), chunk_elems=128)
        snap = server.stats.snapshot()
        assert snap["fleet"]["nested_fallbacks"] == 0
        assert len(batches) == snap["bulk"]["chunks"]
        for jobs, (elements,) in batches:
            assert jobs == elements, "a chunk makes one engine job per element"
        return {
            "output": out,
            "makespan_ms": snap["scheduler"]["makespan_ms"],
            "bulk": snap["bulk"],
        }


def run_interactive(with_bulk: bool) -> dict:
    """Replay the all-interactive SLO trace, optionally against a
    co-running bulk job submitted at t=0; returns the tenants' latency
    distribution (bulk chunk tickets are carried by internal sessions
    and never enter the reservoir we read here)."""
    trace = generate_trace(
        seed=TRACE_SEED,
        tenants=TENANTS,
        requests=REQUESTS,
        duration_ms=DURATION_MS,
        interactive_share=1.0,
        interactive_slo_ms=INTERACTIVE_SLO_MS,
    )
    with CuLiServer(devices=[DEVICE] * N_DEVICES, max_batch=8) as server:
        job = None
        if with_bulk:
            job = server.submit_bulk(
                FN,
                list(range(BULK_ELEMS)),
                chunk_elems=COEXIST_CHUNK,
                arrival_ms=0.0,
            )
        sessions: dict[str, object] = {}
        tickets = []
        for req in trace:
            session = sessions.get(req.tenant)
            if session is None:
                session = sessions[req.tenant] = server.open_session(
                    name=req.tenant, slo_ms=req.slo_ms
                )
            tickets.append(session.submit(req.text, arrival_ms=req.arrival_ms))
        server.flush()
        if job is not None:
            assert len(job.result()) > 2  # gathered, non-empty
        latencies = sorted(t.resolve_ms - t.arrival_ms for t in tickets)
        return {
            "p50_ms": latencies[len(latencies) // 2],
            "p99_ms": latencies[int(0.99 * (len(latencies) - 1))],
            "makespan_ms": server.stats.snapshot()["scheduler"]["makespan_ms"],
        }


def test_sharded_gpu_map_beats_single_device(benchmark, capsys):
    """The acceptance claim: >= 1.3x modeled jobs/s over single-device
    ``|||`` at 1k+ elements, byte-identical results."""

    def compare():
        return run_solo(), run_sharded()

    solo, sharded = benchmark.pedantic(compare, rounds=1, iterations=1)
    assert sharded["output"] == solo["output"], (
        "sharding must never change the mapped result"
    )
    solo_rps = N_ELEMENTS / (solo["makespan_ms"] / 1000.0)
    shard_rps = N_ELEMENTS / (sharded["makespan_ms"] / 1000.0)
    speedup = shard_rps / solo_rps
    record_point(
        benchmark,
        devices=N_DEVICES,
        elements=N_ELEMENTS,
        chunks=sharded["bulk"]["chunks"],
        solo_jobs_per_sec=solo_rps,
        sharded_jobs_per_sec=shard_rps,
        speedup=speedup,
    )
    with capsys.disabled():
        print(
            f"\ngpu-map {N_ELEMENTS} elements: 1x {DEVICE} ||| "
            f"{solo_rps:,.0f} jobs/s -> {N_DEVICES}x {DEVICE} sharded "
            f"{shard_rps:,.0f} jobs/s ({speedup:.2f}x, "
            f"{sharded['bulk']['chunks']} chunks)"
        )
    assert speedup >= 1.3, (
        f"fleet sharding ({shard_rps:.0f} jobs/s) must beat one device "
        f"({solo_rps:.0f} jobs/s) by >= 1.3x at {N_ELEMENTS} elements"
    )


def test_interactive_p99_survives_co_running_bulk(benchmark, capsys):
    """The coexistence claim: a saturating bulk job must not blow the
    interactive tenants' tails — p99 within ``P99_BOUND`` x the
    bulk-free baseline and under the SLO itself."""

    def compare():
        return run_interactive(False), run_interactive(True)

    free, busy = benchmark.pedantic(compare, rounds=1, iterations=1)
    inflation = busy["p99_ms"] / free["p99_ms"]
    record_point(
        benchmark,
        devices=N_DEVICES,
        tenants=TENANTS,
        bulk_elements=BULK_ELEMS,
        chunk_elems=COEXIST_CHUNK,
        free_p50_ms=free["p50_ms"],
        busy_p50_ms=busy["p50_ms"],
        free_p99_ms=free["p99_ms"],
        busy_p99_ms=busy["p99_ms"],
        p99_inflation=inflation,
    )
    with capsys.disabled():
        print(
            f"\ninteractive p99 on {N_DEVICES}x {DEVICE}: bulk-free "
            f"{free['p99_ms']:.3f} ms -> under {BULK_ELEMS}-element bulk "
            f"{busy['p99_ms']:.3f} ms ({inflation:.2f}x, SLO "
            f"{INTERACTIVE_SLO_MS:.0f} ms)"
        )
    assert busy["p99_ms"] <= P99_BOUND * free["p99_ms"], (
        f"co-running bulk inflated interactive p99 {inflation:.2f}x "
        f"(bound {P99_BOUND}x): {free['p99_ms']:.3f} -> "
        f"{busy['p99_ms']:.3f} ms"
    )
    assert busy["p99_ms"] <= INTERACTIVE_SLO_MS, (
        f"interactive p99 under bulk ({busy['p99_ms']:.3f} ms) exceeds "
        f"the {INTERACTIVE_SLO_MS} ms SLO"
    )
