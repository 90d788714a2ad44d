"""GC cost — generational region reclamation on a growing retained heap.

The generational claim (DESIGN.md deviation #7): between-command
reclamation cost must scale with the *garbage a command produces*, not
with the data the server retains. The generational policy resets the
request's nursery region — O(survivors), O(1) when nothing escapes — so
its per-command cost stays flat as the retained tenured heap grows 16x,
and its per-batch cost stays flat as the tenant count grows 4x. The
literal policy's uncharged full mark-sweep is the oracle for how much
garbage there is: both policies must free the same nodes.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_gc.py -q
"""

from __future__ import annotations

from repro import CuLiServer
from repro.core.interpreter import InterpreterOptions
from repro.gpu.device import GPUDeviceConfig

from conftest import record_point

DEVICE = "gtx1080"


def build_server(gc_policy: str, n_tenants: int) -> tuple:
    """A one-device fast-path, JIT-on server reclaiming with ``gc_policy``."""
    options = InterpreterOptions.fast(gc_policy=gc_policy, jit=True)
    server = CuLiServer(
        devices=[DEVICE],
        max_batch=n_tenants,
        gpu_config=GPUDeviceConfig(interpreter=options),
    )
    tenants = [server.open_session() for _ in range(n_tenants)]
    return server, tenants


def warm_retained_heap(server, tenants, retained: int) -> None:
    """Give every tenant ``retained`` persistent defuns, flushing before
    any session hits the admission cap (``retained`` can exceed
    ``max_session_queue``; the warmup is excluded from measurement, so
    the extra flushes cost nothing that matters)."""
    for tenant in tenants:
        for i in range(retained):
            tenant.submit(f"(defun helper-{i} (x) (+ x {i}))")
            if (i + 1) % 32 == 0:
                server.flush()
    server.flush()


def serve_phase(server, tenants, retained: int, commands: int = 3) -> dict:
    """Run ``commands`` no-escape commands per tenant; returns the
    serving phase's own GC deltas (warmup excluded)."""
    stats = server.stats
    gc_ms0 = stats.phase_totals.gc_ms
    freed0 = stats.gc_nodes_freed
    done0 = stats.requests_completed
    batches0 = stats.batches
    for k, tenant in enumerate(tenants):
        for c in range(commands):
            tenant.submit(f"(helper-{(k + c) % retained} {k})")
    server.flush()
    gc_ms = stats.phase_totals.gc_ms - gc_ms0
    return {
        "gc_ms_per_command": gc_ms / (stats.requests_completed - done0),
        "gc_ms_per_batch": gc_ms / (stats.batches - batches0),
        "nodes_freed": stats.gc_nodes_freed - freed0,
        "regions_reset": stats.gc_regions_reset,
        "major_collections": stats.gc_major_collections,
    }


def measure(gc_policy: str, n_tenants: int, retained: int) -> dict:
    server, tenants = build_server(gc_policy, n_tenants)
    try:
        warm_retained_heap(server, tenants, retained)
        return serve_phase(server, tenants, retained)
    finally:
        server.close()


def test_gc_cost_flat_vs_retained_heap(benchmark, capsys):
    """Per-command GC cost stays flat (within 10%) as the retained
    tenured heap grows 16x under the generational policy."""
    N_TENANTS = 16
    SMALL, BIG = 8, 128  # 16x growth in retained defuns per tenant

    def run():
        return {
            retained: measure("generational", N_TENANTS, retained)
            for retained in (SMALL, BIG)
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    small = results[SMALL]["gc_ms_per_command"]
    big = results[BIG]["gc_ms_per_command"]
    record_point(
        benchmark,
        tenants=N_TENANTS,
        retained_small=SMALL,
        retained_big=BIG,
        generational_gc_ms_per_cmd_small=small,
        generational_gc_ms_per_cmd_big=big,
        generational_growth=big / small,
    )
    with capsys.disabled():
        print(
            f"\ngenerational GC cost/command on {DEVICE} ({N_TENANTS} tenants, "
            f"retained {SMALL}->{BIG} defuns): {small:.3g} -> {big:.3g} ms"
        )
    assert big <= small * 1.10, (
        f"generational GC cost must stay flat: {small} -> {big}"
    )


def test_gc_cost_vs_tenant_count(benchmark, capsys):
    """Per-batch GC cost stays flat (within 10%) from 4 to 16 tenants:
    one region reset per batch, however many tenants retain state. The
    literal full sweep frees exactly the same garbage."""
    RETAINED = 64
    FEW, MANY = 4, 16

    def run():
        return {
            (policy, n): measure(policy, n, RETAINED)
            for policy, n in (
                ("generational", FEW),
                ("generational", MANY),
                ("literal", MANY),
            )
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    few = results[("generational", FEW)]["gc_ms_per_batch"]
    many = results[("generational", MANY)]["gc_ms_per_batch"]
    freed = results[("generational", MANY)]["nodes_freed"]
    oracle_freed = results[("literal", MANY)]["nodes_freed"]
    record_point(
        benchmark,
        retained=RETAINED,
        generational_gc_ms_per_batch_few=few,
        generational_gc_ms_per_batch_many=many,
        generational_nodes_freed=freed,
        literal_nodes_freed=oracle_freed,
    )
    with capsys.disabled():
        print(
            f"\ngenerational GC/batch on {DEVICE} (retained {RETAINED}): "
            f"{FEW}t {few:.3g} ms, {MANY}t {many:.3g} ms; nodes freed at "
            f"{MANY}t: generational {freed}, literal {oracle_freed}"
        )
    assert many <= few * 1.10, (
        f"generational GC cost per batch must stay flat: {few} -> {many}"
    )
    assert freed == oracle_freed


def test_generational_collections_are_region_resets(benchmark):
    """Sanity on the mechanism: under the generational policy every
    serving batch ends in a region reset, never a major collection."""

    def run():
        return measure("generational", 8, 16)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    record_point(benchmark, **result)
    assert result["major_collections"] == 0
    assert result["regions_reset"] > 0
