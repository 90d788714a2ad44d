"""Property: ``gpu-map`` is byte-identical to sequential ``mapcar``.

The bulk path earns its keep on makespan, never on semantics: mapping a
function over a list through the parallel engine — or host-sharded
across a whole fleet — must produce the same printed bytes as the
sequential ``mapcar`` oracle, and binding the result must retain the
same heap (node for node, digest-identical snapshots). Pinned across gc
policies, jit on/off, and heterogeneous fleets, the same matrix every
prior differential suite runs under.

REPRO_TEST_FLEET overrides the default pool with a comma-separated
device list, so CI's tier legs re-run this module on other fleets
without duplicating the tests.
"""

from __future__ import annotations

import os

import pytest

from repro.cpu.device import CPUDeviceConfig
from repro.gpu.device import GPUDeviceConfig
from repro.serve import CuLiServer
from repro.runtime.snapshot import snapshot_env

_FLEET_ENV = os.environ.get("REPRO_TEST_FLEET", "")
DEVICES = (
    [name.strip() for name in _FLEET_ENV.split(",") if name.strip()]
    or ["gtx1080", "gtx1080", "tesla-m40"]
)
MIXED_FLEET = ["gtx1080", "tesla-v100", "intel-e5-2620"]

GC_POLICIES = ["generational", "literal"]

FN = "(lambda (x) (+ (* x x) 3))"
DATA = list(range(40))
BODY = " ".join(str(x) for x in DATA)


def eval_in_session(text: str, **server_kwargs) -> str:
    server_kwargs.setdefault("devices", list(DEVICES))
    with CuLiServer(**server_kwargs) as server:
        return server.open_session().eval(text)


def mapcar_oracle(**server_kwargs) -> str:
    return eval_in_session(f"(mapcar {FN} ({BODY}))", **server_kwargs)


def gpu_map_single(**server_kwargs) -> str:
    """One ``gpu-map`` request through a tenant session (the builtin
    path: the device's own engine distributes, no host sharding)."""
    return eval_in_session(f"(gpu-map {FN} ({BODY}))", **server_kwargs)


def gpu_map_sharded(**server_kwargs) -> str:
    """The host-sharded fleet path (capability-weighted chunks)."""
    server_kwargs.setdefault("devices", list(DEVICES))
    with CuLiServer(**server_kwargs) as server:
        return server.gpu_map(FN, DATA, chunk_elems=8)


@pytest.mark.parametrize("gc_policy", GC_POLICIES)
def test_gpu_map_matches_mapcar_across_gc_policies(gc_policy):
    kwargs = (
        {}  # serving reclaims with the generational policy
        if gc_policy != "literal"
        # Default device configs serve the paper-literal interpreter.
        else {"gpu_config": GPUDeviceConfig(), "cpu_config": CPUDeviceConfig()}
    )
    want = mapcar_oracle(**kwargs)
    assert gpu_map_single(**kwargs) == want
    assert gpu_map_sharded(**kwargs) == want


@pytest.mark.parametrize("jit", [False, True])
def test_gpu_map_matches_mapcar_with_and_without_jit(jit):
    want = mapcar_oracle(jit=jit)
    assert gpu_map_single(jit=jit) == want
    assert gpu_map_sharded(jit=jit) == want


def test_gpu_map_matches_mapcar_on_a_mixed_fleet():
    want = mapcar_oracle(devices=list(MIXED_FLEET))
    assert gpu_map_single(devices=list(MIXED_FLEET)) == want
    assert gpu_map_sharded(devices=list(MIXED_FLEET)) == want


def test_full_matrix_single_value():
    """One fn/input pair swept through the whole matrix at once: every
    configuration must print the same bytes."""
    fn = "(lambda (x) (list x (* 2 x)))"
    body = " ".join(str(x) for x in range(12))
    outputs = set()
    for jit in (False, True):
        with CuLiServer(devices=list(DEVICES), jit=jit) as server:
            outputs.add(server.open_session().eval(f"(mapcar {fn} ({body}))"))
            outputs.add(server.open_session().eval(f"(gpu-map {fn} ({body}))"))
            outputs.add(server.gpu_map(fn, list(range(12))))
    assert len(outputs) == 1, outputs


@pytest.mark.parametrize("gc_policy", ["generational"])
def test_retained_heap_is_identical(gc_policy):
    """Binding a gpu-map result retains exactly the heap a mapcar
    result retains: snapshot digests (canonical serialization of the
    reachable subgraph) and node counts match."""

    def retained(form: str):
        with CuLiServer(devices=list(DEVICES)) as server:
            session = server.open_session(name="probe")
            device = server.pool[session.device_id].device
            assert device.interp.options.gc_policy == gc_policy
            session.eval(f"(setq r ({form} {FN} ({BODY})))")
            snap = snapshot_env(session.env, label="probe")
            return snap.node_count, snap.digest()

    map_nodes, map_digest = retained("mapcar")
    bulk_nodes, bulk_digest = retained("gpu-map")
    assert bulk_nodes == map_nodes
    assert bulk_digest == map_digest


def test_retained_heap_identical_on_mixed_fleet():
    def retained(form: str):
        with CuLiServer(devices=list(MIXED_FLEET)) as server:
            session = server.open_session(name="probe")
            session.eval(f"(setq r ({form} {FN} ({BODY})))")
            return snapshot_env(session.env, label="probe").digest()

    assert retained("gpu-map") == retained("mapcar")
