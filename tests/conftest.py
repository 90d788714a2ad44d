"""Shared fixtures for the test suite."""

from __future__ import annotations

import dataclasses

import pytest

from repro.context import CountingContext, NullContext
from repro.core.arena import NodeArena
from repro.core.interpreter import Interpreter, InterpreterOptions
from repro.core.nodes import REGION_FREE, Node
from repro.core.printer import Printer
from repro.cpu.device import CPUDevice, CPUDeviceConfig
from repro.cpu.specs import AMD_6272, INTEL_E5_2620
from repro.gpu.device import GPUDevice, GPUDeviceConfig
from repro.gpu.memory import OutputBuffer
from repro.gpu.specs import GTX480, GPUSpec
from repro.runtime.fidelity import Fidelity


@pytest.fixture
def ctx():
    """Charging disabled — pure semantics."""
    return NullContext()


@pytest.fixture
def counting_ctx():
    return CountingContext(max_depth=1024)


@pytest.fixture
def interp():
    return Interpreter()


@pytest.fixture
def run(interp, ctx):
    """Evaluate CuLi source on a bare interpreter, return the output."""

    def _run(source: str) -> str:
        return interp.process(source, ctx)

    return _run


def allocated_nodes(arena: NodeArena) -> set[Node]:
    """The arena's live nodes: every node it made that is not on its free
    list (a copy, so the caller may free while iterating)."""
    return {node for node in arena._nodes if node.region != REGION_FREE}


def print_text(node: Node, ctx, readable: bool = True) -> str:
    """``node`` as the printer writes it, into a scratch output buffer."""
    out = OutputBuffer()
    out.bind(ctx)
    Printer(ctx).print_node(node, out, readable=readable)
    return out.getvalue()


def counters(stats) -> dict:
    """A slotted stats object's counters (arena, JIT, parse cache) as a dict."""
    return {name: getattr(stats, name) for name in stats.__slots__}


def make_tiny_gpu_spec(**overrides) -> GPUSpec:
    """A small GPU (few workers) so round/livelock tests are cheap.

    Defaults: 2 SMs x 2 blocks x 32 threads = 4 blocks, 96 workers.
    """
    params = dict(
        name="tiny-gpu",
        sm_count=2,
        max_blocks_per_sm=2,
    )
    params.update(overrides)
    return dataclasses.replace(GTX480, **params)


@pytest.fixture
def tiny_gpu_spec():
    return make_tiny_gpu_spec()


@pytest.fixture
def tiny_gpu(tiny_gpu_spec):
    device = GPUDevice(tiny_gpu_spec)
    yield device
    device.close()


@pytest.fixture
def gpu_device():
    """A real-spec GPU device (GTX 480: modest postbox count)."""
    device = GPUDevice(GTX480)
    yield device
    device.close()


@pytest.fixture
def cpu_device():
    device = CPUDevice(INTEL_E5_2620)
    yield device
    device.close()


@pytest.fixture
def amd_device():
    device = CPUDevice(AMD_6272)
    yield device
    device.close()


@pytest.fixture
def full_fidelity_gpu(tiny_gpu_spec):
    device = GPUDevice(tiny_gpu_spec, config=GPUDeviceConfig(fidelity=Fidelity.FULL))
    yield device
    device.close()
