"""Deterministic host-work gates for the batch transaction.

Every modeled cycle figure comes from a *conversion*: one dot product of a
cost vector with an op-count row. On the host a conversion costs a numpy
array build and a dot, more than most of the interpreter work around it,
so each reader of rows (a master phase, the service lanes, the collector)
converts a row only the first time it meets it (``RowCycles``; DESIGN.md,
"Host-side charge folding"). This counts the conversions one
``submit_batch`` makes. The counter is a test-only cost vector, an
``ndarray`` subclass that counts ``@``, ``np.dot`` and ``ndarray.dot``
calls, so the code under test carries no counter.

Conversions per transaction on the batches below, the largest of six:
13 for a 1-request GPU batch before any memo (eleven ``master_cycles``
readings, the worker lane and the collector), 6 with a one-row memo per
reader, 2 with a memo of every row met; 34, 27 and 25 for an 8-request
GPU batch; 4, 4 and 3 for a 1-request CPU batch; 25, 25 and 25 for an
8-request CPU batch. Lower is fine; higher than a ceiling fails.

A CPU batch also converts its requests' phase rows in one
``CostTable.row_cycles`` call, whatever its size: one ``asarray`` per
batch, not one per request (8 calls for 8 requests before).

A GPU batch's host calls are gated too, cold and warm: Python calls plus
builtin calls made for ``repro``, counted with ``sys.setprofile``
(``benchmarks/host_calls.py::CallCounter``), so a call the transaction
adds per batch, per round or per job fails the gate.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import sys

import numpy as np
import pytest

import repro
from repro.core.interpreter import InterpreterOptions
from repro.cpu.device import CPUDevice, CPUDeviceConfig
from repro.cpu.specs import INTEL_E5_2620
from repro.gpu.device import GPUDevice, GPUDeviceConfig
from repro.gpu.specs import GTX1080
from repro.ops import CostTable
from repro.runtime.batch import BatchRequest

from benchmarks.host_calls import CallCounter

SETUP = (
    "(setq n 0)",
    "(setq acc nil)",
    "(defun bump (d) (setq n (+ n d)))",
    "(defun scaled (x) (* x 1))",
)

TEXTS = (
    "(setq n (+ n 1))",
    "(bump 3)",
    "(setq acc (cons 5 acc))",
    "n",
    "(scaled 7)",
    "(car acc)",
    "(+ 1 2)",
    "(defun scaled (x) (* x 3))",
)

#: (device kind, batch size) -> the most conversions one transaction may
#: make, as measured when every reader remembered each row it met. A
#: CPU batch gains only its collector row: its requests' rows are
#: converted together (``row_cycles``), and its three master readings
#: each meet a row the batch has just charged.
CEILINGS = {
    ("gpu", 1): 2,
    ("gpu", 8): 25,
    ("cpu", 1): 3,
    ("cpu", 8): 25,
}


class CountingVector(np.ndarray):
    """A cost vector that counts the dot products taken with it."""

    dots = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            CountingVector.dots += 1
        inputs = tuple(
            x.view(np.ndarray) if isinstance(x, CountingVector) else x for x in inputs
        )
        return getattr(ufunc, method)(*inputs, **kwargs)

    def __array_function__(self, func, types, args, kwargs):
        if func in (np.dot, np.inner, np.vdot):
            CountingVector.dots += 1
        args = tuple(
            x.view(np.ndarray) if isinstance(x, CountingVector) else x for x in args
        )
        return func(*args, **kwargs)

    def dot(self, other, out=None):
        CountingVector.dots += 1
        return self.view(np.ndarray).dot(other, out)


def _counted(spec):
    vector = np.array(spec.costs.vector).view(CountingVector)
    vector.setflags(write=False)
    return dataclasses.replace(
        spec, costs=CostTable(vector=vector, label=spec.costs.label)
    )


def _device(kind: str):
    opts = InterpreterOptions.fast(jit=True)
    if kind == "gpu":
        return GPUDevice(_counted(GTX1080), GPUDeviceConfig(interpreter=opts))
    return CPUDevice(_counted(INTEL_E5_2620), CPUDeviceConfig(interpreter=opts))


def _conversions(kind: str, size: int) -> list[int]:
    """Conversions per transaction over repeated ``size``-request batches
    in one session (the JIT threshold is crossed on the way)."""
    device = _device(kind)
    env = device.create_session_env("t")
    for text in SETUP:
        device.submit_batch([BatchRequest(text, env)])
    counts = []
    for _ in range(6):
        CountingVector.dots = 0
        result = device.submit_batch([BatchRequest(t, env) for t in TEXTS[:size]])
        counts.append(CountingVector.dots)
        assert not result.errors
    device.close()
    return counts


def test_counting_vector_leaves_figures_unchanged():
    """The counter only observes: a counted device's modeled figures
    equal a plain one's."""
    config = GPUDeviceConfig(interpreter=InterpreterOptions.fast())
    plain = GPUDevice(GTX1080, config)
    counted = GPUDevice(_counted(GTX1080), config)
    plain_env = plain.create_session_env("t")
    counted_env = counted.create_session_env("t")
    for text in (*SETUP, *TEXTS):
        a = plain.submit_batch([BatchRequest(text, plain_env)])
        b = counted.submit_batch([BatchRequest(text, counted_env)])
        assert dataclasses.astuple(a.times) == dataclasses.astuple(b.times)
        assert a.outputs == b.outputs


@pytest.mark.parametrize("kind,size", sorted(CEILINGS))
def test_conversions_per_transaction_at_or_below_ceiling(kind, size):
    counts = _conversions(kind, size)
    assert max(counts) <= CEILINGS[kind, size], counts


def test_unchanged_rows_are_not_converted_again():
    """Once a session's batch repeats, every reading meets a row its
    reader has met: a service round's distribution and collection charge
    the master the same counts whatever the request, and the request's
    parse, lane, print and collector rows repeat with its text. A warm
    1-request GPU transaction converts nothing."""
    counts = _conversions("gpu", 1)
    assert counts[3:] == [0, 0, 0], counts


@pytest.mark.parametrize("size", [1, 8])
def test_cpu_batch_converts_its_rows_in_one_call(size, monkeypatch):
    device = _device("cpu")
    env = device.create_session_env("t")
    for text in SETUP:
        device.submit_batch([BatchRequest(text, env)])
    row_cycles = CostTable.row_cycles
    calls = []

    def counted(table, rows):
        calls.append(len(rows))
        return row_cycles(table, rows)

    monkeypatch.setattr(CostTable, "row_cycles", counted)
    for _ in range(3):
        calls.clear()
        result = device.submit_batch([BatchRequest(t, env) for t in TEXTS[:size]])
        assert not result.errors
        assert calls == [3 * size]
    device.close()


#: Batch size -> the most calls one GPU ``submit_batch`` may make over
#: the six batches ``_gpu_batch_calls`` runs (:class:`CallCounter`:
#: Python calls into ``repro``, dataclass-generated ``__init__``\ s and
#: builtins called from ``repro`` frames), measured on CPython 3.11. The
#: first batch of each sequence is the largest: its texts still miss the
#: parse cache and the JIT. The parent of the lean batch transaction
#: counted 443 and 2,385 under this rule, 362 and 2,139 before each
#: request passed one upload gate, 357 and 2,120 before the reader
#: took one arena call per node and a nursery was released as a run, and
#: 309 and 1,886 before a parse-cache hit took one arena call per node.
GPU_BATCH_CALLS = {1: 305, 8: 1867}

#: The same for the warm batches that serving repeats, the fourth to
#: sixth of each sequence (the parent counted 303 and 1,736; 221 and
#: 1,419 before the one upload gate; 216 and 1,400 before the run
#: release; 215 and 1,385 before one arena call per cache-hit node).
GPU_BATCH_CALLS_WARM = {1: 214, 8: 1369}


@functools.lru_cache(maxsize=None)
def _gpu_batch_calls(size: int) -> tuple[int, ...]:
    opts = InterpreterOptions.fast(jit=True)
    device = GPUDevice(GTX1080, GPUDeviceConfig(interpreter=opts))
    env = device.create_session_env("t")
    for text in SETUP:
        device.submit_batch([BatchRequest(text, env)])
    counts = []
    for _ in range(6):
        counter = CallCounter(os.path.dirname(repro.__file__))
        requests = [BatchRequest(t, env) for t in TEXTS[:size]]
        sys.setprofile(counter)
        try:
            result = device.submit_batch(requests)
        finally:
            sys.setprofile(None)
        counts.append(counter.calls)
        assert not result.errors
    device.close()
    return tuple(counts)


@pytest.mark.parametrize("size", sorted(GPU_BATCH_CALLS))
def test_gpu_batch_calls_at_or_below_ceiling(size):
    counts = _gpu_batch_calls(size)
    assert max(counts) <= GPU_BATCH_CALLS[size], counts


@pytest.mark.parametrize("size", sorted(GPU_BATCH_CALLS_WARM))
def test_warm_gpu_batch_calls_at_or_below_ceiling(size):
    counts = _gpu_batch_calls(size)
    assert max(counts[3:]) <= GPU_BATCH_CALLS_WARM[size], counts
