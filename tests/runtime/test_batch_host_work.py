"""Deterministic host-work gate for the batch transaction's cycle readings.

Every modeled cycle figure comes from a *conversion*: one dot product of a
cost vector with an op-count row. On the host a conversion costs a numpy
array build and a dot, more than most of the interpreter work around it,
so the transaction converts a row only when nothing it already converted
gives the answer (DESIGN.md, "Host-side charge folding"). This counts the
conversions one ``submit_batch`` makes. The counter is a test-only cost
vector, an ``ndarray`` subclass that counts ``@``, ``np.dot`` and
``ndarray.dot`` calls, so the code under test carries no counter.

Counts the conversions before this gate made, per transaction, on the
batches below: 13 for a 1-request GPU batch (eleven ``master_cycles``
readings, the worker lane and the collector), 34 for an 8-request GPU
batch, 4 for a 1-request CPU batch and 25 for an 8-request CPU batch.
Lower is fine; higher than a ceiling fails.

A CPU batch also converts its requests' phase rows in one
``CostTable.row_cycles`` call, whatever its size: one ``asarray`` per
batch, not one per request (8 calls for 8 requests before).

A GPU batch's host calls are gated too: Python calls plus builtin calls
made from ``repro`` frames, counted with ``sys.setprofile``, so a call
the round loop adds per round or per job fails the gate.
"""

from __future__ import annotations

import dataclasses
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
#: make, as measured when the readings were memoized. A 1-request CPU
#: batch gains nothing: it converts its collector row every time, and
#: its three master readings each meet a changed row.
CEILINGS = {
    ("gpu", 1): 6,
    ("gpu", 8): 27,
    ("cpu", 1): 4,
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
    """Once a session's batch repeats, the master's readings find their
    rows already converted, except EVAL, which a service round reads
    after distribution and after collection: a 1-request GPU transaction
    then converts those two EVAL rows and its collector row, whose
    charges may differ."""
    counts = _conversions("gpu", 1)
    assert counts[-1] <= 3, counts


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


#: Batch size -> the most Python calls plus builtin calls, made from
#: ``repro`` frames, that one GPU ``submit_batch`` may make over the six
#: batches ``_conversions`` runs, measured on CPython 3.11 before
#: ``|||`` and service rounds shared one round loop. The first batch of
#: each sequence is the largest: its texts still miss the parse cache and
#: the JIT.
GPU_BATCH_CALLS = {1: 436, 8: 2370}

_SRC = os.path.dirname(repro.__file__)


def _gpu_batch_calls(size: int) -> list[int]:
    opts = InterpreterOptions.fast(jit=True)
    device = GPUDevice(GTX1080, GPUDeviceConfig(interpreter=opts))
    env = device.create_session_env("t")
    for text in SETUP:
        device.submit_batch([BatchRequest(text, env)])
    counts = []
    for _ in range(6):
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            if event in ("call", "c_call"):
                calls += frame.f_code.co_filename.startswith(_SRC)

        requests = [BatchRequest(t, env) for t in TEXTS[:size]]
        sys.setprofile(profile)
        try:
            result = device.submit_batch(requests)
        finally:
            sys.setprofile(None)
        counts.append(calls)
        assert not result.errors
    device.close()
    return counts


@pytest.mark.parametrize("size", sorted(GPU_BATCH_CALLS))
def test_gpu_batch_calls_at_or_below_ceiling(size):
    counts = _gpu_batch_calls(size)
    assert max(counts) <= GPU_BATCH_CALLS[size], counts
