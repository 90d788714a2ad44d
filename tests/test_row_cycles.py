"""Bit-identity pin for the op-count row -> cycles conversion.

Both devices turn a context's per-phase op-count rows into cycles. The
reference is one dot product per row, ``float(vector @ np.asarray(row))``:
that is the float summation order every modeled figure was recorded with.
``CostTable.row_cycles`` converts all of a request's rows to numpy at once
and must still take one dot per row.

``CostTable.row_cost`` converts one row and ``CostTable.cycles`` all of a
context's rows summed; with one live row the latter converts that row
alone, since adding all-zero rows is exact. The devices' master readings
convert a row only when it differs from the last rows they converted.
Each is pinned here against the reference.

Why not ``np.asarray(rows) @ vector``: a matrix-vector product goes to
BLAS gemv, which sums in another order. Over every registry spec's cost
vector and 6,000 seeded integer count sets of three rows each (54,000
sets), gemv differed from the per-row dots in the last bit for 6,940 sets
(numpy 2.4 with its bundled OpenBLAS, x86-64). The exact count depends on
the BLAS build, so it is recorded here, not asserted.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.cpu.device import CPUDevice
from repro.cpu.specs import ALL_CPUS, INTEL_E5_2620
from repro.gpu.device import GPUDevice
from repro.gpu.specs import ALL_GPUS, FUTURE_GPUS
from repro.ops import N_OPS, N_PHASES, Op, OpCounts, Phase
from tests.conftest import make_tiny_gpu_spec

SPECS = (*ALL_GPUS, *FUTURE_GPUS, *ALL_CPUS)


def _rows(rng: random.Random, n: int) -> list[list[float]]:
    """Integer-valued op counts, mostly small, some up to 10^6."""
    return [
        [
            float(rng.choice((0, 0, 0, 1, 2, rng.randrange(1, 1000), rng.randrange(1, 10**6))))
            for _ in range(N_OPS)
        ]
        for _ in range(n)
    ]


@pytest.mark.parametrize("spec", SPECS, ids=[s.name for s in SPECS])
def test_row_cycles_equals_per_row_dot(spec):
    vec = spec.costs.vector
    rng = random.Random(spec.name)
    for _ in range(600):
        rows = _rows(rng, 3)
        expected = [float(vec @ np.asarray(row, dtype=np.float64)) for row in rows]
        assert spec.costs.row_cycles(rows) == expected


def test_gpu_master_cycles_equals_per_row_dot():
    dev = GPUDevice(make_tiny_gpu_spec())
    vec = dev.spec.costs.vector
    rng = random.Random(7)
    ctx = dev.master_ctx
    for _ in range(200):
        ctx.counts.rows = _rows(rng, N_PHASES)
        ctx.extra_cycles = [rng.random() * 100 for _ in range(N_PHASES)]
        for phase in Phase:
            row = np.asarray(ctx.counts.rows[phase], dtype=np.float64)
            assert dev.master_cycles(phase) == float(vec @ row) + ctx.extra_cycles[phase]


@pytest.mark.parametrize("spec", SPECS, ids=[s.name for s in SPECS])
def test_row_cost_equals_per_row_dot(spec):
    vec = spec.costs.vector
    rng = random.Random(spec.name + "/row")
    for row in [[0.0] * N_OPS] + _rows(rng, 600):
        expected = float(vec @ np.asarray(row, dtype=np.float64))
        assert spec.costs.row_cost(row) == expected


@pytest.mark.parametrize("spec", SPECS, ids=[s.name for s in SPECS])
def test_cycles_equals_dot_of_total(spec):
    """No, one and several live rows: each equals the summed-rows dot."""
    vec = spec.costs.vector
    rng = random.Random(spec.name + "/total")
    for _ in range(300):
        rows = _rows(rng, N_PHASES)
        for r in range(N_PHASES):
            if rng.random() < 0.6:
                rows[r] = [0.0] * N_OPS
        counts = OpCounts(rows=rows)
        assert spec.costs.cycles(counts) == float(vec @ counts.total())


@pytest.mark.parametrize("kind", ["gpu", "cpu"])
def test_master_cycles_follow_in_place_charges(kind):
    """Readings between charges to the live rows, as a transaction makes
    them: each equals a fresh conversion of the row at that moment."""
    if kind == "gpu":
        dev = GPUDevice(make_tiny_gpu_spec())
    else:
        dev = CPUDevice(INTEL_E5_2620)
    vec = dev.spec.costs.vector
    ctx = dev.master_ctx
    rng = random.Random(11)
    ctx.reset()
    for _ in range(400):
        phase = rng.choice([Phase.PARSE, Phase.EVAL, Phase.PRINT])
        if rng.random() < 0.5:
            ctx.set_phase(phase)
            ctx.charge(rng.choice(list(Op)), rng.randrange(1, 4))
        if rng.random() < 0.05:
            ctx.reset()
        row = np.asarray(ctx.counts.rows[phase], dtype=np.float64)
        assert dev.master_cycles(phase) == float(vec @ row) + ctx.extra_cycles[phase]
