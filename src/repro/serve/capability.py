"""Capability calibration: modeled ms per request for a fixed probe batch.

A heterogeneous fleet (a Volta card next to a Fermi card next to a Xeon)
cannot compare load in request *counts* — the same queue depth means
wildly different drain times on unequal devices. This module gives every
registry spec a **capability** figure the placement and rebalancing
policies can normalize by: the modeled milliseconds one request of a
fixed probe workload costs on that device.

Calibration is empirical against the simulator itself, not a spec-sheet
heuristic: a throwaway device is built for the spec and one batch of
:data:`PROBE_FORMS` (the same cheap/heavy mix ``serve/traces.py``
draws) is executed through the ordinary ``submit_batch`` path, so the
probe pays exactly what serving pays — per-arch op costs, shared
service-round parallelism, command overheads, and transfer. The result
is pure modeled device time, deterministic per spec, and cached for the
process (one probe per spec name, ever).

Scores are conventionally read relative to the paper's flagship
(:data:`REFERENCE_SPEC_NAME`, the GTX 1080): ``capability_score > 1``
means faster per probe request. The calibrated figures (modeled ms per
probe request; see ``gpu/specs.py`` for the spec parameters behind
them) put the CPUs far ahead of every GPU on this single-REPL-command
shape — consistent with the paper's CPU-vs-GPU interactive results —
which is exactly the asymmetry capability-aware placement exploits.
"""

from __future__ import annotations

from typing import Union

from ..cpu.specs import CPUSpec
from ..gpu.specs import GPUSpec
from ..runtime.batch import BatchRequest
from ..runtime.devices import device_for, resolve_spec

__all__ = [
    "PROBE_FORMS",
    "REFERENCE_SPEC_NAME",
    "capability_probe_ms",
    "capability_score",
    "restore_ms_per_byte",
]

Spec = Union[GPUSpec, CPUSpec]

#: The fixed probe workload: one batch mirroring the serving trace mix —
#: mostly cheap interactive forms, a heavy-tailed minority of nested
#: arithmetic (the shape ``generate_trace`` draws). Every form is pure,
#: so the probe leaves no state behind and needs no tenant environment.
PROBE_FORMS: tuple[str, ...] = (
    "(+ 21 34)",
    "(* 7 9)",
    "(- 80 35)",
    "(if (< 3 5) 3 5)",
    "(car (cons 41 2))",
    "(+ 12 88)",
    "(* 11 13)",
    "(cdr (cons 1 99))",
    "(if (< 9 2) 9 2)",
    "(- 64 27)",
    "(+ 5 (* 6 (+ 7 (* 8 9))))",
    "(* 2 (+ 3 (* 4 (+ 5 6))))",
    "(+ 73 19)",
    "(car (cons 17 71))",
    "(+ 1 (* 2 (+ 3 (* 4 (+ 5 (* 6 (+ 7 8)))))))",
    "(* 9 (+ 8 (* 7 (+ 6 (* 5 (+ 4 (* 3 2)))))))",
)

#: Capability scores are quoted relative to this spec (the paper's
#: flagship GPU and the serving layer's default device).
REFERENCE_SPEC_NAME = "gtx1080"

#: Per-spec probe results, keyed by spec name. One probe per spec per
#: process: the throwaway device build is host wall time (real), but the
#: returned figure is pure modeled device ms — identical on every run.
_PROBE_CACHE: dict[str, float] = {}


def capability_probe_ms(spec: Union[str, Spec]) -> float:
    """Modeled ms per probe request on ``spec`` (cached per spec name).

    Builds one throwaway device with default options, runs the probe
    batch through ``submit_batch``, and returns
    ``times.total_ms / len(PROBE_FORMS)`` — the per-request service
    demand placement multiplies queue depths and session counts by.
    """
    if isinstance(spec, str):
        spec = resolve_spec(spec)
    cached = _PROBE_CACHE.get(spec.name)
    if cached is not None:
        return cached
    device = device_for(spec)
    try:
        result = device.submit_batch(
            [BatchRequest(text=text, env=None) for text in PROBE_FORMS]
        )
        ms = result.times.total_ms / len(PROBE_FORMS)
    finally:
        device.close()
    _PROBE_CACHE[spec.name] = ms
    return ms


def capability_score(spec: Union[str, Spec]) -> float:
    """Relative speed vs. the reference spec: > 1.0 is faster than a
    GTX 1080 on the probe workload, < 1.0 slower."""
    return capability_probe_ms(REFERENCE_SPEC_NAME) / capability_probe_ms(spec)


def restore_ms_per_byte(spec: Spec) -> float:
    """Modeled wire cost of landing one retained-heap byte on ``spec``.

    Bandwidth only — no per-transfer latency term — because placement
    uses it to weigh *standing* retained state (and an incoming
    restore's snapshot bytes), not to charge an actual transfer: the
    real charge still goes through ``link_ms`` when bytes move. CPUs
    share host memory, so their side is free, same as ``link_ms``.
    """
    if callable(getattr(spec, "transfer_ms", None)):
        return 1.0 / (spec.pcie_gbps * 1e6)
    return 0.0
