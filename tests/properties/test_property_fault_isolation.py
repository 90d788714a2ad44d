"""Property: fault containment is invisible to healthy tenants.

For random batches containing injected ``ArenaExhaustedError`` /
``LivelockError`` / parse-error requests interleaved with healthy
compute requests, every healthy tenant's output must be **byte-identical**
to its solo-run baseline (a batch of one on a fresh device), and its
own-work modeled phase timings must be equal too — under the fast
path's generational GC.

Which phases are "own work" differs by back-end: on the CPU every phase
(parse/eval/print/worker) is charged to the request's private context,
so all four must match exactly. On the GPU the request's own eval time
is ``worker_ms`` (a fresh uncached worker context — exact match
required), while the master's parse/print cycles flow through the L2
cache model whose state depends on every co-tenant's *position* in the
payload — an address-stream effect that exists for fault-free batches
too, so it is not a containment property and is not compared here.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interpreter import InterpreterOptions
from repro.cpu.device import CPUDevice, CPUDeviceConfig
from repro.cpu.specs import INTEL_E5_2620
from repro.errors import DeviceError
from repro.gpu.device import GPUDevice, GPUDeviceConfig
from repro.gpu.specs import GTX1080
from repro.runtime.batch import BatchRequest

#: Parse cache off: a healthy text repeated across a batch would hit the
#: cache and (correctly) charge less than its solo-run parse — a timing
#: difference that has nothing to do with fault containment.
OPTIONS = InterpreterOptions.fast(
    parse_cache_capacity=0, enable_fault_injection=True
)


FAULTS = (
    '(inject-fault "arena-exhausted")',
    '(inject-fault "livelock")',
    "(unclosed",  # parse error: isolated the same way, different path
)

ints = st.integers(min_value=-20, max_value=20)


@st.composite
def healthy_exprs(draw, depth: int = 0):
    if depth >= 2:
        return str(draw(ints))
    kind = draw(st.sampled_from(["int", "arith", "list", "if"]))
    if kind == "int":
        return str(draw(ints))
    if kind == "arith":
        op = draw(st.sampled_from(["+", "-", "*", "max", "min"]))
        return (
            f"({op} {draw(healthy_exprs(depth + 1))} "
            f"{draw(healthy_exprs(depth + 1))})"
        )
    if kind == "list":
        items = " ".join(str(draw(ints)) for _ in range(draw(st.integers(1, 3))))
        return f"(list {items})"
    return (
        f"(if (< {draw(ints)} {draw(ints)}) "
        f"{draw(healthy_exprs(depth + 1))} {draw(healthy_exprs(depth + 1))})"
    )


@st.composite
def faulty_batches(draw):
    """3..7 requests, at least one injected fault, at least one healthy."""
    n = draw(st.integers(min_value=3, max_value=7))
    healthy_slot = draw(st.integers(0, n - 1))
    texts = []
    for i in range(n):
        if i == healthy_slot:
            texts.append(draw(healthy_exprs()))
        elif draw(st.booleans()):
            texts.append(draw(st.sampled_from(FAULTS)))
        else:
            texts.append(draw(healthy_exprs()))
    if not any(t in FAULTS for t in texts):
        texts[(healthy_slot + 1) % n] = draw(st.sampled_from(FAULTS))
    return texts


def _run_gpu(texts: list):
    device = GPUDevice(GTX1080, config=GPUDeviceConfig(interpreter=OPTIONS))
    envs = [device.create_session_env(f"tenant-{i}") for i in range(len(texts))]
    result = device.submit_batch(
        [BatchRequest(t, env=e) for t, e in zip(texts, envs)]
    )
    device.close()
    return result


def _run_cpu(texts: list):
    device = CPUDevice(INTEL_E5_2620, config=CPUDeviceConfig(interpreter=OPTIONS))
    envs = [device.create_session_env(f"tenant-{i}") for i in range(len(texts))]
    result = device.submit_batch(
        [BatchRequest(t, env=e) for t, e in zip(texts, envs)]
    )
    device.close()
    return result


@settings(max_examples=15, deadline=None)
@given(faulty_batches())
def test_gpu_healthy_tenants_match_solo_baseline(texts):
    batch = _run_gpu(texts)
    assert batch.size == len(texts)
    for i, text in enumerate(texts):
        item = batch.items[i]
        if text in FAULTS:
            assert item.error is not None
            continue
        solo = _run_gpu([text]).items[0]
        # A healthy-grammar request may still hit a Lisp-level error
        # (e.g. a type mismatch): the property is that whatever happened
        # solo happens identically inside the faulty batch.
        assert type(item.error) is type(solo.error)
        assert str(item.error) == str(solo.error)
        assert item.stats.output == solo.stats.output  # byte-identical
        assert item.stats.times.worker_ms == solo.stats.times.worker_ms


@settings(max_examples=15, deadline=None)
@given(faulty_batches())
def test_cpu_healthy_tenants_match_solo_baseline(texts):
    batch = _run_cpu(texts)
    for i, text in enumerate(texts):
        item = batch.items[i]
        if text in FAULTS:
            assert item.error is not None
            continue
        solo = _run_cpu([text]).items[0]
        assert type(item.error) is type(solo.error)
        assert str(item.error) == str(solo.error)
        assert item.stats.output == solo.stats.output
        for phase in ("parse_ms", "eval_ms", "print_ms", "worker_ms"):
            assert getattr(item.stats.times, phase) == getattr(
                solo.stats.times, phase
            ), phase


@settings(max_examples=10, deadline=None)
@given(faulty_batches())
def test_device_faults_classified_and_device_survives(texts):
    """Injected device faults surface as contained DeviceErrors (parse
    errors as LispErrors), and the device serves a follow-up command."""
    device = GPUDevice(GTX1080, config=GPUDeviceConfig(interpreter=OPTIONS))
    result = device.submit_batch([BatchRequest(t) for t in texts])
    for text, item in zip(texts, result.items):
        if text.startswith("(inject-fault"):
            assert isinstance(item.error, DeviceError)
            assert item.faulted
        elif text in FAULTS:  # the parse-error injection
            assert item.error is not None and not item.faulted
    assert device.submit("(+ 40 2)").output == "42"
    assert not device.interp.arena.region_active
    device.close()
