"""Golden pin of a single REPL command on both device kinds.

One fixed script of single commands runs through ``device.submit`` on a
GTX 1080 and on a Xeon E5-2620, each with the paper-literal options and
with the fast path plus the JIT, in a 4,000-node arena: healthy forms,
``(car 5)``, two unbalanced inputs, a parse error, a recursion-depth
fault, a ``|||`` alone and beside another form, a multi-form command, a
multibyte ``princ``, texts repeated past the JIT threshold, a text over
the GPU's 64 KiB command buffer and one whose parse exhausts the arena.

Each command records its output, ``repr(times)``, input and output
sizes, jobs, rounds and ``nodes_freed``, or the raised type and
message, then the arena's ``used`` count and its collection counters.
Host wall time is left out, and so is the count of mid-transaction
rollbacks, which a separate test pins. A change to the single-command
path that moves one cycle, one node or one collection fails here.

Regenerate the JSON file only for an intended change to a modeled
figure::

    PYTHONPATH=src python tests/runtime/test_single_command_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.interpreter import InterpreterOptions
from repro.cpu.device import CPUDeviceConfig
from repro.errors import ArenaExhaustedError
from repro.gpu.device import GPUDeviceConfig
from repro.runtime.batch import BatchRequest
from repro.runtime.devices import device_for

GOLDEN_PATH = Path(__file__).with_name("single_command_golden.json")

ARENA = 4000

SCRIPT = [
    "(defun sq (x) (* x x))",
    "(sq 12)",
    "(car 5)",
    "(+ 1 (* 2 3)",
    "(car '(1 2)))",
    ")(",
    "(defun deep (n) (+ 1 (deep (+ n 1))))",
    "(deep 0)",
    "(||| 4 sq (1 2 3 4))",
    '(princ "héllo")',
    "(setq acc (cons 1 '(2 3)))",
    "(append acc '(4))",
    "(+ 1 1) (* 2 3)",
    "(+ 1 1) (||| 2 sq (3 4))",
    "(sq 12)",
    "(sq 12)",
    "(sq 12)",
    "(||| 4 sq (1 2 3 4))",
    "(car 5)",
    '(string-length "' + "x" * 70000 + '")',
    "(length '(" + " ".join(["7"] * 4100) + "))",
    "(sq 5)",
]

DEVICES = ["gtx1080", "intel-e5-2620"]
OPTIONS = {
    "literal": lambda: InterpreterOptions(arena_capacity=ARENA),
    "fast-jit": lambda: InterpreterOptions.fast(arena_capacity=ARENA, jit=True),
}


def _device(name: str, options: str):
    opts = OPTIONS[options]()
    return device_for(
        name,
        gpu_config=GPUDeviceConfig(interpreter=opts),
        cpu_config=CPUDeviceConfig(interpreter=opts),
    )


def _arena(device) -> list:
    arena = device.interp.arena
    gc = arena.gc_stats
    return [
        arena.used,
        gc.minor_collections,
        gc.pure_resets,
        gc.major_collections,
        gc.nodes_freed,
        gc.nodes_promoted,
    ]


def run_script(name: str, options: str) -> list:
    """The pinned script on one device, as plain comparable values."""
    device = _device(name, options)
    records = []
    try:
        for text in SCRIPT:
            try:
                stats = device.submit(text)
            except Exception as exc:  # the raise is what is pinned
                record = ["raised", type(exc).__name__, str(exc)]
            else:
                record = [
                    "ok",
                    stats.output,
                    repr(stats.times),
                    stats.input_chars,
                    stats.output_chars,
                    stats.jobs,
                    stats.rounds,
                    stats.nodes_freed,
                ]
            records.append(record + _arena(device))
    finally:
        device.close()
    return records


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("options", list(OPTIONS))
@pytest.mark.parametrize("name", DEVICES)
def test_single_command_script_matches_golden(name, options):
    expected = _golden()[f"{name}/{options}"]
    for text, got, want in zip(SCRIPT, run_script(name, options), expected):
        assert got == want, text


@pytest.mark.parametrize("name", DEVICES)
def test_exhausting_command_is_rolled_back_as_a_served_request(name):
    """A single command whose parse exhausts the arena is contained as
    a served request is: its nursery allocations are rolled back to the
    job's watermark (one checkpoint rollback) before the command's
    collection, and the error is raised after the transaction closes."""
    text = SCRIPT[-2]
    rollbacks = []
    for served in (False, True):
        device = _device(name, "fast-jit")
        try:
            if served:
                result = device.submit_batch([BatchRequest(text)])
                assert isinstance(result.items[0].error, ArenaExhaustedError)
            else:
                with pytest.raises(ArenaExhaustedError):
                    device.submit(text)
            assert device.submit("(+ 2 3)").output == "5"
            rollbacks.append(device.interp.arena.gc_stats.checkpoint_rollbacks)
        finally:
            device.close()
    assert rollbacks == [1, 1]


@pytest.mark.parametrize("name", DEVICES)
def test_output_over_command_buffer_returns_whole(name):
    """A printed result longer than the 64 KiB command buffer in bytes
    comes back whole from a single command, as from a served request:
    each carries its own output, not the buffer's bytes."""
    chunk = "é" * 1000
    text = "(string-append " + " ".join(["s"] * 33) + ")"
    expected = '"' + "é" * 33000 + '"'
    assert len(expected.encode()) > 1 << 16

    outputs = []
    for served in (False, True):
        device = _device(name, "literal")
        try:
            device.submit(f'(setq s "{chunk}")')
            if served:
                outputs.append(device.submit_batch([BatchRequest(text)]).outputs[0])
            else:
                outputs.append(device.submit(text).output)
        finally:
            device.close()
    assert [len(output) for output in outputs] == [len(expected)] * 2
    assert outputs == [expected, expected]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(
            {
                f"{name}/{options}": run_script(name, options)
                for name in DEVICES
                for options in OPTIONS
            },
            indent=1,
            ensure_ascii=False,
        )
        + "\n"
    )
