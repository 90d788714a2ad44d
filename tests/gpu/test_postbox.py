"""Per-thread postboxes (paper Fig. 10/11)."""

import pytest

import repro.gpu.device as gpu_device
from repro.context import CountingContext
from repro.gpu.device import GPUDevice
from repro.gpu.postbox import Postbox, PostboxArray
from repro.gpu.specs import GPU_BY_NAME
from repro.ops import Op


class TestPostbox:
    def test_initial_flags(self):
        box = Postbox(3)
        assert box.active.value == 1
        assert box.work.value == 0
        assert box.sync.value == 0
        assert box.io is None

    def test_assign_raises_flags(self):
        ctx = CountingContext()
        box = Postbox(0)
        box.assign("job", ctx)
        assert box.work.value == 1
        assert box.sync.value == 1
        assert box.io == "job"

    def test_complete_clears_flags(self):
        ctx = CountingContext()
        box = Postbox(0)
        box.assign("job", ctx)
        box.complete("result", ctx)
        assert box.work.value == 0
        assert box.sync.value == 0
        assert box.io == "result"

    def test_collect_reads_and_clears_io(self):
        ctx = CountingContext()
        box = Postbox(0)
        box.assign("job", ctx)
        box.complete("result", ctx)
        assert box.collect(ctx) == "result"
        assert box.io is None
        assert ctx.counts.count_of(Op.POSTBOX_READ) == 1

    def test_full_handshake_uses_atomics(self):
        ctx = CountingContext()
        box = Postbox(0)
        box.assign("j", ctx)
        box.complete("r", ctx)
        # assign: work+sync stores; complete: work+sync stores
        assert ctx.counts.count_of(Op.ATOMIC_RMW) == 4


class TestPostboxArray:
    def test_indexing(self):
        boxes = PostboxArray(8)
        assert len(boxes) == 8
        assert boxes[5].thread_id == 5

    def test_deactivate_all(self):
        ctx = CountingContext()
        boxes = PostboxArray(4)
        boxes.deactivate_all(ctx)
        assert all(boxes[i].active.value == 0 for i in range(4))

    def test_rmw_accounting(self):
        ctx = CountingContext()
        boxes = PostboxArray(3)
        boxes[0].assign("x", ctx)
        boxes.deactivate_all(ctx)
        assert ctx.counts.count_of(Op.ATOMIC_RMW) == 2 + 3

    def test_requires_threads(self):
        with pytest.raises(ValueError):
            PostboxArray(0)


class EagerPostboxArray:
    """The array as it was before boxes were built lazily: one Postbox
    per thread, up front (the reference the lazy array must match)."""

    def __init__(self, n_threads: int) -> None:
        self.boxes = [Postbox(i) for i in range(n_threads)]

    def __len__(self) -> int:
        return len(self.boxes)

    def __getitem__(self, thread_id: int) -> Postbox:
        return self.boxes[thread_id]

    def deactivate_all(self, ctx) -> None:
        for box in self.boxes:
            box.deactivate(ctx)


def all_flags(boxes) -> list:
    """Every box's three flags (builds each lazy box)."""
    return [
        (b.active.value, b.work.value, b.sync.value)
        for b in (boxes[i] for i in range(len(boxes)))
    ]


def _device_lifetime(spec_name: str) -> dict:
    """Open a device, run serial and parallel commands, close it."""
    device = GPUDevice(GPU_BY_NAME[spec_name])
    outputs = [
        device.submit(text).output
        for text in (
            "(defun sq (x) (* x x))",
            "(||| 8 sq (1 2 3 4 5 6 7 8))",
            "(+ 1 2)",
        )
    ]
    device.close()
    return {
        "outputs": outputs,
        "rows": [list(row) for row in device.master_ctx.counts.rows],
        "flags": all_flags(device.postboxes),
        "base_latency_ms": device.base_latency_ms,
    }


class TestLazyPostboxes:
    def test_untouched_boxes_are_not_built(self):
        boxes = PostboxArray(1024)
        boxes[7].assign("x", CountingContext())
        assert len(boxes._boxes) == 1
        assert boxes[-1].thread_id == 1023
        with pytest.raises(IndexError):
            boxes[1024]

    def test_touch_after_deactivation_sees_the_sweep(self):
        ctx = CountingContext()
        boxes = PostboxArray(4)
        boxes.deactivate_all(ctx)
        assert boxes[2].active.value == 0
        assert all_flags(boxes) == [(0, 0, 0)] * 4
        assert ctx.counts.count_of(Op.ATOMIC_RMW) == 4

    @pytest.mark.parametrize("spec_name", ["gtx1080", "tesla-v100"])
    def test_device_lifetime_matches_eager_array(self, spec_name, monkeypatch):
        lazy = _device_lifetime(spec_name)
        monkeypatch.setattr(gpu_device, "PostboxArray", EagerPostboxArray)
        eager = _device_lifetime(spec_name)
        assert lazy == eager
        assert lazy["outputs"][1] == "(1 4 9 16 25 36 49 64)"
