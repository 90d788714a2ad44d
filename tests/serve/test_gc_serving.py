"""GC work surfaced through BatchResult and ServerStats (generational
region GC satellite): the serving layer reports nodes freed, regions
reset, major collections, and GC time per batch and server-wide."""

import pytest

from repro import BatchRequest, CuLiServer
from repro.core.interpreter import InterpreterOptions
from repro.gpu.device import GPUDevice, GPUDeviceConfig
from repro.gpu.specs import GTX1080


def gpu_device(**overrides):
    """A GTX 1080 on the fast path (generational GC) with ``overrides``."""
    options = InterpreterOptions.fast(**overrides)
    return GPUDevice(GTX1080, GPUDeviceConfig(interpreter=options))


class TestBatchResultGC:
    def test_generational_batch_reports_region_reset(self):
        dev = gpu_device()
        result = dev.submit_batch(
            [BatchRequest("(+ 1 2)"), BatchRequest("(* 3 4)")]
        )
        assert result.regions_reset == 1  # one region per batch txn
        assert result.major_collections == 0
        assert result.nodes_freed > 0
        assert result.gc_wall_ms > 0.0
        assert result.times.gc_ms > 0.0
        dev.close()

    def test_tenure_pressure_batch_reports_charged_major(self):
        """A watermark of zero forces the generational policy's fallback
        full sweep after every region reset; the batch reports it and
        charges it on top of the reset's own cost."""
        batch = [BatchRequest("(+ 1 2)")]
        dev = gpu_device()
        reset_only = dev.submit_batch(batch)
        dev.close()
        dev = gpu_device(gc_major_watermark=0.0)
        result = dev.submit_batch(batch)
        dev.close()
        assert reset_only.major_collections == 0
        assert result.regions_reset == 1
        assert result.major_collections >= 1
        assert result.times.gc_ms > reset_only.times.gc_ms

    def test_literal_batch_charges_no_gc_time(self):
        dev = GPUDevice(GTX1080)  # literal defaults
        result = dev.submit_batch([BatchRequest("(+ 1 2)")])
        assert result.times.gc_ms == 0.0
        assert result.regions_reset == 0
        assert result.nodes_freed > 0  # the uncharged sweep still runs
        dev.close()

    def test_gc_time_outside_kernel_phases(self):
        dev = gpu_device()
        result = dev.submit_batch([BatchRequest("(+ 1 2)")])
        times = result.times
        assert times.kernel_ms == times.parse_ms + times.eval_ms + times.print_ms
        assert times.total_ms == pytest.approx(
            times.kernel_ms + times.other_ms + times.transfer_ms
            + times.host_ms + times.gc_ms
        )
        dev.close()

    def test_item_gc_shares_sum_to_batch(self):
        dev = gpu_device()
        result = dev.submit_batch(
            [BatchRequest(f"(+ {i} 1)") for i in range(4)]
        )
        item_gc = sum(item.stats.times.gc_ms for item in result.items)
        assert item_gc == pytest.approx(result.times.gc_ms)
        dev.close()


class TestServerStatsGC:
    def test_server_accumulates_gc_work(self):
        with CuLiServer(devices=["gtx1080"], max_batch=8) as server:
            tenants = [server.open_session() for _ in range(4)]
            for i, tenant in enumerate(tenants):
                tenant.submit(f"(defun f-{i} (x) (+ x {i}))")
                tenant.submit(f"(f-{i} 10)")
            server.flush()
            stats = server.stats
            assert stats.gc_regions_reset >= 1  # fast path = generational
            assert stats.gc_major_collections == 0
            assert stats.gc_nodes_freed > 0
            assert stats.gc_wall_ms > 0.0
            snap = server.stats.snapshot()
            assert snap["gc"]["regions_reset"] == stats.gc_regions_reset
            assert snap["gc"]["nodes_freed"] == stats.gc_nodes_freed
            assert snap["phases_ms"]["gc"] == stats.phase_totals.gc_ms
            assert "nodes freed" in server.stats.render()

    def test_literal_serving_reports_majors_not_resets(self):
        with CuLiServer(
            devices=["gtx1080"], gpu_config=GPUDeviceConfig()
        ) as server:
            tenant = server.open_session()
            tenant.submit("(+ 1 2)")
            server.flush()
            assert server.stats.gc_regions_reset == 0
            assert server.stats.gc_major_collections >= 1
            assert server.stats.phase_totals.gc_ms == 0.0  # uncharged

    def test_tenant_state_survives_batched_region_resets(self):
        """Isolation + persistence under the generational default: many
        batches, retained bindings keep answering correctly."""
        with CuLiServer(devices=["gtx1080"], max_batch=8) as server:
            a = server.open_session()
            b = server.open_session()
            a.eval("(defun f (x) (* x x))")
            b.eval("(defun f (x) (+ x 100))")
            for _ in range(3):
                assert a.eval("(f 5)") == "25"
                assert b.eval("(f 5)") == "105"
            assert server.stats.gc_regions_reset >= 6


def test_unknown_gc_policy_names_the_two_policies():
    with pytest.raises(ValueError) as excinfo:
        InterpreterOptions(gc_policy="full")
    assert "'literal'" in str(excinfo.value)
    assert "'generational'" in str(excinfo.value)
