"""Fault-isolated batch serving: one tenant's device fault must never
take down its co-tenants.

Covers the whole containment stack: per-job device-fault containment in
both device back-ends (with mid-batch nursery rollback), the scheduler's
quarantine policy for batch-fatal failures, the ServerStats fault and
cancellation accounting, the abort-path nursery-region leak fix, the
byte-vs-char payload offset fix, and the sanitized batch-capacity
accounting.
"""

from __future__ import annotations

import pytest

from repro.core.interpreter import InterpreterOptions
from repro.cpu.device import CPUDevice, CPUDeviceConfig
from repro.cpu.specs import INTEL_E5_2620
from repro.errors import (
    ArenaExhaustedError,
    DeviceShutdownError,
    HostProtocolError,
    LivelockError,
    is_containable_fault,
)
from repro.gpu.device import GPUDevice, GPUDeviceConfig
from repro.gpu.hostlink import gate_request
from repro.gpu.specs import GTX1080
from repro.runtime.batch import BatchRequest
from repro.serve import CuLiServer


def fault_server(gc_policy: str = "generational", **kwargs) -> CuLiServer:
    """A one-GPU server whose interpreter has the inject-fault builtin."""
    opts = InterpreterOptions.fast(
        enable_fault_injection=True, gc_policy=gc_policy
    )
    kwargs.setdefault("devices", ["gtx1080"])
    kwargs.setdefault("max_batch", 16)
    return CuLiServer(
        gpu_config=GPUDeviceConfig(interpreter=opts),
        cpu_config=CPUDeviceConfig(interpreter=opts),
        **kwargs,
    )


class TestContainmentClassification:
    def test_containable_faults(self):
        assert is_containable_fault(ArenaExhaustedError("x"))
        assert is_containable_fault(LivelockError("x"))

    def test_batch_fatal_faults(self):
        assert not is_containable_fault(DeviceShutdownError("x"))
        assert not is_containable_fault(HostProtocolError("x"))
        assert not is_containable_fault(ValueError("x"))


class TestAcceptanceScenario:
    """The issue's acceptance criterion: a 16-tenant batch containing one
    arena-exhausting request and one injected livelock resolves every
    other ticket with correct output, drain() completes with zero
    pending tickets, and the device serves subsequent batches."""

    @pytest.mark.parametrize("gc_policy", ["generational"])
    def test_sixteen_tenants_two_faults(self, gc_policy):
        with fault_server(gc_policy=gc_policy) as server:
            tenants = [server.open_session() for _ in range(16)]
            tickets = []
            for i, tenant in enumerate(tenants):
                if i == 3:
                    tickets.append(
                        tenant.submit('(inject-fault "arena-exhausted")')
                    )
                elif i == 11:
                    tickets.append(tenant.submit('(inject-fault "livelock")'))
                else:
                    tickets.append(tenant.submit(f"(* {i} {i})"))
            server.flush()
            assert server.pending == 0
            for i, ticket in enumerate(tickets):
                assert ticket.done
                if i == 3:
                    assert isinstance(ticket.error, ArenaExhaustedError)
                elif i == 11:
                    assert isinstance(ticket.error, LivelockError)
                else:
                    assert ticket.ok and ticket.output == str(i * i)
            # The device serves subsequent batches.
            assert tenants[0].eval("(+ 40 2)") == "42"
            snap = server.stats.snapshot()
            assert snap["faults"]["contained"] == 2
            assert snap["faults"]["batch_fatal"] == 0

    def test_real_arena_exhaustion_rollback_frees_co_tenants(self):
        """A genuinely arena-exhausting request (no injection): the
        mid-batch rollback returns its allocations so later jobs in the
        *same* batch can allocate, instead of cascading exhaustion."""
        device = GPUDevice(
            GTX1080,
            config=GPUDeviceConfig(
                interpreter=InterpreterOptions.fast(arena_capacity=800)
            ),
        )
        big = "(list " + "1 " * 600 + ")"
        result = device.submit_batch(
            [
                BatchRequest("(+ 1 2)"),
                BatchRequest(big),
                BatchRequest("(list 1 2 3 4 5 6 7 8)"),
                BatchRequest("(* 6 7)"),
            ]
        )
        assert result.outputs[0] == "3"
        assert isinstance(result.items[1].error, ArenaExhaustedError)
        assert result.outputs[2] == "(1 2 3 4 5 6 7 8)"
        assert result.outputs[3] == "42"
        assert device.interp.arena.gc_stats.checkpoint_rollbacks >= 1
        assert device.submit("(+ 2 2)").output == "4"
        device.close()

    def test_cpu_mirror_contains_faults(self):
        device = CPUDevice(
            INTEL_E5_2620,
            config=CPUDeviceConfig(
                interpreter=InterpreterOptions.fast(enable_fault_injection=True)
            ),
        )
        result = device.submit_batch(
            [
                BatchRequest("(+ 1 2)"),
                BatchRequest('(inject-fault "livelock")'),
                BatchRequest('(inject-fault "arena-exhausted")'),
                BatchRequest("(* 6 7)"),
            ]
        )
        assert result.outputs[0] == "3"
        assert isinstance(result.items[1].error, LivelockError)
        assert isinstance(result.items[2].error, ArenaExhaustedError)
        assert result.outputs[3] == "42"
        assert len(result.faults) == 2
        assert device.submit("(+ 2 2)").output == "4"
        device.close()

    def test_livelock_during_eval_contained_per_job(self):
        """A livelock raised *inside one job's evaluation* kills that job
        only; the batch-level engine-configuration livelocks (Fig. 12/13
        ablations) are raised before any job runs and still abort."""
        from tests.conftest import make_tiny_gpu_spec

        device = GPUDevice(
            make_tiny_gpu_spec(),
            config=GPUDeviceConfig(
                interpreter=InterpreterOptions.fast(enable_fault_injection=True),
            ),
        )
        result = device.submit_batch(
            [
                BatchRequest("(+ 1 1)"),
                BatchRequest('(inject-fault "livelock")'),
                BatchRequest("(+ 2 2)"),
            ]
        )
        assert result.outputs[0] == "2"
        assert isinstance(result.items[1].error, LivelockError)
        assert result.outputs[2] == "4"
        device.close()


class TestQuarantine:
    def test_batch_fatal_quarantines_then_poisons(self):
        """A batch-fatal failure requeues every ticket for a solo retry;
        the deterministically-crashing one resolves with its error after
        at most one solo retry, the rest succeed, drain terminates."""
        with fault_server() as server:
            tenants = [server.open_session() for _ in range(6)]
            healthy = [
                tenant.submit(f"(+ {i} 10)") for i, tenant in enumerate(tenants[:5])
            ]
            poison = tenants[5].submit('(inject-fault "protocol")')
            batches = server.flush()
            assert server.pending == 0
            for i, ticket in enumerate(healthy):
                assert ticket.ok and ticket.output == str(i + 10)
            assert isinstance(poison.error, HostProtocolError)
            assert poison.quarantined
            snap = server.stats.snapshot()
            assert snap["faults"]["batch_fatal"] == 2  # shared batch + solo retry
            assert snap["faults"]["quarantine_retries"] == 6
            assert snap["faults"]["poisoned"] == 1
            # 1 failed shared batch + 6 solo batches.
            assert batches == 7
            # The device survives the protocol fault and keeps serving.
            assert tenants[0].eval("(* 3 3)") == "9"

    def test_solo_fatal_resolves_without_retry(self):
        """A single-ticket batch that fails fatally already ran alone:
        it resolves immediately instead of being retried."""
        with fault_server() as server:
            tenant = server.open_session()
            ticket = tenant.submit('(inject-fault "shutdown")')
            batches = server.flush()
            assert batches == 1
            assert server.pending == 0
            assert isinstance(ticket.error, DeviceShutdownError)
            assert server.stats.snapshot()["faults"]["quarantine_retries"] == 0

    def test_fatal_batch_records_stats_and_history(self):
        """Satellite: device-failed batches must reach stats and the
        session history — bookkeeping never diverges from what tenants
        observed."""
        with fault_server() as server:
            a = server.open_session()
            b = server.open_session()
            ta = a.submit("(+ 1 1)")
            tb = b.submit('(inject-fault "shutdown")')
            server.flush()
            assert ta.ok
            # Both sessions saw exactly one command each; both histories
            # recorded it (including the poisoned one).
            assert len(a.history) == 1 and a.history[0].output == "2"
            assert len(b.history) == 1
            assert b.history[0].output == str(tb.stats.output)
            snap = server.stats.snapshot()
            assert (
                snap["requests"]["completed"] == snap["requests"]["enqueued"] == 2
            )

    def test_host_bug_propagates_instead_of_quarantining(self):
        """A non-CuLiError out of submit_batch is a simulator bug, not a
        device fault: tickets resolve (no tenant hangs) but the crash
        surfaces instead of being absorbed as quarantine."""
        with fault_server() as server:
            tenant = server.open_session()
            ticket = tenant.submit("(+ 1 1)")
            pdev = server.pool[tenant.device_id]

            def boom(requests):
                raise AttributeError("simulator bug")

            pdev.device.submit_batch = boom
            with pytest.raises(AttributeError):
                server.flush()
            assert ticket.done and isinstance(ticket.error, AttributeError)
            assert len(tenant.history) == 1
            assert server.stats.snapshot()["faults"]["batch_fatal"] == 0

    def test_quarantine_preserves_session_order(self):
        """A session's later command still executes after its quarantined
        predecessor resolves (strict REPL order survives requeueing)."""
        with fault_server() as server:
            tenant = server.open_session()
            other = server.open_session()
            first = tenant.submit('(inject-fault "shutdown")')
            second = tenant.submit("(+ 2 3)")
            bystander = other.submit("(* 2 2)")
            server.flush()
            assert server.pending == 0
            assert isinstance(first.error, DeviceShutdownError)
            assert second.ok and second.output == "5"
            assert bystander.ok and bystander.output == "4"


class TestAbortRegionLeak:
    """Regression: the abort path must close the open nursery region —
    otherwise the next transaction silently joins the aborted batch's
    region."""

    def _options(self):
        return InterpreterOptions.fast(enable_fault_injection=True)

    def test_gpu_batch_abort_closes_region(self):
        device = GPUDevice(
            GTX1080, config=GPUDeviceConfig(interpreter=self._options())
        )
        with pytest.raises(DeviceShutdownError):
            device.submit_batch(
                [BatchRequest("(+ 1 1)"), BatchRequest('(inject-fault "shutdown")')]
            )
        assert not device.interp.arena.region_active
        assert device.cmdbuf.dev_sync == 0
        assert device.submit("(+ 1 2)").output == "3"
        device.close()

    def test_gpu_submit_abort_closes_region(self):
        device = GPUDevice(
            GTX1080, config=GPUDeviceConfig(interpreter=self._options())
        )
        with pytest.raises(DeviceShutdownError):
            device.submit('(inject-fault "shutdown")')
        assert not device.interp.arena.region_active
        assert device.submit("(+ 1 2)").output == "3"
        device.close()

    def test_cpu_batch_abort_closes_region(self):
        device = CPUDevice(
            INTEL_E5_2620, config=CPUDeviceConfig(interpreter=self._options())
        )
        with pytest.raises(DeviceShutdownError):
            device.submit_batch(
                [BatchRequest("(+ 1 1)"), BatchRequest('(inject-fault "shutdown")')]
            )
        assert not device.interp.arena.region_active
        assert device.submit("(+ 1 2)").output == "3"
        device.close()


def uploaded_batch(texts: list[str]) -> tuple[bytes, list[int], GPUDevice]:
    """Run ``texts`` as one GPU batch; return the uploaded payload, the
    byte offset of each parsed request's source inside it, and the device."""
    device = GPUDevice(GTX1080)
    interp = device.interp
    uploads: list[str] = []
    offsets: list[int] = []
    upload, prepare = device.cmdbuf.host_upload, interp.prepare_command

    def record_upload(text):
        uploads.append(text)
        return upload(text)

    def record_prepare(source, ctx):
        offsets.append(source.base - device.input_region.base)
        return prepare(source, ctx)

    device.cmdbuf.host_upload = record_upload
    interp.prepare_command = record_prepare
    device.submit_batch([BatchRequest(t) for t in texts])
    (payload,) = uploads
    return payload.encode(), offsets, device


class TestMultibytePayloadOffsets:
    """Satellite: payload packing sizes requests in bytes, so base
    offsets must advance in bytes too — not characters."""

    def test_offsets_align_with_packed_payload(self):
        texts = ['(princ "héllo")', "(+ 1 2)", '(princ "λμν")', "(* 2 3)"]
        payload, offsets, device = uploaded_batch(texts)
        assert payload == " ".join(texts).encode()
        assert len(offsets) == len(texts)
        for text, off in zip(texts, offsets):
            data = text.encode()
            assert payload[off : off + len(data)] == data
        device.close()

    def test_refused_requests_carry_no_payload(self):
        payload, offsets, device = uploaded_batch(["(+ 1 2)", "(oops", "(* 2 3)"])
        assert payload == b"(+ 1 2) (* 2 3)"
        assert offsets == [0, 8]
        device.close()

    def test_multibyte_char_advances_by_encoded_size(self):
        _, offsets, device = uploaded_batch(["(é)", "(+ 1 2)"])
        # "(é)" is 3 chars but 4 bytes ("é" is 2 bytes in UTF-8), plus
        # the separator: byte offset 5, where the old char-based
        # accounting would misalign the second request at 4.
        assert offsets == [0, 5]
        device.close()

    def test_upload_is_packer_sizes_less_one_separator(self):
        """What the scheduler packs is what the device uploads, byte for byte."""
        texts = [
            '(princ "héllo")',
            "(+ 1\n2)\x00\x07",
            '  (princ "λμν")\t ',
            "\r\n(* 2 3)   ",
        ]
        device = GPUDevice(GTX1080)
        capacity = device.cmdbuf.capacity
        packed = sum(gate_request(t, capacity)[1] for t in texts)
        result = device.submit_batch([BatchRequest(t) for t in texts])
        assert result.upload_ms == device.spec.transfer_ms(packed - 1)
        device.close()

    def test_multibyte_batch_outputs_correct(self):
        device = GPUDevice(GTX1080)
        result = device.submit_batch(
            [
                BatchRequest('(princ "héllo")'),
                BatchRequest("(+ 1 2)"),
                BatchRequest('"λμν"'),
            ]
        )
        assert result.outputs[0] == 'héllo"héllo"'
        assert result.outputs[1] == "3"
        assert result.outputs[2] == '"λμν"'
        device.close()


class TestSanitizedCapacityAccounting:
    """Satellite: batch formation must size what the device sizes — the
    sanitized text — since the scheduler is the only payload packer."""

    def test_payload_size_uses_sanitized_bytes(self):
        raw = "(+ 1 2)" + "\x00" * 1000  # dropped by sanitization
        assert gate_request(raw, 64)[1] == len("(+ 1 2)".encode()) + 1
        assert gate_request("(é)", 64)[1] == len("(é)".encode()) + 1

    def test_boundary_raw_oversized_sanitized_fits_one_batch(self):
        """Two requests whose *raw* sizes each exceed the command buffer
        but whose sanitized payloads are tiny must share one batch and
        one buffer transaction (the old char/raw accounting split them)."""
        with fault_server(max_batch=8) as server:
            pdev = next(iter(server.pool.devices.values()))
            capacity = pdev.device.cmdbuf.capacity
            pad = "\x00" * capacity  # sanitization drops every byte
            a = server.open_session()
            b = server.open_session()
            ta = a.submit("(+ 1 2)" + pad)
            tb = b.submit("(* 2 3)" + pad)
            batch = server.scheduler.form_batch_async(pdev)
            assert batch == [ta, tb]
            result = server.scheduler.dispatch(pdev, batch)
            # One buffer transaction carries both sanitized texts.
            assert result.size == 2
            payload = len("(+ 1 2) (* 2 3)")
            assert result.upload_ms == pdev.device.spec.transfer_ms(payload)
            assert ta.output == "3" and tb.output == "6"

    def test_capacity_split_still_respected(self):
        """Sanitized sizing still splits genuinely over-capacity pairs."""
        with fault_server(max_batch=8) as server:
            pdev = next(iter(server.pool.devices.values()))
            capacity = pdev.device.cmdbuf.capacity
            n = (capacity // 2) // 2  # two of these exceed capacity
            big = "(+ " + "1 " * n + ")"
            a = server.open_session()
            b = server.open_session()
            ta = a.submit(big)
            tb = b.submit(big)
            batch = server.scheduler.form_batch_async(pdev)
            assert batch == [ta]
            assert len(pdev.queue) == 1
            server.scheduler.dispatch(pdev, batch)
            server.flush()
            assert ta.output == tb.output == str(n)


class TestCancellationAccounting:
    """Satellite: cancelled tickets must not leave enqueued > completed
    forever — the queue accounting balances in snapshot()/render()."""

    def test_close_session_records_cancellations(self):
        with fault_server() as server:
            a = server.open_session()
            b = server.open_session()
            a.submit("(+ 1 1)")
            a.submit("(+ 2 2)")
            kept = b.submit("(* 3 3)")
            a.close()
            snap = server.stats.snapshot()
            assert snap["requests"]["enqueued"] == 3
            assert snap["requests"]["cancelled"] == 2
            server.flush()
            snap = server.stats.snapshot()
            assert kept.ok
            assert (
                snap["requests"]["completed"] + snap["requests"]["cancelled"]
                == snap["requests"]["enqueued"]
            )
            assert "2 cancelled" in server.stats.render()

    def test_fault_lines_in_render(self):
        with fault_server() as server:
            tenant = server.open_session()
            tenant.submit('(inject-fault "arena-exhausted")')
            server.flush()
            rendered = server.stats.render()
            assert "1 contained" in rendered
            assert "0 batch-fatal" in rendered


class TestDeviceStatsFaults:
    def test_per_device_fault_counter(self):
        with fault_server() as server:
            tenant = server.open_session()
            tenant.submit('(inject-fault "livelock")')
            other = server.open_session()
            other.submit('(inject-fault "shutdown")')
            server.flush()
            device_id = tenant.device_id
            snap = server.stats.snapshot()
            # one contained + two batch-fatal attempts (shared + solo).
            assert snap["devices"][device_id]["faults"] == 3
