"""The host<->device command buffer protocol (paper Figs. 8/9)."""

import pytest

from repro.errors import HostProtocolError, UnbalancedInputError
from repro.gpu.hostlink import (
    CommandBuffer,
    gate_request,
    parens_balanced,
    sanitize_input,
)
from repro.gpu.specs import GTX480


@pytest.fixture
def buf():
    return CommandBuffer(GTX480)


class TestParensGate:
    def test_balanced(self):
        assert parens_balanced("(+ 1 (f 2))")
        assert parens_balanced("no parens at all")

    def test_unbalanced(self):
        assert not parens_balanced("(+ 1 2")
        assert not parens_balanced("())")

    def test_count_only_semantics(self):
        # Equal counts pass the gate even when nesting is wrong — exactly
        # the paper's (count-only) check. Nesting errors surface in the
        # device parser.
        assert parens_balanced(")(")


class TestSanitize:
    def test_newlines_become_spaces(self):
        assert sanitize_input("(+ 1\n2)") == "(+ 1 2)"

    def test_strip(self):
        assert sanitize_input("  (f)  ") == "(f)"

    def test_control_chars_dropped(self):
        assert sanitize_input("(f\x00\x01 1)") == "(f 1)"

    def test_tabs(self) -> None:
        assert sanitize_input("(a\tb)") == "(a b)"


class TestUploadGate:
    def test_accepted_text_is_sanitized_and_sized(self):
        # 11 characters, 12 UTF-8 bytes ("é" takes two), plus a separator.
        assert gate_request(" (princ\t\"é\")\x00 ", 64) == ('(princ "é")', 13, None)

    def test_over_capacity_refused_with_protocol_message(self):
        text, nbytes, refusal = gate_request("(" + "x" * 20 + ")", 16)
        assert nbytes == 23
        assert type(refusal) is HostProtocolError
        assert str(refusal) == "input of 22 B exceeds command buffer (16 B)"
        assert gate_request("(xx)", 4)[2] is None  # exactly at capacity

    def test_unbalanced_checked_before_capacity(self):
        _, _, refusal = gate_request("(" * 40, 16)
        assert isinstance(refusal, UnbalancedInputError)

    def test_no_capacity_never_refuses_on_size(self):
        text = "(" + "x" * 100_000 + ")"
        assert gate_request(text, None) == (text, len(text) + 1, None)

    def test_refused_request_still_sized(self):
        # The packer sizes a refused request like any other.
        assert gate_request("(é", 64)[1] == len("(é".encode()) + 1


class TestProtocol:
    def test_upload_sets_sync(self, buf):
        ms = buf.host_upload("(+ 1 2)")
        assert buf.dev_sync == 1
        assert buf.buffer_length == 7
        assert ms > 0

    def test_unbalanced_upload_refused(self, buf):
        # The gate refuses unbalanced text; host_upload only ever sees
        # gated text.
        _, _, refusal = gate_request("(+ 1 2", buf.capacity)
        assert isinstance(refusal, UnbalancedInputError)
        assert str(refusal) == "unbalanced parentheses: 1 '(' vs 0 ')'"

    def test_upload_while_device_busy(self, buf):
        buf.host_upload("(a)")
        with pytest.raises(HostProtocolError, match="owns the buffer"):
            buf.host_upload("(b)")

    def test_upload_after_stop(self, buf):
        buf.host_stop_kernel()
        with pytest.raises(HostProtocolError, match="not running"):
            buf.host_upload("(a)")

    def test_oversized_input(self, buf):
        with pytest.raises(HostProtocolError, match="exceeds"):
            buf.host_upload("(" + "x" * (buf.capacity + 10) + ")")

    def test_roundtrip(self, buf):
        buf.host_upload("(+ 1 2)")
        assert buf.device_read() == "(+ 1 2)"
        buf.device_write_result("3")
        text, ms = buf.host_download()
        assert text == "3"
        assert buf.dev_sync == 0
        assert ms > 0

    def test_device_read_without_sync(self, buf):
        with pytest.raises(HostProtocolError):
            buf.device_read()

    def test_device_write_without_sync(self, buf):
        with pytest.raises(HostProtocolError):
            buf.device_write_result("oops")

    def test_host_download_while_device_owns(self, buf):
        buf.host_upload("(a)")
        with pytest.raises(HostProtocolError):
            buf.host_download()

    def test_result_truncated_to_capacity(self, buf):
        buf.host_upload("(a)")
        buf.device_write_result("y" * (buf.capacity + 500))
        text, _ = buf.host_download()
        assert len(text) == buf.capacity


class TestTransferAccounting:
    def test_each_direction_charges_its_bytes(self, buf):
        up_ms = buf.host_upload("(+ 1 2)")
        buf.device_write_result("é")
        text, down_ms = buf.host_download()
        assert text == "é"
        assert up_ms == buf.spec.transfer_ms(7)
        assert down_ms == buf.spec.transfer_ms(2)  # bytes, not characters
        assert down_ms > 0

    def test_transfer_time_scales_with_size(self):
        spec = GTX480
        small = spec.transfer_ms(10)
        large = spec.transfer_ms(1_000_000)
        assert large > small
        assert small >= spec.pcie_latency_us / 1e3
