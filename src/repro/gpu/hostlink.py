"""Host <-> device command buffer (paper Fig. 8/9).

The paper allocates a shared C struct with ``cudaHostAlloc`` using the
``cudaHostAllocMapped`` flag, so host and device see the same memory
without explicit ``cudaMemcpy`` calls. Members:

* ``dev_active`` — host sets it to 0 to terminate the kernel,
* ``dev_sync``   — 1 while the device owns the buffer (host waits),
* ``command_buffer`` / ``buffer_length`` — the input or output string.

We reproduce the protocol state machine and account the transfer cost:
mapped memory still moves bytes over PCIe, one cache line at a time, so
uploads/downloads pay latency + size/bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import HostProtocolError, UnbalancedInputError
from .specs import GPUSpec

__all__ = ["CommandBuffer", "gate_request", "sanitize_input", "parens_balanced"]


def parens_balanced(text: str) -> bool:
    """The host's balance rule: equal numbers of '(' and ')'.

    The paper checks only equality of counts (not nesting), and so do we;
    nesting errors surface later in the device-side parser.
    """
    return text.count("(") == text.count(")")


def sanitize_input(text: str) -> str:
    """Host-side sanitization before upload: normalize whitespace/controls.

    The paper's host "fetches, sanitizes and uploads the input"; control
    characters would confuse the device tokenizer, so they become spaces.
    """
    if text.isprintable():  # nothing to replace or drop: the common case
        return text.strip()
    cleaned = []
    for ch in text:
        if ch in "\n\r\t\v\f":
            cleaned.append(" ")
        elif ch.isprintable() or ch == " ":
            cleaned.append(ch)
        # other control chars are dropped
    return "".join(cleaned).strip()


def gate_request(
    text: str, capacity: Optional[int]
) -> tuple[str, int, Optional[HostProtocolError]]:
    """The host's upload gate for one request: ``(text, nbytes, refusal)``.

    ``text`` is the sanitized command and ``nbytes`` its share of a batch
    payload: UTF-8 length plus one join-separator byte. ``refusal`` is
    None for a request the device accepts, else the exception it reports:
    :class:`~repro.errors.UnbalancedInputError` when the parenthesis
    counts differ, or :class:`~repro.errors.HostProtocolError` when the
    text alone exceeds ``capacity`` (None: a CPU, which has no command
    buffer). A refused request carries no payload, but the scheduler
    still packs it by ``nbytes``.
    """
    text = sanitize_input(text)
    size = len(text.encode())
    refusal: Optional[HostProtocolError] = None
    if not parens_balanced(text):
        refusal = UnbalancedInputError(
            f"unbalanced parentheses: {text.count('(')} '(' vs {text.count(')')} ')'"
        )
    elif capacity is not None and size > capacity:
        refusal = HostProtocolError(
            f"input of {size} B exceeds command buffer ({capacity} B)"
        )
    return text, size + 1, refusal


@dataclass
class CommandBuffer:
    """The mapped host/device struct plus protocol bookkeeping."""

    spec: GPUSpec
    capacity: int = 1 << 16
    dev_active: int = 1
    dev_sync: int = 0
    buffer_length: int = 0
    command_buffer: str = ""

    def host_upload(self, text: str) -> float:
        """Host writes the input and raises ``dev_sync``; returns ms spent.

        Raises if the protocol is violated (device still busy, kernel
        stopped, input too large). The text has passed
        :func:`gate_request`, so its parentheses are not counted again.
        """
        if not self.dev_active:
            raise HostProtocolError("kernel is not running (dev_active == 0)")
        if self.dev_sync:
            raise HostProtocolError("device still owns the buffer (dev_sync == 1)")
        nbytes = len(text.encode())
        if nbytes > self.capacity:
            raise HostProtocolError(
                f"input of {nbytes} B exceeds command buffer ({self.capacity} B)"
            )
        self.command_buffer = text
        self.buffer_length = nbytes
        self.dev_sync = 1
        return self.spec.transfer_ms(nbytes)

    def device_read(self) -> str:
        if not self.dev_sync:
            raise HostProtocolError("device read with dev_sync == 0")
        return self.command_buffer

    def device_write_result(self, text: str) -> None:
        """Device deposits the output string and releases the buffer."""
        if not self.dev_sync:
            raise HostProtocolError("device wrote result without owning the buffer")
        nbytes = len(text.encode())
        if nbytes > self.capacity:
            # The device truncates rather than overruns the shared struct.
            text = text.encode()[: self.capacity].decode(errors="ignore")
            nbytes = len(text.encode())
        self.command_buffer = text
        self.buffer_length = nbytes
        self.dev_sync = 0

    def host_download(self) -> tuple[str, float]:
        """Host reads the result after dev_sync fell; returns (text, ms)."""
        if self.dev_sync:
            raise HostProtocolError("host read while device owns the buffer")
        return self.command_buffer, self.spec.transfer_ms(self.buffer_length)

    def host_stop_kernel(self) -> None:
        """Host terminates the device loop (dev_active = 0, Fig. 9)."""
        self.dev_active = 0
