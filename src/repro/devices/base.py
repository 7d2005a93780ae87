"""The device protocol for UDMA-capable devices.

"The precise interpretation of addresses in device proxy space is device
specific" (section 4): each device defines what an offset into its
device-proxy window *means* -- a pixel, a disk block, a NIPT entry -- by
implementing :meth:`UDMADevice.dma_read` / :meth:`UDMADevice.dma_write`
against those offsets.

Devices also supply the DEVICE-SPECIFIC ERRORS field of the status word
through :meth:`UDMADevice.check_transfer`; the controller calls it before
committing an initiation, so a device can veto (for example) a misaligned
transfer, exactly as the paper's 4-byte-alignment example describes.
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.errors import DeviceError
from repro.sim.clock import Clock

#: Standardised low error bits (devices may define more from
#: :data:`ERR_DEVICE_BASE` upward).
ERR_ALIGNMENT = 1 << 0
ERR_RANGE = 1 << 1
ERR_READONLY = 1 << 2
ERR_DEVICE_BASE = 1 << 3


class UDMADevice(abc.ABC):
    """Base class for devices that accept UDMA transfers.

    Args:
        name: unique device name (also names its proxy window).
        proxy_size: bytes of device-proxy space the device needs.
        alignment: required alignment of transfer base addresses and
            lengths; 0 disables the check.  (The SHRIMP interface
            "transfers outgoing message data aligned on 4-byte boundaries".)
    """

    def __init__(self, name: str, proxy_size: int, alignment: int = 0) -> None:
        if proxy_size <= 0:
            raise DeviceError(f"{name}: proxy_size must be positive")
        self.name = name
        self.proxy_size = proxy_size
        self.alignment = alignment
        self.clock: Optional[Clock] = None
        # Span tracker when the owning Machine traces spans (repro.obs);
        # None otherwise, so call sites stay one attribute load.
        self._spans = None

    def attach(self, clock: Clock) -> None:
        """Wire the device to a node's clock."""
        self.clock = clock

    # --------------------------------------------------------- device side
    @abc.abstractmethod
    def dma_read(self, offset: int, nbytes: int) -> bytes:
        """Produce ``nbytes`` for a device-to-memory transfer.

        ``offset`` is the device-proxy offset naming the source inside the
        device.
        """

    @abc.abstractmethod
    def dma_write(self, offset: int, data: bytes) -> None:
        """Consume ``data`` from a memory-to-device transfer."""

    def dma_extra_cycles(self, offset: int, nbytes: int) -> int:
        """Device latency added to the DMA duration (e.g. a disk seek)."""
        return 0

    # ------------------------------------------------------------ checking
    def check_transfer(self, as_source: bool, offset: int, nbytes: int) -> int:
        """Return DEVICE-SPECIFIC ERROR bits for a prospective transfer.

        Zero means the device accepts.  The default implementation checks
        alignment (when configured) and that the range fits the proxy
        window; subclasses extend it.
        """
        errors = 0
        if self.alignment and (offset % self.alignment or nbytes % self.alignment):
            errors |= ERR_ALIGNMENT
        if offset < 0 or offset + nbytes > self.proxy_size:
            errors |= ERR_RANGE
        return errors

    def physical_errors(self, as_source: bool, offset: int, nbytes: int) -> int:
        """The *physical* subset of :meth:`check_transfer`.

        Alignment, range and direction constraints are properties of the
        device hardware; protection backends that bring their own access
        verdict (e.g. a capability table) still consult these.  Devices
        whose ``check_transfer`` folds in a protection lookup (the NIC's
        NIPT walk) override this to expose only the physical part; by
        default the two checks coincide.
        """
        return self.check_transfer(as_source, offset, nbytes)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} proxy_size={self.proxy_size:#x}>"
