"""The physical (and mirrored virtual) address map, with proxy regions.

Section 4 of the paper: "the physical address space contains three regions:
real memory space, memory proxy space, and device proxy space.  Accesses to
each region can be recognized by pattern-matching some number of high-order
address bits."

Section 5 offers two concrete PROXY() implementations -- flipping the high
order address bit, or adding a fixed offset.  Both are supported here (the
PROXY bench shows they behave identically, as the paper asserts).

The same layout function is applied in *virtual* space: a process computes
the virtual proxy address of a buffer as ``layout.proxy(vaddr)``, mirroring
Figure 2's parallel structure of the two address spaces.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import AddressError, ConfigurationError
from repro.params import DEFAULT_PAGE_SIZE


class ProxyScheme(enum.Enum):
    """How PROXY() maps a real address to its memory-proxy alias."""

    #: ``PROXY(a) = a XOR proxy_bit`` -- "flipping the high order address bit"
    HIGH_BIT = "high-bit"
    #: ``PROXY(a) = a + proxy_offset`` -- "lay out the memory proxy space at
    #: some fixed offset from the real memory space"
    OFFSET = "offset"


class Region(enum.Enum):
    """Classification of a physical (or virtual) address."""

    MEMORY = "memory"
    MEMORY_PROXY = "memory-proxy"
    DEVICE_PROXY = "device-proxy"
    UNMAPPED = "unmapped"

    @property
    def is_proxy(self) -> bool:
        return self in (Region.MEMORY_PROXY, Region.DEVICE_PROXY)


@dataclass(frozen=True)
class DeviceWindow:
    """A device's slice of the device-proxy region."""

    name: str
    base: int
    size: int

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.base + self.size


class Layout:
    """Address-map geometry shared by one node's hardware and kernel.

    Args:
        mem_size: bytes of real memory (region ``[0, mem_size)``).
        scheme: the PROXY() implementation.
        page_size: page/frame size.
        proxy_bit: for HIGH_BIT, the bit that distinguishes proxy space.
        proxy_offset: for OFFSET, the distance to the memory-proxy region.
        dev_proxy_base: start of the device-proxy window.
        dev_proxy_size: total size reserved for device-proxy windows.

    The default geometry is a 32-bit-flavoured map: memory low, memory
    proxy at ``1 << 31``, device proxy at ``0xC000_0000``.
    """

    def __init__(
        self,
        mem_size: int,
        scheme: ProxyScheme = ProxyScheme.HIGH_BIT,
        page_size: int = DEFAULT_PAGE_SIZE,
        proxy_bit: int = 1 << 31,
        proxy_offset: Optional[int] = None,
        dev_proxy_base: int = 0xC000_0000,
        dev_proxy_size: int = 0x2000_0000,
    ) -> None:
        if mem_size <= 0 or mem_size % page_size:
            raise ConfigurationError(
                f"mem_size {mem_size:#x} must be a positive multiple of "
                f"page_size {page_size:#x}"
            )
        self.page_size = page_size
        self.mem_size = mem_size
        self.scheme = scheme
        self.proxy_bit = proxy_bit
        self.proxy_offset = proxy_offset if proxy_offset is not None else proxy_bit
        self.dev_proxy_base = dev_proxy_base
        self.dev_proxy_size = dev_proxy_size
        self._windows: Dict[str, DeviceWindow] = {}
        self._next_window = dev_proxy_base
        self._validate_geometry()

    # --------------------------------------------------------------- PROXY
    def proxy(self, addr: int) -> int:
        """``PROXY(real address)`` -> proxy address (Figure 2).

        Applies to real-memory addresses in either the virtual or physical
        space; the mapping is identical in both (the key one-to-one
        association of section 4).
        """
        if not 0 <= addr < self.mem_size:
            raise AddressError(addr, "PROXY() argument must be a real memory address")
        if self.scheme is ProxyScheme.HIGH_BIT:
            return addr ^ self.proxy_bit
        return addr + self.proxy_offset

    def unproxy(self, proxy_addr: int) -> int:
        """``PROXY^-1(proxy address)`` -> real address.

        This is the translation the UDMA hardware applies to physical
        memory-proxy addresses before loading a DMA register (section 5).
        """
        if self.scheme is ProxyScheme.HIGH_BIT:
            real = proxy_addr ^ self.proxy_bit
        else:
            real = proxy_addr - self.proxy_offset
        if not 0 <= real < self.mem_size:
            raise AddressError(proxy_addr, "not a memory-proxy address")
        return real

    # ------------------------------------------------------ classification
    def region_of(self, addr: int) -> Region:
        """Classify an address by pattern-matching its high-order bits."""
        if 0 <= addr < self.mem_size:
            return Region.MEMORY
        if self._in_memory_proxy(addr):
            return Region.MEMORY_PROXY
        if self.dev_proxy_base <= addr < self.dev_proxy_base + self.dev_proxy_size:
            return Region.DEVICE_PROXY
        return Region.UNMAPPED

    def is_proxy(self, addr: int) -> bool:
        """True if the address lies in either proxy region."""
        return self.region_of(addr).is_proxy

    def _in_memory_proxy(self, addr: int) -> bool:
        if self.scheme is ProxyScheme.HIGH_BIT:
            return bool(addr & self.proxy_bit) and 0 <= (addr ^ self.proxy_bit) < self.mem_size
        return self.proxy_offset <= addr < self.proxy_offset + self.mem_size

    # ------------------------------------------------------ device windows
    def register_device(self, name: str, size: int) -> DeviceWindow:
        """Reserve a page-aligned window of device-proxy space.

        The window's addresses are the device's proxy addresses; their
        device-specific meaning (NIPT entry, disk block, pixel...) is up to
        the device (section 4: "the precise interpretation of addresses in
        device proxy space is device specific").
        """
        if name in self._windows:
            raise ConfigurationError(f"device window {name!r} already registered")
        if size <= 0:
            raise ConfigurationError(f"device window size must be positive, got {size}")
        size = -(-size // self.page_size) * self.page_size  # round up to pages
        end = self._next_window + size
        if end > self.dev_proxy_base + self.dev_proxy_size:
            raise ConfigurationError(
                f"device-proxy region exhausted while registering {name!r}"
            )
        window = DeviceWindow(name, self._next_window, size)
        self._windows[name] = window
        self._next_window = end
        return window

    def window_of(self, addr: int) -> DeviceWindow:
        """The device window containing a device-proxy address."""
        for window in self._windows.values():
            if window.contains(addr):
                return window
        raise AddressError(addr, "no device window covers this address")

    def window_by_name(self, name: str) -> DeviceWindow:
        """Look up a device window by its device name."""
        try:
            return self._windows[name]
        except KeyError:
            raise ConfigurationError(f"no device window named {name!r}") from None

    # ---------------------------------------------------------- page utils
    def page_of(self, addr: int) -> int:
        """Page number containing ``addr``."""
        return addr // self.page_size

    def page_base(self, addr: int) -> int:
        """Address of the first byte of the page containing ``addr``."""
        return addr & ~(self.page_size - 1)

    def page_offset(self, addr: int) -> int:
        """Offset of ``addr`` within its page."""
        return addr & (self.page_size - 1)

    def bytes_to_page_end(self, addr: int) -> int:
        """Bytes from ``addr`` to the end of its page (inclusive span)."""
        return self.page_size - self.page_offset(addr)

    # ------------------------------------------------------------ internal
    def _validate_geometry(self) -> None:
        if self.scheme is ProxyScheme.HIGH_BIT:
            if self.proxy_bit <= 0 or self.proxy_bit & (self.proxy_bit - 1):
                raise ConfigurationError(
                    f"proxy_bit must be a single set bit, got {self.proxy_bit:#x}"
                )
            if self.mem_size > self.proxy_bit:
                raise ConfigurationError(
                    "memory region would overlap its own proxy alias: "
                    f"mem_size {self.mem_size:#x} > proxy_bit {self.proxy_bit:#x}"
                )
            proxy_lo, proxy_hi = self.proxy_bit, self.proxy_bit + self.mem_size
        else:
            if self.proxy_offset < self.mem_size:
                raise ConfigurationError(
                    "proxy_offset places memory-proxy space inside real memory"
                )
            proxy_lo, proxy_hi = self.proxy_offset, self.proxy_offset + self.mem_size
        dev_lo = self.dev_proxy_base
        dev_hi = self.dev_proxy_base + self.dev_proxy_size
        if max(proxy_lo, dev_lo) < min(proxy_hi, dev_hi):
            raise ConfigurationError(
                "memory-proxy and device-proxy regions overlap: "
                f"[{proxy_lo:#x},{proxy_hi:#x}) vs [{dev_lo:#x},{dev_hi:#x})"
            )
        if dev_lo < self.mem_size:
            raise ConfigurationError("device-proxy region overlaps real memory")
        if self.dev_proxy_base % self.page_size or self.dev_proxy_size % self.page_size:
            raise ConfigurationError("device-proxy region must be page aligned")
