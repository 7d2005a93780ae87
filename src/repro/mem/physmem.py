"""Byte-addressable physical memory.

A :class:`PhysicalMemory` is a flat array of frames.  All data that
"really exists" in a simulated node lives here; DMA engines, the CPU (via
the MMU) and the receive side of the NIC all read and write through this
object, so tests can verify end-to-end data movement byte for byte.

RAM is a private anonymous ``mmap``: the host's demand-zero paging backs
it, so a frame costs host memory only once something writes it, and
building a node does no memset.  ``MAP_PRIVATE`` matters -- Python's
default for an anonymous map is ``MAP_SHARED``, under which a forked
worker's writes would land in the parent's RAM.  Persisted state is
sparse to match: only frames that are not all zero are stored.

The zero-copy data plane hands out :class:`memoryview` windows via
:meth:`PhysicalMemory.view`; all internal byte/word/frame I/O routes
through one long-lived view of the backing buffer, so a ``read`` costs one
copy and a ``write`` from any buffer-protocol object (bytes, bytearray,
another node's view) costs exactly one copy into RAM.  See
``docs/PERFORMANCE.md`` for the ownership rules a view borrower must obey.
"""

from __future__ import annotations

import mmap
from typing import Dict

from repro.errors import AddressError, ConfigurationError
from repro.params import DEFAULT_PAGE_SIZE, WORD_SIZE
from repro.snapshot.protocol import SnapshotMixin

#: copy-on-write across ``os.fork()``; plain anonymous map where the
#: platform has no such flags (it is private to the process there)
_MAP_FLAGS = (
    {"flags": mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS}
    if hasattr(mmap, "MAP_PRIVATE") and hasattr(mmap, "MAP_ANONYMOUS")
    else {}
)


def _map_ram(size: int) -> mmap.mmap:
    """Zero-filled, demand-paged host memory of ``size`` bytes."""
    try:
        return mmap.mmap(-1, size, **_MAP_FLAGS)
    except (OSError, OverflowError, MemoryError) as exc:
        raise ConfigurationError(
            f"cannot map {size} bytes ({size:#x}) of simulated RAM: {exc}"
        ) from exc


class PhysicalMemory(SnapshotMixin):
    """Main memory of one node.

    Args:
        size: total bytes of RAM; must be a positive multiple of ``page_size``.
        page_size: frame size in bytes (power of two).
    """

    def __init__(self, size: int, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        if page_size <= 0 or page_size & (page_size - 1):
            raise ValueError(f"page_size must be a power of two, got {page_size}")
        if size <= 0 or size % page_size:
            raise ValueError(
                f"memory size {size} must be a positive multiple of the "
                f"page size {page_size}"
            )
        self.size = size
        self.page_size = page_size
        self._map = _map_ram(size)
        # One long-lived writable view; slicing it is allocation-light and
        # never copies the underlying RAM.
        self._mv = memoryview(self._map)

    @property
    def num_frames(self) -> int:
        """Number of physical frames."""
        return self.size // self.page_size

    # -------------------------------------------------------- snapshotting
    def __getstate__(self) -> dict:
        # Maps and memoryviews do not pickle.  RAM persists as its
        # non-zero frames only, so a mostly idle node snapshots (and
        # restores, and forks) in proportion to what it has written.
        page = self.page_size
        zero = bytes(page)
        ram = self._map
        frames: Dict[int, bytes] = {}
        for frame, base in enumerate(range(0, self.size, page)):
            data = ram[base : base + page]  # bytes: compared by memcmp
            if data != zero:
                frames[frame] = data
        return {"size": self.size, "page_size": page, "frames": frames}

    def __setstate__(self, state: dict) -> None:
        self.size = state["size"]
        self.page_size = state["page_size"]
        self._map = _map_ram(self.size)
        self._mv = memoryview(self._map)
        for frame, data in state["frames"].items():
            self.write_frame(frame, data)

    # -------------------------------------------------------- zero-copy I/O
    def view(self, paddr: int, nbytes: int) -> memoryview:
        """A writable :class:`memoryview` window onto RAM.

        The view *aliases* memory: writes through it are visible to every
        later read, with no copy in either direction.  Borrowers must
        treat it as a loan -- consume it inside the call that received it
        (or copy), never retain it across simulated time (see
        ``docs/PERFORMANCE.md``).
        """
        self._check_range(paddr, nbytes)
        return self._mv[paddr : paddr + nbytes]

    # ------------------------------------------------------------ byte I/O
    def read(self, paddr: int, nbytes: int) -> bytes:
        """Read ``nbytes`` starting at physical address ``paddr`` (one copy)."""
        self._check_range(paddr, nbytes)
        return bytes(self._mv[paddr : paddr + nbytes])

    def readinto(self, paddr: int, buf: "bytearray | memoryview") -> int:
        """Fill a caller-supplied writable buffer from RAM (one copy).

        The receive-side twin of :meth:`write`: callers that own a
        reusable buffer (``CPU.read_into``, snapshot capture) avoid the
        intermediate ``bytes`` object :meth:`read` would allocate.
        Returns the number of bytes copied (``len(buf)``).
        """
        mv = memoryview(buf)
        nbytes = len(mv)
        self._check_range(paddr, nbytes)
        mv[:] = self._mv[paddr : paddr + nbytes]
        return nbytes

    def write(self, paddr: int, data: "bytes | bytearray | memoryview") -> None:
        """Write ``data`` (any buffer-protocol object) at ``paddr`` (one copy)."""
        nbytes = len(data)
        self._check_range(paddr, nbytes)
        self._mv[paddr : paddr + nbytes] = data

    # ------------------------------------------------------------ word I/O
    def read_word(self, paddr: int) -> int:
        """Read one little-endian word as an unsigned integer."""
        self._check_range(paddr, WORD_SIZE)
        return int.from_bytes(self._mv[paddr : paddr + WORD_SIZE], "little")

    def write_word(self, paddr: int, value: int) -> None:
        """Write one little-endian word (value taken modulo 2**32)."""
        self.write(paddr, (value % (1 << 32)).to_bytes(WORD_SIZE, "little"))

    # ----------------------------------------------------------- frame I/O
    def frame_base(self, frame: int) -> int:
        """Physical address of the first byte of ``frame``."""
        if not 0 <= frame < self.num_frames:
            raise AddressError(frame * self.page_size, "no such frame")
        return frame * self.page_size

    def read_frame(self, frame: int) -> bytes:
        """Read an entire frame."""
        return self.read(self.frame_base(frame), self.page_size)

    def write_frame(self, frame: int, data: "bytes | bytearray | memoryview") -> None:
        """Overwrite an entire frame (data must be exactly one page)."""
        if len(data) != self.page_size:
            raise ValueError(
                f"frame write must be exactly {self.page_size} bytes, "
                f"got {len(data)}"
            )
        self.write(self.frame_base(frame), data)

    def zero_frame(self, frame: int) -> None:
        """Fill a frame with zero bytes (fresh-page semantics)."""
        base = self.frame_base(frame)
        self._mv[base : base + self.page_size] = bytes(self.page_size)

    # ------------------------------------------------------------ internal
    def _check_range(self, paddr: int, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError(f"negative length {nbytes}")
        if paddr < 0 or paddr + nbytes > self.size:
            raise AddressError(paddr, f"{nbytes}-byte access exceeds RAM size {self.size:#x}")
