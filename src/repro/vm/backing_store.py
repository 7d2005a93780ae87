"""Backing store (swap) for the demand-paging substrate.

Pages are keyed by ``(asid, vpage)`` so each address space has its own swap
namespace.  The store also drives the paper's I3 discussion: a page's
backing copy is *out of date* exactly while its dirty bit is set, and the
content-consistency invariant guarantees incoming UDMA writes eventually
reach here.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError


class BackingStore:
    """An in-simulation swap device.

    Args:
        page_size: page size in bytes; all stored pages must match it.
    """

    def __init__(self, page_size: int) -> None:
        if page_size <= 0:
            raise ConfigurationError(f"page_size must be positive, got {page_size}")
        self.page_size = page_size
        self._pages: Dict[Tuple[int, int], bytes] = {}
        self.writes = 0
        self.reads = 0

    def save(self, asid: int, vpage: int, data: bytes) -> None:
        """Write one page to swap (page cleaning / page-out)."""
        if len(data) != self.page_size:
            raise ConfigurationError(
                f"backing store takes whole pages of {self.page_size} bytes, "
                f"got {len(data)}"
            )
        self._pages[(asid, vpage)] = bytes(data)
        self.writes += 1

    def load(self, asid: int, vpage: int) -> Optional[bytes]:
        """Read one page from swap, or None if never saved."""
        data = self._pages.get((asid, vpage))
        if data is not None:
            self.reads += 1
        return data

    def has(self, asid: int, vpage: int) -> bool:
        """True if a swap copy exists for this page."""
        return (asid, vpage) in self._pages

    def peek(self, asid: int, vpage: int) -> Optional[bytes]:
        """Inspection-only read: no counters, no simulated I/O.

        Used by logical-memory digests (the chaos convergence oracle)
        so observing a run never perturbs it.
        """
        return self._pages.get((asid, vpage))
