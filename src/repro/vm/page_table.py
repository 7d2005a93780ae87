"""Per-process page tables.

A sparse map from virtual page number to :class:`PTE`.  The kernel is the
only writer; the MMU is the main reader.  Reverse lookups (which virtual
pages map a given physical page?) support the I2/I4 maintenance paths,
where remapping a physical page must find and invalidate every mapping of
it and of its proxy alias.

The table also owns the CPU's translation cache for this address space
(:attr:`PageTable.xlat`, see ``repro/cpu/cpu.py``): every mutator that
changes what a virtual page translates to evicts that page's cached
translation, so the cache only ever holds entries equal to the current
PTE.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro.errors import ConfigurationError
from repro.vm.pte import PTE


class PageTable:
    """One address space's translations.

    Args:
        page_size: page size in bytes (must match the node's layout).
        name: owner label used in traces ("pid 3", "kernel", ...).
    """

    def __init__(self, page_size: int, name: str = "?") -> None:
        if page_size <= 0 or page_size & (page_size - 1):
            raise ConfigurationError(f"page_size must be a power of two, got {page_size}")
        self.page_size = page_size
        self.name = name
        self._entries: Dict[int, PTE] = {}
        #: Bumped on every *translation-relevant* change: map / unmap /
        #: present flips / writable flips / dirty clears.  The IOMMU's
        #: IOTLB stamps its entries with it (``repro/iommu/iommu.py``).
        #: ``clear_referenced`` deliberately neither bumps it nor evicts:
        #: the referenced bit never affects what an address translates to,
        #: and the clock-hand sweep would otherwise evict every cached
        #: translation each pass.
        self.generation = 0
        #: The CPU's translation cache for this address space: vpage ->
        #: ``repro.cpu.cpu._Translation``.  The CPU fills it; every
        #: mutator below evicts the page it edits (``_edited``).
        self.xlat: dict = {}

    # -------------------------------------------------------------- lookup
    def get(self, vpage: int) -> Optional[PTE]:
        """The PTE for a virtual page, or None if no entry exists at all."""
        return self._entries.get(vpage)

    def __contains__(self, vpage: int) -> bool:
        return vpage in self._entries

    def entries(self) -> Iterator[Tuple[int, PTE]]:
        """Iterate ``(vpage, pte)`` pairs (unspecified order)."""
        return iter(list(self._entries.items()))

    # ------------------------------------------------------------ mutation
    def map(
        self,
        vpage: int,
        pfn: int,
        writable: bool = True,
        user: bool = True,
        present: bool = True,
    ) -> PTE:
        """Install (or replace) the translation for ``vpage``."""
        pte = PTE(pfn=pfn, present=present, writable=writable, user=user)
        self._entries[vpage] = pte
        self._edited(vpage)
        return pte

    def unmap(self, vpage: int) -> Optional[PTE]:
        """Remove the translation entirely; returns the old PTE if any."""
        pte = self._entries.pop(vpage, None)
        if pte is not None:
            self._edited(vpage)
        return pte

    def set_present(self, vpage: int, present: bool) -> None:
        """Flip the present bit (page-out / page-in)."""
        self._require(vpage).present = present
        self._edited(vpage)

    def set_writable(self, vpage: int, writable: bool) -> None:
        """Flip write permission (used heavily by the I3 machinery)."""
        self._require(vpage).writable = writable
        self._edited(vpage)

    def clear_dirty(self, vpage: int) -> None:
        """Clear the dirty bit (page cleaning)."""
        self._require(vpage).dirty = False
        self._edited(vpage)

    def clear_referenced(self, vpage: int) -> None:
        """Clear the referenced bit (clock-hand sweep)."""
        self._require(vpage).referenced = False

    # ------------------------------------------------------------ internal
    def _edited(self, vpage: int) -> None:
        """One translation changed: bump the generation, evict its cache entry."""
        self.generation += 1
        self.xlat.pop(vpage, None)

    def _require(self, vpage: int) -> PTE:
        pte = self._entries.get(vpage)
        if pte is None:
            raise ConfigurationError(
                f"page table {self.name!r} has no entry for vpage {vpage:#x}"
            )
        return pte

    def __len__(self) -> int:
        return len(self._entries)
