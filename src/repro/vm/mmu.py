"""The memory-management unit.

The MMU is the linchpin of the UDMA protection argument: because proxy
pages are mapped through perfectly ordinary page-table entries, the MMU's
translation and permission checking *are* the UDMA permission check
(section 4).  This model therefore implements exactly what commodity MMU
hardware does -- TLB lookup, page-table walk on a miss, present/user/write
permission checks, referenced and dirty bit maintenance -- and nothing
UDMA-specific.

:meth:`MMU.translate` is also the *authoritative slow path* behind the
CPU's software translation cache (``repro/cpu/cpu.py``): the CPU serves
repeat accesses from the page table's cache, which the page table's
mutators evict page by page, and every miss falls back to this method.
Anything that changes what an address translates to (pfn, present,
writable, user) must therefore go through the page table's mutators --
never by assigning those PTE fields directly, or the cache above this
layer cannot see the change -- paired, as in hardware, with a TLB
shootdown.  The referenced/dirty use bits are exempt: they never alter a
translation.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.errors import PageFault
from repro.params import CostModel
from repro.sim.clock import Clock
from repro.vm.page_table import PageTable
from repro.vm.tlb import TLB, TlbEntry
from repro.snapshot.protocol import SnapshotMixin


class Access(enum.Enum):
    """The two access types the MMU distinguishes."""

    READ = "read"
    WRITE = "write"


class MMU(SnapshotMixin):
    """Translates virtual addresses and enforces page protection.

    Args:
        costs: cost model (for the TLB-miss walk penalty).
        clock: optional clock to charge walk penalties to.
        tlb: optional externally built TLB (a default one is created).
    """

    def __init__(
        self,
        costs: CostModel,
        clock: Optional[Clock] = None,
        tlb: Optional[TLB] = None,
    ) -> None:
        self.costs = costs
        self.clock = clock
        self.tlb = tlb if tlb is not None else TLB(costs.tlb_entries)
        self.page_size = costs.page_size
        self._page_shift = costs.page_size.bit_length() - 1
        self.faults = 0

    def translate(
        self,
        table: PageTable,
        asid: int,
        vaddr: int,
        access: Access,
        user_mode: bool = True,
    ) -> int:
        """Translate ``vaddr`` through ``table``, or raise :class:`PageFault`.

        On success the referenced bit is set, and the dirty bit too for
        writes -- in the authoritative page table, not the TLB snapshot.

        Faults raised (``reason`` field):
            * ``"not-mapped"`` -- no PTE exists at all.
            * ``"not-present"`` -- PTE exists but the page is not in core.
            * ``"protection"`` -- write to a read-only page, or user access
              to a kernel-only page.
        """
        vpage = vaddr >> self._page_shift
        offset = vaddr & (self.page_size - 1)

        cached = self.tlb.lookup(asid, vpage)
        if cached is None:
            pte = self._walk(table, asid, vpage, vaddr, access)
            cached = TlbEntry(pfn=pte.pfn, writable=pte.writable, user=pte.user)
            self.tlb.insert(asid, vpage, cached)

        if user_mode and not cached.user:
            self._fault(vaddr, access, "protection")
        if access is Access.WRITE and not cached.writable:
            # The cached entry may be stale-conservative (permissions were
            # *upgraded* since it was cached, which needs no shootdown for
            # correctness).  Re-walk before declaring a violation, exactly
            # as hardware refetches the PTE on a permission fault.
            pte = table.get(vpage)
            if pte is None or not pte.present:
                self._fault(
                    vaddr,
                    access,
                    "not-mapped" if pte is None else "not-present",
                )
            if not pte.writable:
                self._fault(vaddr, access, "protection")
            cached = TlbEntry(pfn=pte.pfn, writable=pte.writable, user=pte.user)
            self.tlb.insert(asid, vpage, cached)
            if user_mode and not cached.user:
                self._fault(vaddr, access, "protection")

        self._set_use_bits(table, vpage, access)
        return (cached.pfn << self._page_shift) | offset

    # ------------------------------------------------------------ internal
    def _walk(
        self,
        table: PageTable,
        asid: int,
        vpage: int,
        vaddr: int,
        access: Access,
    ) -> "PTE":
        if self.clock is not None:
            self.clock.advance(self.costs.tlb_miss_cycles)
        pte = table.get(vpage)
        if pte is None:
            self._fault(vaddr, access, "not-mapped")
        if not pte.present:
            self._fault(vaddr, access, "not-present")
        return pte

    def _set_use_bits(self, table: PageTable, vpage: int, access: Access) -> None:
        pte = table.get(vpage)
        if pte is None or not pte.present:
            # The authoritative entry vanished between the TLB fill and now;
            # real hardware would have used the stale snapshot silently.  We
            # mimic that: the access proceeds on the snapshot.
            return
        pte.referenced = True
        if access is Access.WRITE:
            pte.dirty = True

    def _fault(self, vaddr: int, access: Access, reason: str) -> "None":
        self.faults += 1
        raise PageFault(vaddr, access.value, reason)
