"""Processes: an address space plus bookkeeping.

A process owns a page table, a bump allocator over its virtual memory
region, and the set of virtual pages the kernel considers *valid* (so the
fault handler can distinguish demand-zero faults from wild accesses).
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Set

from repro.errors import SyscallError
from repro.mem.layout import Layout
from repro.vm.page_table import PageTable


class ProcessState(enum.Enum):
    """Lifecycle states."""

    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"


class Process:
    """One user process.

    Args:
        pid: process id; doubles as the address-space id (ASID).
        name: human-readable label.
        layout: the node's address map (virtual space mirrors it).
    """

    def __init__(self, pid: int, name: str, layout: Layout) -> None:
        self.pid = pid
        self.name = name
        self.layout = layout
        self.state = ProcessState.READY
        self.page_table = PageTable(layout.page_size, name=f"pid{pid}")
        #: virtual pages the kernel will demand-map on first touch
        self.valid_vpages: Set[int] = set()
        #: vpage -> False for pages granted read-only (COW-style data)
        self.vpage_writable: Dict[int, bool] = {}
        #: device windows granted to this process: device name -> base vaddr
        self.device_grants: Dict[str, int] = {}
        # Bump allocator over the virtual memory region; page 0 is kept
        # unmapped so that null-ish pointers fault.
        self._next_vpage = 1
        self.faults_served = 0

    @property
    def asid(self) -> int:
        """Address-space id (== pid)."""
        return self.pid

    # ----------------------------------------------------- virtual address
    def alloc_virtual(self, npages: int, writable: bool = True) -> int:
        """Reserve ``npages`` of virtual memory; returns the base vaddr.

        Pages are demand-mapped on first access (a "not-mapped" fault the
        kernel resolves by zero-filling).  No physical memory is consumed
        here.
        """
        if npages <= 0:
            raise SyscallError("EINVAL", f"npages must be positive, got {npages}")
        limit = self.layout.mem_size // self.layout.page_size
        if self._next_vpage + npages > limit:
            raise SyscallError(
                "ENOMEM",
                f"virtual memory region exhausted for pid {self.pid}",
            )
        base_vpage = self._next_vpage
        self._next_vpage += npages
        for vpage in range(base_vpage, base_vpage + npages):
            self.valid_vpages.add(vpage)
            self.vpage_writable[vpage] = writable
        return base_vpage * self.layout.page_size

    def owns_vpage(self, vpage: int) -> bool:
        """True if the page is part of this process's valid memory."""
        return vpage in self.valid_vpages

    def vpage_is_writable(self, vpage: int) -> bool:
        """Grant-level writability of a valid page (not the PTE state)."""
        return self.vpage_writable.get(vpage, False)

    def __repr__(self) -> str:
        return f"<Process pid={self.pid} {self.name!r} {self.state.value}>"
