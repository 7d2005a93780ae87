"""The virtual-memory manager: demand paging plus the I2/I3 machinery.

This module is the kernel half of the UDMA contract.  It implements:

* **demand paging** with pluggable replacement, backing store and TLB
  shootdown;
* the **three proxy-fault cases** of section 6 (page resident; valid but
  swapped out; not accessible);
* **I2** -- "a virtual-to-physical memory proxy space mapping is valid
  only if the virtual-to-physical mapping of its corresponding real memory
  is valid", maintained by invalidating the proxy mapping whenever the
  real mapping changes in any way;
* **I3** -- "if PROXY(vmem_addr) is writable, then vmem_addr must be
  dirty", via write-protected proxy pages upgraded on write faults.  The
  paper's *alternative* strategy (dirty bits kept on proxy pages, OR-ed
  into the real page's dirtiness) is selectable with
  ``i3_strategy="proxy-dirty"``;
* the **I3 race rule** -- a page being cleaned keeps its dirty bit if a
  DMA transfer to it is in progress;
* **I4** -- eviction consults the :class:`~repro.kernel.remap_guard.RemapGuard`
  and picks a different victim (or waits) when the hardware names a page.

Every remap in this module pairs a page-table mutator (which evicts the
page from the CPU's translation cache and bumps ``PageTable.generation``
for the IOTLB) with a ``tlb.invalidate`` shootdown of the same page, so
a mapping changed here is never served stale -- see ``repro/cpu/cpu.py``
("Translation fast path").  Direct PTE *use-bit* writes
(``pte.dirty = ...``) are the one deliberate exception: they never
change what an address translates to, so they need no shootdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError, SyscallError
from repro.kernel.process import Process
from repro.kernel.remap_guard import RemapGuard
from repro.mem.frames import FrameAllocator
from repro.mem.layout import DeviceWindow, Layout, Region
from repro.mem.physmem import PhysicalMemory
from repro.params import CostModel
from repro.sim.clock import Clock
from repro.vm.backing_store import BackingStore
from repro.vm.mmu import MMU
from repro.vm.replacement import FrameView, ReplacementPolicy, make_policy
from repro.snapshot.protocol import SnapshotMixin

#: I3 maintenance strategies (section 6, "Maintaining I3").
I3_WRITE_PROTECT = "write-protect"
I3_PROXY_DIRTY = "proxy-dirty"


@dataclass
class FrameMeta:
    """Kernel bookkeeping for one allocated physical frame."""

    owner_asid: int
    owner_vpage: int
    loaded_at: int
    last_used_at: int


class VmManager(SnapshotMixin):
    """One node's VM manager."""

    def __init__(
        self,
        clock: Clock,
        costs: CostModel,
        layout: Layout,
        physmem: PhysicalMemory,
        frames: FrameAllocator,
        backing: BackingStore,
        mmu: MMU,
        remap_guard: RemapGuard,
        policy: "ReplacementPolicy | str" = "clock",
        i3_strategy: str = I3_WRITE_PROTECT,
    ) -> None:
        if i3_strategy not in (I3_WRITE_PROTECT, I3_PROXY_DIRTY):
            raise ConfigurationError(f"unknown i3_strategy {i3_strategy!r}")
        self.clock = clock
        self.costs = costs
        self.layout = layout
        self.physmem = physmem
        self.frames = frames
        self.backing = backing
        self.mmu = mmu
        self.remap_guard = remap_guard
        self.policy = make_policy(policy) if isinstance(policy, str) else policy
        self.i3_strategy = i3_strategy
        self.page_size = layout.page_size
        self._processes: Dict[int, Process] = {}
        self._frame_meta: Dict[int, FrameMeta] = {}
        # Metrics.
        self.faults_handled = 0
        self.proxy_faults = 0
        self.pages_in = 0
        self.pages_out = 0
        self.cleans = 0
        self.cleans_deferred = 0
        self.evictions_redirected = 0

    # ----------------------------------------------------------- processes
    def register(self, process: Process) -> None:
        """Track a process's address space."""
        self._processes[process.asid] = process

    # -------------------------------------------------------------- faults
    def handle_fault(self, process: Process, vaddr: int, access: str, reason: str) -> bool:
        """The kernel page-fault handler; True = repaired, retry the access."""
        self.clock.advance(self.costs.page_fault_cycles)
        self.faults_handled += 1
        process.faults_served += 1
        region = self.layout.region_of(vaddr)
        if region is Region.MEMORY:
            return self._fault_memory(process, vaddr, access)
        if region is Region.MEMORY_PROXY:
            self.proxy_faults += 1
            return self._fault_memory_proxy(process, vaddr, access)
        # DEVICE_PROXY mappings are created eagerly by the grant syscall;
        # faulting there means no grant -> illegal access.
        return False

    def _fault_memory(self, process: Process, vaddr: int, access: str) -> bool:
        vpage = vaddr // self.page_size
        if not process.owns_vpage(vpage):
            return False
        if access == "write" and not process.vpage_is_writable(vpage):
            return False
        pte = process.page_table.get(vpage)
        if pte is None or not pte.present:
            self._ensure_resident(process, vpage)
            return True
        # Present and owned but still faulted: a stale TLB entry can do
        # this after a permissions upgrade; the MMU already re-walks, so
        # reaching here means a genuine protection problem.
        return False

    def _fault_memory_proxy(self, process: Process, vaddr: int, access: str) -> bool:
        """Section 6's three cases, plus the I3 write-upgrade."""
        mem_vaddr = self.layout.unproxy(vaddr)
        mem_vpage = mem_vaddr // self.page_size

        # Case 3: "vmem_page is not accessible for the process.  The kernel
        # treats this like an illegal access."
        if not process.owns_vpage(mem_vpage):
            return False

        # Case 2 folds into case 1: "the kernel first pages in vmem_page,
        # and then behaves as in the previous case."
        frame = self._ensure_resident(process, mem_vpage)
        mem_pte = process.page_table.get(mem_vpage)
        assert mem_pte is not None and mem_pte.present

        mem_writable = mem_pte.writable
        if access == "write":
            if not mem_writable:
                # "A read-only page can be used as the source of a transfer
                # but not as the destination."
                return False
            if self.i3_strategy == I3_WRITE_PROTECT and not mem_pte.dirty:
                # The I3 upgrade: "the kernel enables writes to
                # PROXY(vmem_page) ... the kernel also marks vmem_page as
                # dirty to maintain I3."
                mem_pte.dirty = True

        proxy_writable = self._proxy_writability(mem_pte)
        self._map_proxy(process, mem_vpage, frame, proxy_writable)
        return True

    def _proxy_writability(self, mem_pte) -> bool:
        if not mem_pte.writable:
            return False
        if self.i3_strategy == I3_WRITE_PROTECT:
            return mem_pte.dirty  # I3: writable proxy implies dirty page
        return True  # proxy-dirty strategy: proxy page carries its own dirty bit

    def _map_proxy(self, process: Process, mem_vpage: int, frame: int, writable: bool) -> None:
        proxy_vaddr = self.layout.proxy(mem_vpage * self.page_size)
        proxy_pfn = self.layout.proxy(frame * self.page_size) // self.page_size
        vproxy_page = proxy_vaddr // self.page_size
        process.page_table.map(vproxy_page, proxy_pfn, writable=writable, user=True)
        self.mmu.tlb.invalidate(process.asid, vproxy_page)

    # ----------------------------------------------------------- residency
    def _ensure_resident(self, process: Process, vpage: int) -> int:
        """Make a valid page resident; returns its frame."""
        pte = process.page_table.get(vpage)
        if pte is not None and pte.present:
            return pte.pfn
        frame = self._alloc_frame()
        if self.backing.has(process.asid, vpage):
            self.clock.advance(self.costs.swap_io_cycles)
            # The swap-in wait yields the clock, so a device-side fault
            # service (Iommu._service -> dma_map_in) may have mapped this
            # very page while the CPU slept.  Re-check and back out --
            # the classic retry-after-blocking fault discipline: mapping
            # over it would orphan the device's frame and lose the
            # replayed delivery queued against it.
            pte = process.page_table.get(vpage)
            if pte is not None and pte.present:
                self.frames.free(frame)
                return pte.pfn
            data = self.backing.load(process.asid, vpage)
            assert data is not None
            self.physmem.write_frame(frame, data)
        else:
            self.physmem.zero_frame(frame)
        writable = process.vpage_is_writable(vpage)
        process.page_table.map(vpage, frame, writable=writable, user=True)
        self.mmu.tlb.invalidate(process.asid, vpage)
        self._frame_meta[frame] = FrameMeta(
            owner_asid=process.asid,
            owner_vpage=vpage,
            loaded_at=self.clock.now,
            last_used_at=self.clock.now,
        )
        self.pages_in += 1
        return frame

    def resident_frame(self, process: Process, vpage: int) -> Optional[int]:
        """Frame of a resident page, or None."""
        pte = process.page_table.get(vpage)
        if pte is not None and pte.present:
            return pte.pfn
        return None

    def touch_resident(self, process: Process, vpage: int) -> int:
        """Kernel-path residency guarantee (used by traditional DMA)."""
        return self._ensure_resident(process, vpage)

    def dma_map_in(self, process: Process, vpage: int) -> Optional[Tuple[int, int]]:
        """Device-fault service: make a page resident *without* coasting time.

        The IOMMU's park-service path (:mod:`repro.iommu`) runs inside
        clock event callbacks, where ``clock.advance`` / ``clock.run``
        are forbidden (sharded clocks enforce this).  This is
        :meth:`_ensure_resident` restructured for that context: it never
        evicts and never advances the clock.  Returns ``(frame,
        extra_cycles)`` -- ``extra_cycles`` is the swap-in I/O latency
        the caller must model as a scheduled delay -- or ``None`` when
        no frame is free (the caller re-parks and retries).
        """
        pte = process.page_table.get(vpage)
        if pte is not None and pte.present:
            return pte.pfn, 0
        frame = self.frames.alloc()
        if frame is None:
            return None
        extra = 0
        if self.backing.has(process.asid, vpage):
            data = self.backing.load(process.asid, vpage)
            assert data is not None
            self.physmem.write_frame(frame, data)
            extra = self.costs.swap_io_cycles
        else:
            self.physmem.zero_frame(frame)
        writable = process.vpage_is_writable(vpage)
        process.page_table.map(vpage, frame, writable=writable, user=True)
        self.mmu.tlb.invalidate(process.asid, vpage)
        self._frame_meta[frame] = FrameMeta(
            owner_asid=process.asid,
            owner_vpage=vpage,
            loaded_at=self.clock.now,
            last_used_at=self.clock.now,
        )
        self.pages_in += 1
        return frame, extra

    # ----------------------------------------------------------- protection
    def set_page_protection(self, process: Process, vpage: int, writable: bool) -> bool:
        """Change a page's grant-level write permission (mprotect-style).

        Returns False when the page is not part of the process's valid
        memory.  The PTE (if present) is updated with a shootdown, and the
        proxy alias is invalidated outright -- the conservative I2/I3 move:
        the next proxy fault re-materialises the mapping under the new
        permission and the active I3 strategy.
        """
        if not process.owns_vpage(vpage):
            return False
        process.vpage_writable[vpage] = writable
        pte = process.page_table.get(vpage)
        if pte is not None and pte.present:
            if pte.writable != writable:
                process.page_table.set_writable(vpage, writable)
                self.mmu.tlb.invalidate(process.asid, vpage)
            self._invalidate_proxy(process, vpage)
        return True

    # ------------------------------------------------------------ eviction
    def evict_for_pressure(self) -> bool:
        """Force one page-out (the chaos harness's paging-pressure lever).

        Follows the ordinary eviction path -- policy choice, I4 redirect,
        wait-for-hardware -- so it is exactly a kernel-legal page-out.
        Returns False when there is nothing evictable at all.
        """
        if not self._frame_meta:
            return False
        try:
            self._evict_one()
        except SyscallError:
            return False
        return True

    def _alloc_frame(self) -> int:
        frame = self.frames.alloc()
        if frame is not None:
            return frame
        self._evict_one()
        frame = self.frames.alloc()
        if frame is None:
            raise SyscallError("ENOMEM", "eviction failed to free a frame")
        return frame

    def _evict_one(self) -> None:
        """Pick a victim with the policy; re-pick when I4 forbids it."""
        rejected: Set[int] = set()
        while True:
            candidates = self._candidates(rejected)
            if not candidates:
                # Everything evictable is in the hardware's hands: "wait
                # until the transfer finishes" (section 6).
                self._wait_for_hardware()
                rejected.clear()
                continue
            victim = self.policy.choose(candidates, self._clear_referenced)
            if self.remap_guard.is_page_in_use(victim):
                # "The kernel must either find another page to remap, or
                # wait until the transfer finishes."
                self.evictions_redirected += 1
                rejected.add(victim)
                continue
            self._page_out(victim)
            return

    def _candidates(self, rejected: Set[int]) -> List[FrameView]:
        views: List[FrameView] = []
        for frame, meta in self._frame_meta.items():
            if frame in rejected or self.frames.is_pinned(frame):
                continue
            process = self._processes.get(meta.owner_asid)
            if process is None:
                continue
            pte = process.page_table.get(meta.owner_vpage)
            if pte is None or not pte.present:
                continue
            if pte.referenced:
                meta.last_used_at = self.clock.now
            views.append(
                FrameView(
                    frame=frame,
                    referenced=pte.referenced,
                    dirty=self._effective_dirty(process, meta.owner_vpage, pte),
                    loaded_at=meta.loaded_at,
                    last_used_at=meta.last_used_at,
                )
            )
        return views

    def _clear_referenced(self, frame: int) -> None:
        meta = self._frame_meta.get(frame)
        if meta is None:
            return
        process = self._processes.get(meta.owner_asid)
        if process is None:
            return
        pte = process.page_table.get(meta.owner_vpage)
        if pte is not None:
            pte.referenced = False

    def _wait_for_hardware(self) -> None:
        next_time = self.clock.next_event_time()
        if next_time is None:
            raise SyscallError(
                "ENOMEM",
                "no evictable frame and no pending hardware completion to wait for",
            )
        self.clock.run(until=next_time)

    def _page_out(self, frame: int) -> None:
        meta = self._frame_meta.pop(frame)
        process = self._processes[meta.owner_asid]
        vpage = meta.owner_vpage
        pte = process.page_table.get(vpage)
        assert pte is not None and pte.present and pte.pfn == frame

        # I2 first: the real mapping is about to change, so the proxy
        # mapping must die with it.
        self._invalidate_proxy(process, vpage)

        if self._effective_dirty(process, vpage, pte):
            self.clock.advance(self.costs.swap_io_cycles)
            self.backing.save(process.asid, vpage, self.physmem.read_frame(frame))
            pte.dirty = False

        process.page_table.set_present(vpage, False)
        self.mmu.tlb.invalidate(process.asid, vpage)
        self.frames.free(frame)
        self.pages_out += 1

    def _invalidate_proxy(self, process: Process, vpage: int) -> None:
        """I2 maintenance: drop PROXY(vmem_page)'s mapping, if any."""
        vproxy_page = self.layout.proxy(vpage * self.page_size) // self.page_size
        if process.page_table.unmap(vproxy_page) is not None:
            self.mmu.tlb.invalidate(process.asid, vproxy_page)

    # ------------------------------------------------------------ cleaning
    def clean_page(self, process: Process, vpage: int) -> bool:
        """Write a dirty page to backing store and clear its dirty bit.

        Returns False (and leaves the page dirty) when the I3 race rule
        applies: "the operating system must make sure not to clear the
        dirty bit if a DMA transfer to the page is in progress".
        """
        pte = process.page_table.get(vpage)
        if pte is None or not pte.present:
            return False
        if not self._effective_dirty(process, vpage, pte):
            return True  # already clean
        if self.remap_guard.is_page_in_use(pte.pfn):
            self.cleans_deferred += 1
            return False
        self.clock.advance(self.costs.swap_io_cycles)
        self.backing.save(process.asid, vpage, self.physmem.read_frame(pte.pfn))
        pte.dirty = False
        if self.i3_strategy == I3_WRITE_PROTECT:
            # "If the kernel cleans vmem_page ... the kernel also
            # write-protects PROXY(vmem_page)."
            self._write_protect_proxy(process, vpage)
        else:
            # Alternative strategy: clear the proxy page's own dirty bit.
            vproxy_page = self.layout.proxy(vpage * self.page_size) // self.page_size
            proxy_pte = process.page_table.get(vproxy_page)
            if proxy_pte is not None:
                proxy_pte.dirty = False
        self.cleans += 1
        return True

    def _write_protect_proxy(self, process: Process, vpage: int) -> None:
        vproxy_page = self.layout.proxy(vpage * self.page_size) // self.page_size
        proxy_pte = process.page_table.get(vproxy_page)
        if proxy_pte is not None and proxy_pte.writable:
            process.page_table.set_writable(vproxy_page, False)
            self.mmu.tlb.invalidate(process.asid, vproxy_page)

    def _effective_dirty(self, process: Process, vpage: int, pte) -> bool:
        """Dirtiness under the active I3 strategy.

        Under the alternative strategy the kernel "considers vmem_page
        dirty if either vmem_page or PROXY(vmem_page) is dirty".
        """
        if pte.dirty:
            return True
        if self.i3_strategy == I3_PROXY_DIRTY:
            vproxy_page = self.layout.proxy(vpage * self.page_size) // self.page_size
            proxy_pte = process.page_table.get(vproxy_page)
            if proxy_pte is not None and proxy_pte.dirty:
                return True
        return False

    # -------------------------------------------------------- device proxy
    def map_device_window(
        self,
        process: Process,
        window: DeviceWindow,
        writable: bool,
        pages: Optional[Tuple[int, int]] = None,
    ) -> int:
        """Map (part of) a device-proxy window into a process.

        Virtual device-proxy addresses are identity-mapped onto physical
        ones for simplicity (each page still gets its own PTE, so
        protection is per-process and per-page).  ``pages`` restricts the
        grant to ``(first_page, npages)`` within the window.  Returns the
        base virtual address of the grant.
        """
        total_pages = window.size // self.page_size
        first, count = pages if pages is not None else (0, total_pages)
        if first < 0 or count <= 0 or first + count > total_pages:
            raise SyscallError(
                "EINVAL", f"grant range ({first}, {count}) exceeds window"
            )
        base = window.base + first * self.page_size
        for i in range(count):
            vaddr = base + i * self.page_size
            vpage = vaddr // self.page_size
            process.page_table.map(vpage, vpage, writable=writable, user=True)
            self.mmu.tlb.invalidate(process.asid, vpage)
        process.device_grants[window.name] = base
        return base

    def revoke_device_window(self, process: Process, window: DeviceWindow) -> None:
        """Remove every mapping of a device window from a process."""
        total_pages = window.size // self.page_size
        for i in range(total_pages):
            vpage = (window.base + i * self.page_size) // self.page_size
            if process.page_table.unmap(vpage) is not None:
                self.mmu.tlb.invalidate(process.asid, vpage)
        process.device_grants.pop(window.name, None)

    # ----------------------------------------------------------- inventory
    def frame_owner(self, frame: int) -> Optional[Tuple[int, int]]:
        """(asid, vpage) owning a frame, or None."""
        meta = self._frame_meta.get(frame)
        if meta is None:
            return None
        return meta.owner_asid, meta.owner_vpage
