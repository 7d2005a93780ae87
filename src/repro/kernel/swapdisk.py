"""Backing store on a real disk device.

The plain :class:`~repro.vm.backing_store.BackingStore` is a magic dict
(pages teleport to swap for a flat cycle charge).  This module replaces
it with a *simulated swap disk*: page-in and page-out really move bytes
through DMA hardware to a :class:`~repro.devices.disk.Disk`, paying seek
and transfer time on the shared clock.

Two transport paths are supported:

* **traditional** -- the kernel programs the traditional DMA controller
  (it is the kernel; the syscall-layer costs don't apply, but pinning
  does not either since the kernel holds the frame anyway);
* **system-queue** -- on a machine with the section-7 *queued* UDMA
  device, the kernel enqueues its paging transfers on the high-priority
  system queue: "implementing just two queues, with the higher priority
  queue reserved for the system, would certainly be useful".  Kernel
  paging then shares the UDMA engine with user transfers and always jumps
  the user backlog.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.queueing import QueuedUdmaController
from repro.devices.disk import Disk
from repro.dma.engine import DeviceEndpoint, MemoryEndpoint
from repro.errors import ConfigurationError, SyscallError
from repro.mem.layout import Layout
from repro.mem.physmem import PhysicalMemory
from repro.params import CostModel
from repro.sim.clock import Clock


class DiskBackingStore:
    """A swap area on a disk device, API-compatible with BackingStore.

    Pages are staged through a reserved *kernel bounce frame*, because a
    page being swapped out is about to be unmapped (so its own frame is
    being reclaimed) and a page being swapped in does not have a stable
    frame until the VM manager maps it.  The bounce frame is frame 1 of
    the reserved region (frame 0 belongs to the syscall bounce buffer).

    Args:
        machine-ish components; ``transport`` is ``"traditional"`` or
        ``"system-queue"`` (requires a queued UDMA controller).
    """

    def __init__(
        self,
        clock: Clock,
        costs: CostModel,
        layout: Layout,
        physmem: PhysicalMemory,
        disk: Disk,
        udma: Optional[QueuedUdmaController] = None,
        transport: str = "traditional",
        tdma_engine=None,
        bounce_frame: int = 1,
    ) -> None:
        if transport not in ("traditional", "system-queue"):
            raise ConfigurationError(f"unknown swap transport {transport!r}")
        if transport == "system-queue" and udma is None:
            raise ConfigurationError(
                "system-queue transport needs a queued UDMA controller"
            )
        if transport == "traditional" and tdma_engine is None:
            raise ConfigurationError("traditional transport needs a DMA engine")
        page_size = costs.page_size
        if disk.proxy_size < page_size:
            raise ConfigurationError("swap disk smaller than one page")
        self.clock = clock
        self.costs = costs
        self.layout = layout
        self.physmem = physmem
        self.disk = disk
        self.udma = udma
        self.transport = transport
        self.tdma_engine = tdma_engine
        self.page_size = page_size
        self.bounce_frame = bounce_frame
        self._slots: Dict[Tuple[int, int], int] = {}
        self._next_slot = 0
        self._capacity_slots = disk.proxy_size // page_size
        self.writes = 0
        self.reads = 0

    # ----------------------------------------------- BackingStore protocol
    def save(self, asid: int, vpage: int, data: bytes) -> None:
        """Write one page to the swap disk (page-out / cleaning)."""
        if len(data) != self.page_size:
            raise ConfigurationError(
                f"swap takes whole pages of {self.page_size} bytes, got {len(data)}"
            )
        slot = self._slot_for(asid, vpage, allocate=True)
        bounce_paddr = self.bounce_frame * self.page_size
        self.physmem.write(bounce_paddr, data)
        self._transfer(
            to_disk=True, paddr=bounce_paddr, disk_offset=slot * self.page_size
        )
        self.writes += 1

    def load(self, asid: int, vpage: int) -> Optional[bytes]:
        """Read one page back from the swap disk, or None if never saved."""
        slot = self._slots.get((asid, vpage))
        if slot is None:
            return None
        bounce_paddr = self.bounce_frame * self.page_size
        self._transfer(
            to_disk=False, paddr=bounce_paddr, disk_offset=slot * self.page_size
        )
        self.reads += 1
        return self.physmem.read(bounce_paddr, self.page_size)

    def has(self, asid: int, vpage: int) -> bool:
        return (asid, vpage) in self._slots

    def __len__(self) -> int:
        return len(self._slots)

    # ------------------------------------------------------------ internal
    def _slot_for(self, asid: int, vpage: int, allocate: bool) -> int:
        key = (asid, vpage)
        slot = self._slots.get(key)
        if slot is not None:
            return slot
        if not allocate:
            raise SyscallError("EIO", f"no swap slot for {key}")
        if self._next_slot >= self._capacity_slots:
            raise SyscallError("ENOSPC", "swap disk full")
        slot = self._next_slot
        self._next_slot += 1
        self._slots[key] = slot
        return slot

    def _transfer(self, to_disk: bool, paddr: int, disk_offset: int) -> None:
        if self.transport == "system-queue":
            self._transfer_system_queue(to_disk, paddr, disk_offset)
        else:
            self._transfer_traditional(to_disk, paddr, disk_offset)

    def _transfer_traditional(self, to_disk: bool, paddr: int, disk_offset: int) -> None:
        engine = self.tdma_engine
        mem = MemoryEndpoint(self.physmem, paddr)
        dev = DeviceEndpoint(self.disk, disk_offset)
        done = {"flag": False}

        def _complete() -> None:
            done["flag"] = True

        # The kernel may have to wait for a user transfer on this engine.
        self._wait(lambda: not engine.busy)
        if to_disk:
            engine.start(mem, dev, self.page_size, _complete)
        else:
            engine.start(dev, mem, self.page_size, _complete)
        self._wait(lambda: done["flag"])

    def _transfer_system_queue(self, to_disk: bool, paddr: int, disk_offset: int) -> None:
        assert self.udma is not None
        window = self.layout.window_by_name(self.disk.name)
        mem_proxy = self.layout.proxy(paddr)
        dev_proxy = window.base + disk_offset
        if to_disk:
            self.udma.enqueue_system(mem_proxy, dev_proxy, self.page_size)
        else:
            self.udma.enqueue_system(dev_proxy, mem_proxy, self.page_size)
        self._wait(lambda: not self._still_pending(mem_proxy))

    def _still_pending(self, mem_proxy: int) -> bool:
        page = self.layout.unproxy(mem_proxy) // self.page_size
        return self.udma.page_reference_count(page) > 0

    def _wait(self, condition) -> None:
        guard = 0
        while not condition():
            next_time = self.clock.next_event_time()
            if next_time is None:
                raise SyscallError("EIO", "swap transfer stalled")
            self.clock.run(until=next_time)
            guard += 1
            if guard > 1_000_000:
                raise SyscallError("EIO", "swap transfer never completed")
