"""System calls: the traditional-DMA baseline and the proxy-grant calls.

The star of this module is :meth:`SyscallInterface.dma` -- the section-2
recipe, implemented step by step with its full cost:

1. the user process traps into the kernel (syscall entry);
2. the kernel translates every page, verifies permission, **pins** the
   frames, and builds a DMA descriptor;
3. the device performs the transfer while the process is blocked;
4. the completion interrupt fires; the kernel unpins, returns from the
   syscall and reschedules.

"Starting a DMA transaction usually takes hundreds or thousands of CPU
instructions."  The INIT bench counts exactly what this path charges and
compares it with the two-reference UDMA initiation.

A bounce-buffer variant (``bounce=True``) models the common alternative:
"most of today's systems reserve a certain number of pinned physical
memory pages for each DMA device as I/O buffers.  This method may require
copying data between memory in user address space and the reserved,
pinned DMA memory buffers."
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.dma.engine import DeviceEndpoint, MemoryEndpoint
from repro.dma.traditional import DmaDescriptor, TraditionalDmaController
from repro.errors import SyscallError
from repro.kernel.process import Process
from repro.kernel.vm_manager import VmManager
from repro.mem.layout import Layout
from repro.mem.physmem import PhysicalMemory
from repro.params import CostModel
from repro.sim.clock import Clock

#: permission policy: (process, device name, writable?) -> allowed?
GrantPolicy = Callable[[Process, str, bool], bool]


def allow_all(process: Process, device: str, writable: bool) -> bool:
    """The default grant policy: every process may map every device."""
    return True


class SyscallInterface:
    """Kernel entry points callable by user-level code.

    Args:
        bounce_frames: number of reserved frames forming the pre-pinned
            bounce buffer (physical frames ``0..bounce_frames-1``); they
            must lie inside the allocator's reserved range.
    """

    def __init__(
        self,
        clock: Clock,
        costs: CostModel,
        layout: Layout,
        physmem: PhysicalMemory,
        vm: VmManager,
        tdma: Optional[TraditionalDmaController] = None,
        grant_policy: GrantPolicy = allow_all,
        bounce_frames: int = 0,
    ) -> None:
        self.clock = clock
        self.costs = costs
        self.layout = layout
        self.physmem = physmem
        self.vm = vm
        self.tdma = tdma
        self.grant_policy = grant_policy
        self.bounce_frames = bounce_frames
        self.page_size = costs.page_size
        # Metrics.
        self.dma_calls = 0
        self.pages_pinned = 0
        self.bytes_copied = 0

    # ------------------------------------------------------------- memory
    def alloc(self, process: Process, nbytes: int, writable: bool = True) -> int:
        """Allocate demand-zero virtual memory; returns the base vaddr."""
        self._enter()
        npages = -(-nbytes // self.page_size)
        vaddr = process.alloc_virtual(npages, writable=writable)
        self._exit()
        return vaddr

    # -------------------------------------------------------------- grants
    def grant_device_proxy(
        self,
        process: Process,
        device_name: str,
        writable: bool = True,
        pages: Optional[Tuple[int, int]] = None,
    ) -> int:
        """Map (part of) a device's proxy window into the caller.

        "An operating system call is responsible for creating the mapping.
        The system call decides whether to grant permission to a user
        process's request and whether the permission is read-only"
        (section 4).  Returns the base virtual address of the grant.
        """
        self._enter()
        try:
            if not self.grant_policy(process, device_name, writable):
                raise SyscallError(
                    "EPERM",
                    f"pid {process.pid} may not map device {device_name!r}",
                )
            window = self.layout.window_by_name(device_name)
            base = self.vm.map_device_window(process, window, writable, pages)
            # Tell the protection backends (host-side bookkeeping; the
            # proxy backend's real check IS the mapping just created).
            for controller in self.vm.remap_guard.controllers:
                note = getattr(controller, "note_grant", None)
                if note is not None:
                    note(process.asid, device_name, writable)
            return base
        finally:
            self._exit()

    def revoke_device_proxy(self, process: Process, device_name: str) -> None:
        """Tear down a device-proxy grant."""
        self._enter()
        try:
            window = self.layout.window_by_name(device_name)
            self.vm.revoke_device_window(process, window)
            for controller in self.vm.remap_guard.controllers:
                note = getattr(controller, "note_revoke", None)
                if note is not None:
                    note(process.asid, device_name)
        finally:
            self._exit()

    # ----------------------------------------------------- traditional DMA
    def dma(
        self,
        process: Process,
        device_name: str,
        device_offset: int,
        vaddr: int,
        nbytes: int,
        to_device: bool,
        bounce: bool = False,
        device: Optional[object] = None,
    ) -> None:
        """The traditional, kernel-initiated DMA transfer (section 2).

        Blocks (simulated) until the completion interrupt has been
        serviced.  ``device`` may be passed directly for devices not
        registered in the layout (bench scaffolding); normally the name is
        resolved through the UDMA controller's registry.
        """
        if self.tdma is None:
            raise SyscallError("ENODEV", "no traditional DMA controller configured")
        if nbytes <= 0:
            raise SyscallError("EINVAL", f"nbytes must be positive, got {nbytes}")
        self.dma_calls += 1
        self._enter()
        target_device = device if device is not None else self._resolve_device(device_name)

        if bounce:
            self._dma_bounce(process, target_device, device_offset, vaddr, nbytes, to_device)
        else:
            self._dma_pinned(process, target_device, device_offset, vaddr, nbytes, to_device)

        # Completion interrupt, syscall return, reschedule.
        self.clock.advance(self.costs.interrupt_cycles)
        self._exit()
        self.clock.advance(self.costs.reschedule_cycles)

    # ------------------------------------------------------------ internal
    def _dma_pinned(
        self,
        process: Process,
        device: object,
        device_offset: int,
        vaddr: int,
        nbytes: int,
        to_device: bool,
    ) -> None:
        """Translate, verify, pin, build descriptor, run, unpin."""
        descriptor = DmaDescriptor()
        pinned = []
        offset = 0
        dev_off = device_offset
        while offset < nbytes:
            addr = vaddr + offset
            chunk = min(self.layout.bytes_to_page_end(addr), nbytes - offset)
            vpage = addr // self.page_size
            # Translation + permission verification.
            self.clock.advance(self.costs.translate_page_cycles)
            if not process.owns_vpage(vpage):
                self._unpin(pinned)
                raise SyscallError("EFAULT", f"bad user address {addr:#x}")
            if not to_device and not process.vpage_is_writable(vpage):
                self._unpin(pinned)
                raise SyscallError("EFAULT", f"read-only destination {addr:#x}")
            frame = self.vm.touch_resident(process, vpage)
            # Pinning.
            self.clock.advance(self.costs.pin_page_cycles)
            self.vm.frames.pin(frame)
            pinned.append(frame)
            self.pages_pinned += 1
            # One descriptor entry per page.
            self.clock.advance(self.costs.descriptor_entry_cycles)
            paddr = frame * self.page_size + (addr % self.page_size)
            mem = MemoryEndpoint(self.physmem, paddr)
            dev = DeviceEndpoint(device, dev_off)
            if to_device:
                descriptor.add(mem, dev, chunk)
            else:
                descriptor.add(dev, mem, chunk)
            offset += chunk
            dev_off += chunk

        self._run_chain(descriptor)
        self._unpin(pinned)

    def _unpin(self, frames: list) -> None:
        for frame in frames:
            self.clock.advance(self.costs.unpin_page_cycles)
            self.vm.frames.unpin(frame)

    def _dma_bounce(
        self,
        process: Process,
        device: object,
        device_offset: int,
        vaddr: int,
        nbytes: int,
        to_device: bool,
    ) -> None:
        """Copy through the reserved, pre-pinned kernel I/O buffer."""
        if self.bounce_frames * self.page_size < nbytes:
            raise SyscallError(
                "ENOMEM",
                f"bounce buffer ({self.bounce_frames} pages) too small for "
                f"{nbytes} bytes",
            )
        bounce_paddr = 0  # reserved frames sit at the bottom of memory
        copy_cycles = int(nbytes * self.costs.copy_byte_cycles)
        if to_device:
            data = self._read_user(process, vaddr, nbytes)
            self.clock.advance(copy_cycles)
            self.physmem.write(bounce_paddr, data)
            self.bytes_copied += nbytes
        descriptor = DmaDescriptor()
        mem = MemoryEndpoint(self.physmem, bounce_paddr)
        dev = DeviceEndpoint(device, device_offset)
        if to_device:
            descriptor.add(mem, dev, nbytes)
        else:
            descriptor.add(dev, mem, nbytes)
        self._run_chain(descriptor)
        if not to_device:
            self.clock.advance(copy_cycles)
            data = self.physmem.read(bounce_paddr, nbytes)
            self._write_user(process, vaddr, data)
            self.bytes_copied += nbytes

    def _run_chain(self, descriptor: DmaDescriptor) -> None:
        assert self.tdma is not None
        self.clock.advance(self.costs.device_start_cycles)
        done = {"flag": False}

        def _interrupt() -> None:
            done["flag"] = True

        self.tdma.on_interrupt(_interrupt)
        try:
            self.tdma.start(descriptor)
            # The process is blocked; coast the clock on device events.
            guard = 0
            while not done["flag"]:
                next_time = self.clock.next_event_time()
                if next_time is None:
                    raise SyscallError("EIO", "DMA chain stalled with no pending events")
                self.clock.run(until=next_time)
                guard += 1
                if guard > 1_000_000:
                    raise SyscallError("EIO", "DMA chain never completed")
        finally:
            self.tdma.remove_interrupt_handler(_interrupt)

    def _read_user(self, process: Process, vaddr: int, nbytes: int) -> bytes:
        """Kernel-path read of user memory (for the bounce copy)."""
        out = bytearray()
        offset = 0
        while offset < nbytes:
            addr = vaddr + offset
            chunk = min(self.layout.bytes_to_page_end(addr), nbytes - offset)
            vpage = addr // self.page_size
            if not process.owns_vpage(vpage):
                raise SyscallError("EFAULT", f"bad user address {addr:#x}")
            frame = self.vm.touch_resident(process, vpage)
            paddr = frame * self.page_size + (addr % self.page_size)
            out += self.physmem.read(paddr, chunk)
            offset += chunk
        return bytes(out)

    def _write_user(self, process: Process, vaddr: int, data: bytes) -> None:
        """Kernel-path write of user memory (for the bounce copy)."""
        offset = 0
        nbytes = len(data)
        while offset < nbytes:
            addr = vaddr + offset
            chunk = min(self.layout.bytes_to_page_end(addr), nbytes - offset)
            vpage = addr // self.page_size
            if not process.owns_vpage(vpage):
                raise SyscallError("EFAULT", f"bad user address {addr:#x}")
            if not process.vpage_is_writable(vpage):
                raise SyscallError("EFAULT", f"read-only user address {addr:#x}")
            frame = self.vm.touch_resident(process, vpage)
            pte = process.page_table.get(vpage)
            if pte is not None:
                pte.dirty = True  # the kernel knows about this write
            paddr = frame * self.page_size + (addr % self.page_size)
            self.physmem.write(paddr, data[offset : offset + chunk])
            offset += chunk

    def _resolve_device(self, device_name: str) -> object:
        # Devices register proxy windows in the layout; the actual device
        # object is held by the UDMA controller.  The VM manager's guard
        # tracks controllers, so resolve through it.
        for controller in self.vm.remap_guard.controllers:
            try:
                return controller.device(device_name)
            except Exception:
                continue
        raise SyscallError("ENODEV", f"no device named {device_name!r}")

    def _enter(self) -> None:
        self.clock.advance(self.costs.syscall_entry_cycles)

    def _exit(self) -> None:
        self.clock.advance(self.costs.syscall_exit_cycles)
