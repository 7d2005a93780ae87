"""The kernel facade: processes, fault dispatch, and the syscall surface.

A :class:`Kernel` owns one node's VM manager, scheduler, remap guard and
syscall interface, and wires the CPU's fault vector to the VM manager.
:class:`repro.machine.Machine` builds one per node.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from repro.core.controller import UdmaController
from repro.cpu.cpu import CPU
from repro.dma.traditional import TraditionalDmaController
from repro.errors import ConfigurationError
from repro.kernel.process import Process
from repro.kernel.remap_guard import RemapGuard
from repro.kernel.scheduler import Scheduler
from repro.kernel.syscalls import GrantPolicy, SyscallInterface, allow_all
from repro.kernel.vm_manager import I3_WRITE_PROTECT, VmManager
from repro.mem.frames import FrameAllocator
from repro.mem.layout import Layout
from repro.mem.physmem import PhysicalMemory
from repro.params import CostModel
from repro.sim.clock import Clock
from repro.vm.backing_store import BackingStore
from repro.vm.mmu import MMU


class Kernel:
    """One node's operating system."""

    def __init__(
        self,
        clock: Clock,
        costs: CostModel,
        layout: Layout,
        physmem: PhysicalMemory,
        mmu: MMU,
        cpu: CPU,
        udma_controllers: Optional[List[UdmaController]] = None,
        tdma: Optional[TraditionalDmaController] = None,
        replacement_policy: str = "clock",
        i3_strategy: str = I3_WRITE_PROTECT,
        grant_policy: GrantPolicy = allow_all,
        bounce_frames: int = 8,
    ) -> None:
        self.clock = clock
        self.costs = costs
        self.layout = layout
        self.physmem = physmem
        self.mmu = mmu
        self.cpu = cpu
        controllers = list(udma_controllers or [])

        if bounce_frames >= physmem.num_frames:
            raise ConfigurationError(
                f"bounce_frames {bounce_frames} exceeds RAM ({physmem.num_frames} frames)"
            )
        self.frames = FrameAllocator(physmem.num_frames, reserved=bounce_frames)
        self.backing = BackingStore(layout.page_size)
        self.remap_guard = RemapGuard(clock, costs, controllers)
        self.vm = VmManager(
            clock=clock,
            costs=costs,
            layout=layout,
            physmem=physmem,
            frames=self.frames,
            backing=self.backing,
            mmu=mmu,
            remap_guard=self.remap_guard,
            policy=replacement_policy,
            i3_strategy=i3_strategy,
        )
        self.scheduler = Scheduler(clock, costs, cpu, controllers)
        self.syscalls = SyscallInterface(
            clock=clock,
            costs=costs,
            layout=layout,
            physmem=physmem,
            vm=self.vm,
            tdma=tdma,
            grant_policy=grant_policy,
            bounce_frames=bounce_frames,
        )
        self._pids = itertools.count(1)
        self.processes: Dict[int, Process] = {}
        cpu.fault_handler = self._on_fault

    # ----------------------------------------------------------- processes
    def create_process(self, name: str) -> Process:
        """Create, register and admit a process; runs it if CPU is idle."""
        process = Process(next(self._pids), name, self.layout)
        self.processes[process.pid] = process
        self.vm.register(process)
        self.scheduler.add(process)
        if self.scheduler.current is None:
            self.scheduler.switch_to(process)
        return process

    @property
    def current(self) -> Optional[Process]:
        """The running process."""
        return self.scheduler.current

    # ------------------------------------------------------------- faults
    def _on_fault(self, vaddr: int, access: str, reason: str) -> bool:
        process = self.scheduler.current
        if process is None:
            return False
        return self.vm.handle_fault(process, vaddr, access, reason)
