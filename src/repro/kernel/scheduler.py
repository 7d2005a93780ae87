"""The scheduler, including the paper's single-store I1 hook.

"To avoid this danger, the operating system must invalidate any partially
initiated UDMA transfer on every context switch ...  The context-switch
code does this with a single STORE instruction" (section 6).

The simulation is cooperative: tests and workloads call
:meth:`Scheduler.switch_to` (or :meth:`Scheduler.yield_next` for round
robin) at the points where a real kernel would preempt.  What matters for
the paper is *what happens during* a switch -- the Inval store, the
address-space install, the cycle cost -- and that is modelled faithfully.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.core.controller import UdmaController
from repro.cpu.cpu import CPU
from repro.errors import ConfigurationError
from repro.kernel.process import Process, ProcessState
from repro.params import CostModel
from repro.sim.clock import Clock


class Scheduler:
    """Round-robin scheduler with the UDMA context-switch hook."""

    def __init__(
        self,
        clock: Clock,
        costs: CostModel,
        cpu: CPU,
        udma_controllers: Optional[List[UdmaController]] = None,
    ) -> None:
        self.clock = clock
        self.costs = costs
        self.cpu = cpu
        self.udma_controllers = list(udma_controllers or [])
        self.ready: List[Process] = []
        self.current: Optional[Process] = None
        self.switches = 0
        self.invals_fired = 0

    # ----------------------------------------------------------- admission
    def add(self, process: Process) -> None:
        """Admit a process to the ready queue."""
        if process in self.ready or process is self.current:
            raise ConfigurationError(f"{process!r} already scheduled")
        process.state = ProcessState.READY
        self.ready.append(process)

    # ------------------------------------------------------------ dispatch
    def switch_to(self, process: Process) -> None:
        """Context-switch to ``process`` (must be admitted)."""
        if process is self.current:
            return
        if process not in self.ready:
            raise ConfigurationError(f"{process!r} is not ready")

        # --- the I1 hook: one STORE of a negative nbytes to proxy space,
        # returning any partially initiated sequence to Idle.  "The UDMA
        # device is stateless with respect to a context switch" -- a
        # transfer already in flight is unaffected.
        for controller in self.udma_controllers:
            self.clock.advance(self.costs.io_ref_cycles)  # the single store
            controller.inval()
            self.invals_fired += 1

        # --- ordinary switch costs and address-space install.
        self.clock.advance(self.costs.context_switch_cycles)
        previous = self.current
        if previous is not None and previous.state is ProcessState.RUNNING:
            previous.state = ProcessState.READY
            self.ready.append(previous)
        self.ready.remove(process)
        process.state = ProcessState.RUNNING
        self.current = process
        self.cpu.set_context(process.page_table, process.asid)
        self.switches += 1

    def yield_next(self) -> Optional[Process]:
        """Round-robin: switch to the longest-waiting ready process."""
        if not self.ready:
            return self.current
        self.switch_to(self.ready[0])
        return self.current
