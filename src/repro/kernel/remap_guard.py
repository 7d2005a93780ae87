"""I4: never remap a page the UDMA hardware is using.

"To maintain I4, the kernel must check before remapping a page to make
sure that that page's address is not in the hardware's SOURCE or
DESTINATION registers.  (The kernel reads the two registers to perform the
check.)" (section 6).  For the queued device of section 7 the paper offers
per-page reference counters or an associative query of the queue: both
give the same answer, and
:meth:`~repro.core.queueing.QueuedUdmaController.memory_pages_in_registers`
gives it from the counters plus the initiation latch, so one check covers
both devices.

This replaces pinning: "Although this scheme has the same effect as page
pinning, it is much faster.  Pinning requires changing the page table on
every DMA, while our mechanism requires no kernel action in the common
case."  The PIN bench quantifies exactly that trade.
"""

from __future__ import annotations

from typing import List, Set

from repro.core.controller import UdmaController
from repro.params import CostModel
from repro.sim.clock import Clock


class RemapGuard:
    """The kernel-side I4 check over one node's UDMA controllers."""

    def __init__(
        self,
        clock: Clock,
        costs: CostModel,
        controllers: List[UdmaController],
    ) -> None:
        self.clock = clock
        self.costs = costs
        self.controllers = list(controllers)
        self.checks = 0

    # -------------------------------------------------------------- checks
    def pages_in_use(self) -> Set[int]:
        """All physical pages any controller currently names (uncharged)."""
        pages: Set[int] = set()
        for controller in self.controllers:
            pages |= controller.memory_pages_in_registers()
        return pages

    def is_page_in_use(self, page: int) -> bool:
        """The charged I4 check for one page.

        Charges the register-read cost and answers whether remapping the
        page now would violate I4.  The kernel reacts to True by picking a
        different victim or waiting; "the kernel usually has several pages
        to choose from", so in practice it picks another.
        """
        self.checks += 1
        self.clock.advance(self.costs.remap_check_cycles)
        return any(
            page in c.memory_pages_in_registers() for c in self.controllers
        )
