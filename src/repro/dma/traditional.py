"""The traditional, kernel-programmed DMA controller (section 2 baseline).

The controller exposes exactly the interface of Figure 1: the kernel loads
physical source/destination/count registers (or a descriptor chain for
multi-page transfers) and pokes the control register.  All the expensive
work -- the system call, translation, permission verification, pinning --
happens in the kernel driver (:mod:`repro.kernel.syscalls`); this module is
only the device side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.dma.engine import DmaEngine, Endpoint
from repro.errors import DmaError


@dataclass
class DmaDescriptor:
    """A chain of simple transfers, one entry per (contiguous) piece.

    This is the "DMA descriptor specifying the pages to transfer" the
    kernel builds in step 2 of the traditional recipe.
    """

    entries: List["DescriptorEntry"] = field(default_factory=list)

    def add(self, source: Endpoint, destination: Endpoint, count: int) -> None:
        """Append one transfer to the chain."""
        if count <= 0:
            raise DmaError(f"descriptor entry count must be positive, got {count}")
        self.entries.append(DescriptorEntry(source, destination, count))

    @property
    def total_bytes(self) -> int:
        """Total payload of the chain."""
        return sum(entry.count for entry in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class DescriptorEntry:
    """One contiguous piece of a descriptor chain."""

    source: Endpoint
    destination: Endpoint
    count: int


class TraditionalDmaController:
    """Processes descriptor chains on a :class:`DmaEngine`.

    Completion of the whole chain raises the (simulated) interrupt line:
    every callback registered with :meth:`on_interrupt` fires once per
    completed chain.
    """

    def __init__(
        self,
        engine: DmaEngine,
        name: str = "tdma",
    ) -> None:
        self.engine = engine
        self.name = name
        self._interrupt_handlers: List[Callable[[], None]] = []
        self._chain: List[DescriptorEntry] = []
        self._chain_pos = 0  # cursor into _chain; avoids O(n) pop(0) per piece
        self._active = False
        self.chains_completed = 0

    @property
    def busy(self) -> bool:
        """True while a chain is being processed."""
        return self._active

    def on_interrupt(self, handler: Callable[[], None]) -> None:
        """Attach a completion-interrupt handler (normally the kernel)."""
        self._interrupt_handlers.append(handler)

    def remove_interrupt_handler(self, handler: Callable[[], None]) -> None:
        """Detach a previously attached handler (ignored if absent)."""
        if handler in self._interrupt_handlers:
            self._interrupt_handlers.remove(handler)

    def start(self, descriptor: DmaDescriptor) -> None:
        """Begin processing a descriptor chain; raises if already busy."""
        if self._active:
            raise DmaError(f"{self.name}: start while a chain is active")
        if not descriptor.entries:
            raise DmaError(f"{self.name}: empty descriptor chain")
        self._chain = list(descriptor.entries)
        self._chain_pos = 0
        self._active = True
        self._start_next()

    # ------------------------------------------------------------ internal
    def _start_next(self) -> None:
        entry = self._chain[self._chain_pos]
        self._chain_pos += 1
        self.engine.start(
            entry.source, entry.destination, entry.count, self._piece_done
        )

    def _piece_done(self) -> None:
        if self._chain_pos < len(self._chain):
            self._start_next()
            return
        self._active = False
        self._chain = []
        self.chains_completed += 1
        for handler in self._interrupt_handlers:
            handler()
