"""The standard DMA transfer engine (Figure 1).

One engine moves ``COUNT`` bytes between a source and a destination
endpoint, burst by burst, then raises its completion line.  Both the
traditional controller and the UDMA controller are thin layers over this
engine -- exactly the structure of the paper's Figure 4, where the UDMA
additions sit *between* the CPU and an unmodified DMA engine.

Endpoints hide whether a side is memory or a device port.  Unlike 1980s
DMA, the engine increments the device offset along with the memory address
("the UDMA mechanism can increment the device address along with the
memory address as the transfer progresses", section 4).

Host-side data movement is zero-copy: memory endpoints hand out
``memoryview`` windows onto physical RAM (:meth:`MemoryEndpoint.view`),
and the engine passes them straight to the destination, so an analytic
memory-to-memory transfer is a single ``memcpy``-equivalent slice
assignment with no staging buffer.  Views are *loans*: a destination must
consume (or copy) the data inside its ``write`` call and never retain the
view -- see ``docs/PERFORMANCE.md`` for the ownership rules.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, List, Optional, Protocol, Sequence, Tuple, Union

from repro.errors import DmaError
from repro.mem.physmem import PhysicalMemory
from repro.params import CostModel
from repro.sim.clock import Clock, Event, transfer_cycles

#: anything the buffer protocol accepts for a write
Buffer = Union[bytes, bytearray, memoryview]


class Endpoint(Protocol):
    """One side of a DMA transfer."""

    def read(self, nbytes: int) -> bytes:
        """Produce ``nbytes`` from this endpoint (endpoint is the source)."""
        ...

    def write(self, data: Buffer) -> None:
        """Consume ``data`` into this endpoint (endpoint is the destination).

        ``data`` may be a borrowed :class:`memoryview`; the endpoint must
        not retain it past this call.
        """
        ...

    def extra_cycles(self, nbytes: int) -> int:
        """Endpoint-specific latency added to the transfer (e.g. disk seek)."""
        ...

    def memory_base(self) -> Optional[int]:
        """Physical base address if this endpoint is memory, else None."""
        ...

    def describe(self) -> str:
        """Short label for traces."""
        ...


class MemoryEndpoint:
    """A physical-memory endpoint starting at ``paddr`` (immutable)."""

    __slots__ = ("physmem", "paddr")

    def __init__(self, physmem: PhysicalMemory, paddr: int) -> None:
        self.physmem = physmem
        self.paddr = paddr

    def read(self, nbytes: int) -> bytes:
        return self.physmem.read(self.paddr, nbytes)

    def write(self, data: Buffer) -> None:
        self.physmem.write(self.paddr, data)

    def view(self, nbytes: int) -> memoryview:
        """Zero-copy window onto this endpoint's RAM (a loan)."""
        return self.physmem.view(self.paddr, nbytes)

    def view_slice(self, offset: int, nbytes: int) -> memoryview:
        """Zero-copy burst-granular window (word-stepping mode)."""
        return self.physmem.view(self.paddr + offset, nbytes)

    def write_slice(self, offset: int, data: Buffer) -> None:
        """Burst-granular write (word-stepping mode)."""
        self.physmem.write(self.paddr + offset, data)

    def supports_incremental_write(self) -> bool:
        return True

    def extra_cycles(self, nbytes: int) -> int:
        return 0

    def memory_base(self) -> Optional[int]:
        return self.paddr

    def describe(self) -> str:
        return f"mem[{self.paddr:#x}]"


class DeviceEndpoint:
    """A device endpoint at a device-specific offset.

    The ``device`` must provide ``dma_read(offset, nbytes)``,
    ``dma_write(offset, data)`` and ``dma_extra_cycles(direction, offset,
    nbytes)`` (see :class:`repro.devices.base.UDMADevice`).  Immutable,
    like :class:`MemoryEndpoint`, so a controller can reuse one per
    proxy address.
    """

    __slots__ = ("device", "offset")

    def __init__(self, device: object, offset: int) -> None:
        self.device = device
        self.offset = offset

    def read(self, nbytes: int) -> bytes:
        return self.device.dma_read(self.offset, nbytes)  # type: ignore[attr-defined]

    def write(self, data: Buffer) -> None:
        self.device.dma_write(self.offset, data)  # type: ignore[attr-defined]

    def supports_incremental_write(self) -> bool:
        # Devices (a NIC packetizer, an audio ring) consume a transfer as
        # one unit; the stepping engine stages bursts and delivers once.
        return False

    def extra_cycles(self, nbytes: int) -> int:
        return self.device.dma_extra_cycles(self.offset, nbytes)  # type: ignore[attr-defined]

    def memory_base(self) -> Optional[int]:
        return None

    def describe(self) -> str:
        name = getattr(self.device, "name", type(self.device).__name__)
        return f"{name}[{self.offset:#x}]"


class DmaEngine:
    """The state machine + register file of a standard DMA engine.

    The engine is busy from :meth:`start` until the scheduled completion
    event fires; data is materialised at completion time (the registers,
    which is all the kernel's I4 check can see, hold the *base* addresses
    throughout, matching the paper's MATCH-flag definition).
    """

    def __init__(
        self,
        clock: Clock,
        costs: CostModel,
        name: str = "dma",
        burst_bytes: int = 0,
        bursts_per_event: int = 1,
    ) -> None:
        """``burst_bytes > 0`` selects *word-stepping* mode: the transfer
        advances in bursts of that many bytes, each moving real data at
        its own simulated time.  Progress is then observable
        (:attr:`progress_bytes`) and an abort leaves partially written
        memory behind -- higher fidelity at higher event cost.  The
        default (0) is the analytic mode: one completion event, data
        materialised at completion.

        ``bursts_per_event`` batches consecutive bursts into one clock
        event (stepping mode only).  Data still lands at the simulated
        time the *last* burst of each batch would complete, so final
        memory contents and the completion cycle are identical to
        ``bursts_per_event=1``; only the granularity at which progress is
        *observable* coarsens.  Host event cost drops from O(count/burst)
        to O(count/(burst*batch))."""
        if bursts_per_event < 1:
            raise DmaError(
                f"{name}: bursts_per_event must be >= 1, got {bursts_per_event}"
            )
        self.clock = clock
        self.costs = costs
        self.name = name
        self.burst_bytes = burst_bytes
        self.bursts_per_event = bursts_per_event
        self.busy = False
        self.source: Optional[Endpoint] = None
        self.destination: Optional[Endpoint] = None
        self.count = 0
        self.transfers_completed = 0
        self.bytes_transferred = 0
        #: bytes moved so far for the in-flight transfer (stepping mode
        #: only; None in analytic mode)
        self.progress_bytes: Optional[int] = None
        self._completion_event: Optional[Event] = None
        self._burst_events: Sequence[Event] = ()
        self._staged: Optional[bytearray] = None
        #: private copy of a device source's bytes (kept as bytes, not
        #: a memoryview, so an in-flight transfer can be pickled)
        self._source_snapshot: "Optional[bytes | bytearray]" = None
        self._on_complete: Optional[Callable[[], None]] = None
        #: persistent completion callbacks; a tuple, so firing them needs
        #: no defensive copy
        self._listeners: Tuple[Callable[[], None], ...] = ()
        # Observability (see repro.obs): the span tracker when tracing is
        # on, the open "dma" child span, and the root transfer span whose
        # data this engine is moving (published as current_data_span while
        # delivering, so a NIC can parent its packet spans).
        self._spans = None
        self._dma_span: Optional[int] = None
        self._parent_span: Optional[int] = None

    # ------------------------------------------------------------ controls
    def start(
        self,
        source: Endpoint,
        destination: Endpoint,
        count: int,
        on_complete: Optional[Callable[[], None]] = None,
        span_id: Optional[int] = None,
        duration: Optional[int] = None,
    ) -> None:
        """Begin moving ``count`` bytes; raises :class:`DmaError` if busy.

        ``duration`` is :meth:`transfer_duration` for these arguments when
        the caller has already worked it out (it consults both endpoints,
        and a disk's answer depends on its head position, so it is asked
        once per transfer).
        """
        if self.busy:
            raise DmaError(f"{self.name}: engine started while busy")
        if count <= 0:
            raise DmaError(f"{self.name}: byte count must be positive, got {count}")
        self.busy = True
        self.source = source
        self.destination = destination
        self.count = count
        self._on_complete = on_complete
        if duration is None:
            duration = self.transfer_duration(source, destination, count)
        if self._spans is not None and span_id is not None:
            self._parent_span = span_id
            self._dma_span = self._spans.begin(
                "dma",
                parent=span_id,
                engine=self.name,
                src=source.describe(),
                dst=destination.describe(),
                count=count,
            )
        if self.burst_bytes > 0:
            self._start_stepping(duration)
        else:
            self._completion_event = self.clock.schedule(duration, self._complete)

    def transfer_duration(
        self, source: Endpoint, destination: Endpoint, count: int
    ) -> int:
        """Cycles the engine will stay busy for this transfer."""
        return (
            self.costs.dma_start_cycles
            + transfer_cycles(count, self.costs.dma_bytes_per_cycle)
            + source.extra_cycles(count)
            + destination.extra_cycles(count)
        )

    def abort(self) -> None:
        """Cancel an in-flight transfer.

        This implements the terminate edge the paper sketches ("it is not
        hard to imagine adding one", section 5) -- for memory-system errors
        the hardware cannot handle transparently.  In analytic mode no
        data has moved yet; in word-stepping mode the bursts already
        delivered stay delivered, exactly like real hardware.
        """
        if not self.busy:
            return
        if self._completion_event is not None:
            self._completion_event.cancel()
        for event in self._burst_events:
            event.cancel()
        if self._spans is not None and self._dma_span is not None:
            self._spans.finish(self._dma_span, status="aborted")
        self._reset()

    def add_completion_listener(self, callback: Callable[[], None]) -> None:
        """Register a persistent completion callback (the interrupt line)."""
        self._listeners += (callback,)

    # ------------------------------------------------------------ register
    # The kernel's I4 remap guard reads these ("the kernel reads the two
    # registers to perform the check", section 6).
    def source_memory_base(self) -> Optional[int]:
        """Physical base in the SOURCE register, if it names memory."""
        return self.source.memory_base() if self.busy and self.source else None

    def destination_memory_base(self) -> Optional[int]:
        """Physical base in the DESTINATION register, if it names memory."""
        return (
            self.destination.memory_base()
            if self.busy and self.destination
            else None
        )

    # --------------------------------------------------------- word stepping
    def _start_stepping(self, duration: int) -> None:
        """Schedule chunked burst events, spaced over the data time.

        Each event covers ``bursts_per_event`` consecutive bursts and
        fires when the *last* burst of its chunk completes, so the final
        event -- and therefore the completion cycle -- lands exactly where
        per-burst scheduling would put it.
        """
        assert self.source is not None and self.destination is not None
        self.progress_bytes = 0
        # Staging buffer for destinations that take one delivery; filled
        # in place, handed over as a view (the device copies what it keeps).
        if not self.destination.supports_incremental_write():
            self._staged = bytearray(self.count)
        # A device source streams into the engine FIFO as the transfer
        # starts (device reads can have side effects, so exactly once).
        if not isinstance(self.source, MemoryEndpoint):
            self._source_snapshot = self.source.read(self.count)
        bursts = max(1, math.ceil(self.count / self.burst_bytes))
        lead = duration - transfer_cycles(self.count, self.costs.dma_bytes_per_cycle)
        data_cycles = duration - lead
        events: List[Event] = []
        step = self.bursts_per_event
        for first in range(1, bursts + 1, step):
            i = min(first + step - 1, bursts)  # last burst of this chunk
            at = lead + math.ceil(data_cycles * i / bursts)
            offset = (first - 1) * self.burst_bytes
            size = min(self.count, i * self.burst_bytes) - offset
            # partial (not a closure): pending burst events are snapshot
            # state and must pickle with the event queue.
            events.append(self.clock.schedule(
                at, partial(self._chunk_event, offset, size, i == bursts)
            ))
        self._burst_events = events

    def _chunk_event(self, offset: int, size: int, last: bool) -> None:
        assert self.source is not None and self.destination is not None
        if self._source_snapshot is not None:
            chunk: Buffer = memoryview(self._source_snapshot)[
                offset : offset + size
            ]
        else:
            chunk = self.source.view_slice(offset, size)  # type: ignore[attr-defined]
        if self._staged is not None:
            self._staged[offset : offset + size] = chunk
        else:
            self.destination.write_slice(offset, chunk)  # type: ignore[attr-defined]
        self.progress_bytes = offset + size
        if last:
            if self._staged is not None:
                self._deliver(memoryview(self._staged))
            self._finish()

    def _deliver(self, data: Buffer) -> None:
        """Hand the payload to the destination, tagging the data's span.

        While the write runs, ``current_data_span`` names the transfer
        that produced these bytes, so a destination that fans the data out
        (a NIC carving packets) can attach its own child spans.
        """
        spans = self._spans
        if spans is not None and self._parent_span is not None:
            spans.current_data_span = self._parent_span
            try:
                self.destination.write(data)
            finally:
                spans.current_data_span = None
        else:
            self.destination.write(data)

    def _finish(self) -> None:
        self.transfers_completed += 1
        self.bytes_transferred += self.count
        if self._spans is not None and self._dma_span is not None:
            self._spans.finish(self._dma_span, status="complete")
        on_complete = self._on_complete
        listeners = self._listeners
        self._reset()
        if on_complete is not None:
            on_complete()
        for callback in listeners:
            callback()

    # ------------------------------------------------------------ internal
    def _complete(self) -> None:
        assert self.source is not None and self.destination is not None
        # Analytic mode: one view-to-endpoint handoff, no staging buffer.
        # A memory source lends a view of its RAM; a device source
        # materialises bytes (device reads may have side effects).
        viewer = getattr(self.source, "view", None)
        data: Buffer = (
            viewer(self.count) if viewer is not None else self.source.read(self.count)
        )
        self._deliver(data)
        self._finish()

    def _reset(self) -> None:
        self.busy = False
        self.source = None
        self.destination = None
        self.count = 0
        self.progress_bytes = None
        self._completion_event = None
        self._burst_events = ()
        self._staged = None
        self._source_snapshot = None
        self._on_complete = None
        self._dma_span = None
        self._parent_span = None
