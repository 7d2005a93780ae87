"""Section 7: multi-page transfers with hardware request queueing.

The queued device accepts the same two-instruction initiation sequence,
but a successful LOAD *enqueues* the request and immediately frees the
initiation latch, so a user process can start a multi-page transfer with
"only two instructions per page in the best case".  "A transfer request is
refused only when the queue is full; otherwise the hardware accepts it and
performs the transfer when it reaches the head of the queue."

Design decisions the paper leaves open, resolved here:

* On queue-full refusal the DESTINATION/COUNT latch is *kept*, so the user
  retries by repeating only the LOAD.  The refusal status has the
  initiation flag set (failed) plus the transferring flag (device busy),
  marking it transient.
* The REMAINING-BYTES field reports the head (in-flight) transfer only;
  its width is page-based and cannot express a whole backlog.
* MATCH is set while *any* queued or in-flight request's source base
  equals the referenced proxy address, so "wait for the completion of the
  last transfer" works by repeating the last initiating LOAD.

For I4 the paper offers a per-page reference counter or an associative
query of the queue.  Both answer the same question, so one route serves:
every request counts its pages from enqueue to completion
(:meth:`QueuedUdmaController.page_reference_count`), and
:meth:`QueuedUdmaController.memory_pages_in_registers` -- the pages with
a non-zero count plus the latched destination -- is what the remap guard
reads.

Two priorities are implemented ("implementing just two queues, with the
higher priority queue reserved for the system, would certainly be
useful"): the kernel enqueues via :meth:`QueuedUdmaController.enqueue_system`,
which always drains first.
"""

from __future__ import annotations


from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Set

from repro.core.controller import UdmaController
from repro.core.events import UdmaEvent, classify_store
from repro.core.status import UdmaStatus
from repro.dma.engine import DmaEngine
from repro.errors import ConfigurationError, QueueFull
from repro.mem.layout import Layout, ProxyOperand, SpaceKind
from repro.mem.physmem import PhysicalMemory
from repro.sim.clock import Clock


@dataclass
class QueuedRequest:
    """One accepted transfer waiting in (or at the head of) the queue."""

    source: ProxyOperand
    destination: ProxyOperand
    count: int
    system: bool = False
    #: observability sidecar: root span id riding with the request (None
    #: when tracing is off or the request is kernel-originated)
    span: Optional[int] = None
    #: cycle the request was accepted (per-transfer latency histogram)
    accepted_at: int = 0


class QueuedUdmaController(UdmaController):
    """A UDMA device with a bounded hardware request queue (section 7).

    Args:
        queue_depth: capacity of the user queue (and, separately, of the
            system queue).  Must be positive.
    """

    #: the queued latch/queue semantics differ from the base three-state
    #: machine, so the userlib send fast lane must not batch against it
    fast_path_capable = False

    def __init__(
        self,
        layout: Layout,
        physmem: PhysicalMemory,
        engine: DmaEngine,
        clock: Clock,
        queue_depth: int = 16,
        name: str = "udmaq",
        backend=None,
    ) -> None:
        super().__init__(
            layout, physmem, engine, clock, name=name, backend=backend
        )
        if queue_depth <= 0:
            raise ConfigurationError(
                f"queue_depth must be positive, got {queue_depth}"
            )
        self.queue_depth = queue_depth
        self._user_queue: Deque[QueuedRequest] = deque()
        self._system_queue: Deque[QueuedRequest] = deque()
        self._in_flight: Optional[QueuedRequest] = None
        # Latch of the two-instruction sequence (the queued device keeps
        # its own, simpler latch; the base class's three-state machine is
        # bypassed).
        self._dest: Optional[ProxyOperand] = None
        self._count = 0
        # Per-page reference counters (first I4 strategy).
        self._page_refs: Dict[int, int] = {}
        self.accepted = 0
        self.refused = 0

    # ---------------------------------------------------------- bus access
    def io_store(self, paddr: int, value: int) -> None:
        operand = self._decode(paddr)
        event = classify_store(value)
        if event is UdmaEvent.INVAL:
            # Clears the initiation latch only; accepted requests are
            # hardware property and keep flowing (section 6 statelessness).
            if self._dest is not None:
                self.backend.record_fault("inval")
            self._dest = None
            self._count = 0
            if self._spans is not None:
                self._span_drop_latch("inval")
        else:
            self._dest = operand
            self._count = min(
                value, self.page_size - (operand.proxy_addr % self.page_size)
            )
            if self._spans is not None:
                self._span_store_queued(operand, value)

    def io_load(self, paddr: int) -> int:
        operand = self._decode(paddr)
        status = self._load(operand, system=False)
        return status.encode(self.page_size)

    def inval(self) -> None:
        """Context-switch Inval: clears the latch, never queued requests."""
        if self._dest is not None:
            self.backend.record_fault("inval")
        self._dest = None
        self._count = 0
        if self._spans is not None:
            self._span_drop_latch("inval")

    # ----------------------------------------------------------- span hooks
    # Host-side only, like the base class's: the queued device's root span
    # lives on the latch until the request is accepted, then rides the
    # QueuedRequest to completion.

    def _span_store_queued(self, operand: ProxyOperand, value: int) -> None:
        if self._span is not None:
            self._spans.event(
                self._span,
                "re-latch",
                dest=f"{operand.proxy_addr:#x}",
                nbytes=value,
            )
            self._span_dest = operand.proxy_addr
            return
        attrs = {
            "node": self.name,
            "dest": f"{operand.proxy_addr:#x}",
            "space": operand.space.value,
            "nbytes": value,
        }
        hint = self._retry_hint
        if hint is not None and hint[0] == operand.proxy_addr:
            attrs["retry_of"] = hint[1]
            self._retry_hint = None
        self._span = self._spans.begin("transfer", **attrs)
        self._span_dest = operand.proxy_addr

    def _span_drop_latch(self, status: str) -> None:
        if self._span is None:
            return
        self._spans.finish(self._span, status=status)
        self._retry_hint = (self._span_dest, self._span)
        self._span = None

    # ----------------------------------------------------------- privileged
    def enqueue_system(
        self, source_proxy: int, dest_proxy: int, count: int
    ) -> None:
        """Kernel-only: queue a transfer on the high-priority system queue.

        Raises :class:`QueueFull` when the system queue is at capacity
        (the kernel, unlike user code, gets a trap-style error).
        """
        if len(self._system_queue) >= self.queue_depth:
            raise QueueFull(f"{self.name}: system queue full")
        source = self._decode(source_proxy)
        dest = self._decode(dest_proxy)
        count = min(
            count,
            self.page_size - (source.proxy_addr % self.page_size),
            self.page_size - (dest.proxy_addr % self.page_size),
        )
        request = QueuedRequest(
            source, dest, count, system=True, accepted_at=self.clock.now
        )
        self._system_queue.append(request)
        self._note_pages(request, +1)
        self.accepted += 1
        self._maybe_launch()

    # --------------------------------------------------------- I4 support
    def page_reference_count(self, page: int) -> int:
        """How often a physical memory page appears in the queue/engine.

        The paper's "readable reference-count register for each page".
        """
        return self._page_refs.get(page, 0)

    def memory_pages_in_registers(self) -> Set[int]:
        """All pages pinned-by-presence: queue + engine + latch."""
        pages = {page for page, refs in self._page_refs.items() if refs > 0}
        if self._dest is not None and self._dest.space is SpaceKind.MEMORY:
            pages.add(self.layout.unproxy(self._dest.proxy_addr) // self.page_size)
        return pages

    # ------------------------------------------------------------- queries
    @property
    def backlog_requests(self) -> int:
        """Pending request count, including the in-flight one."""
        return (
            len(self._user_queue)
            + len(self._system_queue)
            + (1 if self._in_flight is not None else 0)
        )

    @property
    def busy(self) -> bool:
        return self.backlog_requests > 0

    # ------------------------------------------------------------ internal
    def _load(self, operand: ProxyOperand, system: bool) -> UdmaStatus:
        if self._dest is None:
            # No initiation in progress: pure status read.
            return self._status_snapshot(operand)
        if operand.space is self._dest.space:
            # BadLoad, as in the basic device: drop the latch.
            self.backend.record_fault("bad-load")
            self._dest = None
            self._count = 0
            if self._spans is not None:
                self._span_drop_latch("bad-load")
            snapshot = self._status_snapshot(operand)
            return UdmaStatus(
                initiation=True,
                transferring=snapshot.transferring,
                invalid=snapshot.invalid,
                match=snapshot.match,
                wrong_space=True,
                remaining_bytes=snapshot.remaining_bytes,
            )
        count = min(
            self._count,
            self.page_size - (operand.proxy_addr % self.page_size),
        )
        errors = self._endpoint_errors(operand, self._dest, count)
        if errors:
            self.backend.record_error_bits(errors)
            self._dest = None
            self._count = 0
            if self._spans is not None:
                self._span_drop_latch("device-error")
            snapshot = self._status_snapshot(operand)
            return UdmaStatus(
                initiation=True,
                transferring=snapshot.transferring,
                invalid=snapshot.invalid,
                device_errors=errors,
                remaining_bytes=snapshot.remaining_bytes,
            )
        queue = self._system_queue if system else self._user_queue
        if len(queue) >= self.queue_depth:
            # Refused; keep the latch so the user can retry the LOAD alone.
            self.refused += 1
            if self._spans is not None and self._span is not None:
                # The span stays open with the latch; the retry is part of
                # the same transfer's life.
                self._spans.event(
                    self._span, "queue-refused", backlog=self.backlog_requests
                )
            snapshot = self._status_snapshot(operand)
            return UdmaStatus(
                initiation=True,
                transferring=True,
                match=snapshot.match,
                remaining_bytes=snapshot.remaining_bytes,
            )
        request = QueuedRequest(
            operand,
            self._dest,
            count,
            system=system,
            accepted_at=self.clock.now,
        )
        self._dest = None
        self._count = 0
        if self._spans is not None and self._span is not None:
            self._spans.event(
                self._span,
                "queued",
                source=f"{operand.proxy_addr:#x}",
                count=count,
                backlog=self.backlog_requests,
            )
            request.span = self._span
            self._span = None
        queue.append(request)
        self._note_pages(request, +1)
        self.accepted += 1
        self._maybe_launch()
        return UdmaStatus(
            initiation=False,
            transferring=True,
            remaining_bytes=min(self.page_size, count),
        )

    def _endpoint_errors(
        self, source: ProxyOperand, dest: ProxyOperand, count: int
    ) -> int:
        backend = self.backend
        extra = backend.initiation_check_cycles
        if extra:
            # Same charging point as the basic controller: the initiating
            # LOAD stalls for the backend's verdict.
            self.clock.advance(extra)
        errors = 0
        if source.space is SpaceKind.DEVICE:
            device, offset = self._device_at(source.proxy_addr)
            errors |= backend.source_errors(device, offset, count)
        if dest.space is SpaceKind.DEVICE:
            device, offset = self._device_at(dest.proxy_addr)
            errors |= backend.dest_errors(device, offset, count)
        return errors

    def _status_snapshot(self, operand: Optional[ProxyOperand]) -> UdmaStatus:
        busy = self.busy
        match = operand is not None and any(
            request.source.proxy_addr == operand.proxy_addr
            for request in self._all_pending()
        )
        return UdmaStatus(
            initiation=True,
            transferring=busy,
            invalid=not busy and self._dest is None,
            match=match,
            remaining_bytes=self._head_remaining(),
        )

    def _maybe_launch(self) -> None:
        if self.engine.busy or self._in_flight is not None:
            return
        if self._system_queue:
            request = self._system_queue.popleft()
        elif self._user_queue:
            request = self._user_queue.popleft()
        else:
            return
        self._in_flight = request
        source = self._endpoint(request.source)
        destination = self._endpoint(request.destination)
        duration = self.engine.transfer_duration(source, destination, request.count)
        self._transfer_start_time = self.clock.now
        self._transfer_duration = duration
        self._transfer_count = request.count
        if self._spans is not None and request.span is not None:
            self._spans.event(request.span, "launch")
        self.engine.start(
            source,
            destination,
            request.count,
            self._head_done,
            span_id=request.span,
            duration=duration,
        )

    def _head_done(self) -> None:
        finished = self._in_flight
        self._in_flight = None
        if finished is not None:
            self._note_pages(finished, -1)
            samples = self._latency_samples
            if samples is not None:
                cycles = self.clock.now - finished.accepted_at
                samples[cycles] = samples.get(cycles, 0) + 1
            if self._spans is not None and finished.span is not None:
                self._spans.finish(finished.span, status="complete")
        self._maybe_launch()

    def _head_remaining(self) -> int:
        if self._in_flight is None:
            return 0
        return min(self.page_size, self._remaining_in_flight())

    def _all_pending(self):
        if self._in_flight is not None:
            yield self._in_flight
        yield from self._system_queue
        yield from self._user_queue

    def _request_pages(self, request: QueuedRequest) -> Set[int]:
        pages: Set[int] = set()
        for operand in (request.source, request.destination):
            if operand.space is SpaceKind.MEMORY:
                real = self.layout.unproxy(operand.proxy_addr)
                pages.add(real // self.page_size)
        return pages

    def _note_pages(self, request: QueuedRequest, delta: int) -> None:
        for page in self._request_pages(request):
            new = self._page_refs.get(page, 0) + delta
            if new <= 0:
                self._page_refs.pop(page, None)
            else:
                self._page_refs[page] = new
