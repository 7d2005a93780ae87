"""The user-level UDMA runtime.

This is the code that runs *in the application* -- it owns the critical
path the paper optimises:

    STORE nbytes TO destProxyAddr
    (fence)
    LOAD  status FROM srcProxyAddr

plus the pieces the paper says user code is responsible for: checking
data alignment against page boundaries (section 8's 2.8 us includes that
check), splitting large transfers into per-page pieces ("larger transfers
must be expressed as a sequence of small transfers"), retrying after a
context-switch Inval or a busy device, and polling for completion by
repeating the initiating LOAD.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.core.state_machine import SpaceKind, StartDirective, UdmaState
from repro.core.status import UdmaStatus
from repro.devices.base import UDMADevice
from repro.errors import AddressError, DmaError
from repro.kernel.process import Process
from repro.machine import Machine


@dataclass(frozen=True)
class MemoryRef:
    """A transfer endpoint in the process's ordinary memory.

    ``vaddr`` is a normal virtual address; the runtime references
    ``PROXY(vaddr)`` on the application's behalf.
    """

    vaddr: int


@dataclass(frozen=True)
class DeviceRef:
    """A transfer endpoint inside a granted device-proxy window.

    ``vaddr`` is a virtual address *within the grant* returned by the
    device-proxy grant syscall (it already lies in proxy space).
    """

    vaddr: int


Ref = Union[MemoryRef, DeviceRef]


@dataclass
class TransferStats:
    """What a high-level transfer cost."""

    pieces: int = 0
    retries: int = 0
    initiations: int = 0
    poll_loads: int = 0
    bytes_moved: int = 0


class _SendPlan:
    """Cached fast-lane state for one ``(source, destination, nbytes)`` send.

    A plan is built after a send has gone through the slow path once (so
    both proxy pages are warm in the CPU's translation cache) and caches
    everything about the initiation that is a pure function of stable
    state: the physical proxy addresses, the decoded operands and start
    directive, the one-piece byte count, the batched cycle charge of
    ``execute(align) + STORE + fence + LOAD``, and the launch: both DMA
    endpoints and the engine's transfer duration.  Every use re-validates
    the translations (still cached, since a page-table edit evicts them,
    and at the same physical addresses) and the protection backend's veto
    (keyed on the backend's generation, which every grant, revoke and NIPT
    set/clear bumps), so a remap, backend switch or channel eviction sends
    the message back down the slow path instead of replaying stale state.
    """

    __slots__ = (
        "src_proxy",
        "dst_proxy",
        "src_vpage",
        "dst_vpage",
        "src_paddr",
        "dst_paddr",
        "count",
        "instructions",
        "cpu_cycles",
        "total_cycles",
        "directive",
        "source_ep",
        "dest_ep",
        "duration",
        "device",
        "dst_offset",
        "backend",
        "prot_gen",
    )


#: plans cached per runtime before wholesale clearing (a runtime talks to
#: a handful of channels; the cap only guards pathological key churn)
_PLAN_CACHE_CAPACITY = 256


class UdmaUser:
    """Per-process user-level UDMA runtime.

    Args:
        machine: the node the process runs on.
        process: the owning process (used only for sanity checks; the
            hardware never learns which process is issuing references).
        retry_limit: initiation attempts per piece before giving up.
        poll_limit: completion polls per piece before giving up.

    The send fast lane -- cached one-piece initiation plans whose four
    charges (alignment check, STORE, fence, LOAD) are applied as one
    batched clock advance, plus the cheap completion poll -- is on unless
    the machine runs in reference mode (``MachineConfig.reference``).
    Exact: simulated cycles, counters and machine state are bit-identical
    on or off (the fast path only engages when no event is due inside the
    batched window, so no interleaving is ever reordered).
    """

    def __init__(
        self,
        machine: Machine,
        process: Process,
        retry_limit: int = 64,
        poll_limit: int = 1_000_000,
    ) -> None:
        self.machine = machine
        self.process = process
        self.cpu = machine.cpu
        self.layout = machine.layout
        self.page_size = machine.layout.page_size
        self.retry_limit = retry_limit
        self.poll_limit = poll_limit
        # The controller flavour is fixed for the machine's lifetime;
        # resolve it once instead of re-importing per transfer.
        from repro.core.queueing import QueuedUdmaController

        self._device_queued = isinstance(machine.udma, QueuedUdmaController)
        self._pipelined = (
            not machine.config.reference
            and machine.udma is not None
            and machine.udma.fast_path_capable
        )
        self._plans: "dict[tuple, _SendPlan]" = {}

    # ----------------------------------------------------------- low level
    def proxy_of(self, ref: Ref, offset: int = 0) -> int:
        """The virtual proxy address the runtime will reference."""
        if isinstance(ref, MemoryRef):
            return self.layout.proxy(ref.vaddr + offset)
        return ref.vaddr + offset

    def initiate(self, dest_proxy: int, src_proxy: int, nbytes: int) -> UdmaStatus:
        """One raw two-instruction initiation attempt.

        Exactly the paper's sequence: STORE the byte count to the
        destination proxy, fence, LOAD status from the source proxy.
        """
        self.cpu.store(dest_proxy, nbytes)
        self.cpu.fence()
        word = self.cpu.load(src_proxy)
        return UdmaStatus.decode(word, self.page_size)

    def poll(self, src_proxy: int) -> UdmaStatus:
        """Re-issue the initiating LOAD to check progress (section 5)."""
        return UdmaStatus.decode(self.cpu.load(src_proxy), self.page_size)

    def cancel(self, any_proxy: int) -> None:
        """Explicitly abandon a half-done initiation (store of -1)."""
        self.cpu.store(any_proxy, -1)

    # ---------------------------------------------------------- high level
    def transfer(
        self,
        source: Ref,
        destination: Ref,
        nbytes: int,
        wait: bool = True,
        stats: "TransferStats | None" = None,
    ) -> TransferStats:
        """Move ``nbytes`` from ``source`` to ``destination`` via UDMA.

        Splits at page boundaries in both spaces, retries transient
        failures (context-switch Inval, busy device, full queue), and --
        when ``wait`` is true -- polls each piece to completion before the
        next on the basic device.  With ``wait=False`` the final piece may
        still be in flight on return; use :meth:`poll` on the last source
        proxy address, or let the caller drain the clock.
        """
        if nbytes <= 0:
            raise DmaError(f"transfer length must be positive, got {nbytes}")
        stats = stats if stats is not None else TransferStats()
        if self._pipelined:
            plan = self._plans.get((source, destination, nbytes))
            if plan is not None and self._fast_send(plan, stats):
                if wait:
                    self._wait_piece(plan.src_proxy, stats)
                return stats
        pieces_before = stats.pieces
        offset = 0
        last_src_proxy = 0
        while offset < nbytes:
            src_proxy = self.proxy_of(source, offset)
            dst_proxy = self.proxy_of(destination, offset)
            # The user-level alignment / page-boundary check of section 8.
            self.cpu.execute(self.machine.costs.udma_align_check_cycles)
            chunk = min(
                nbytes - offset,
                self._span(src_proxy),
                self._span(dst_proxy),
            )
            self._initiate_piece(dst_proxy, src_proxy, chunk, stats)
            stats.pieces += 1
            stats.bytes_moved += chunk
            offset += chunk
            last_src_proxy = src_proxy
            queued = self._device_is_queued()
            if wait and not queued:
                # The basic device accepts one transfer at a time.
                self._wait_piece(src_proxy, stats)
            elif offset < nbytes and not queued:
                self._wait_piece(src_proxy, stats)
        if wait and self._device_is_queued():
            self._wait_piece(last_src_proxy, stats)
        if self._pipelined and stats.pieces - pieces_before == 1:
            self._remember_plan(source, destination, nbytes)
        return stats

    def send_once(
        self,
        source: Ref,
        destination: Ref,
        nbytes: int,
        stats: "TransferStats | None" = None,
        plan: "_SendPlan | None" = None,
    ) -> bool:
        """One align-checked, non-blocking initiation attempt (no retry).

        The event-driven traffic engine's primitive: returns True when the
        transfer started, False on a transient refusal (device busy or a
        context-switch Inval) -- the caller reschedules its own retry
        rather than coasting the clock from inside an event callback.
        Raises :class:`DmaError` on a hard error.  The message must fit a
        single piece (no page crossing in either space).

        ``plan`` is this shape's fast-lane handle from :meth:`plan_for`
        (resolved once per attempt by the caller, which also skips a
        per-call plan-cache lookup); None takes the slow path.
        """
        stats = stats if stats is not None else TransferStats()
        if plan is not None and self._pipelined and self._fast_send(plan, stats):
            return True
        src_proxy = self.proxy_of(source)
        dst_proxy = self.proxy_of(destination)
        if min(nbytes, self._span(src_proxy), self._span(dst_proxy)) != nbytes:
            raise DmaError(
                f"send_once needs a single-piece transfer, but {nbytes} "
                "bytes cross a page boundary"
            )
        self.cpu.execute(self.machine.costs.udma_align_check_cycles)
        status = self.initiate(dst_proxy, src_proxy, nbytes)
        stats.initiations += 1
        if status.started:
            stats.pieces += 1
            stats.bytes_moved += nbytes
            return True
        if status.hard_error:
            raise DmaError(
                f"UDMA initiation failed permanently: {status.describe()}"
            )
        stats.retries += 1
        return False

    def wait_all(self, source: Ref, offset: int = 0) -> None:
        """Poll until the device reports nothing pending for this source."""
        stats = TransferStats()
        self._wait_piece(self.proxy_of(source, offset), stats)

    # ------------------------------------------------------------ internal
    def _initiate_piece(
        self, dst_proxy: int, src_proxy: int, chunk: int, stats: TransferStats
    ) -> None:
        for attempt in range(self.retry_limit):
            status = self.initiate(dst_proxy, src_proxy, chunk)
            stats.initiations += 1
            if status.started:
                return
            if status.hard_error:
                raise DmaError(
                    f"UDMA initiation failed permanently: {status.describe()}"
                )
            # Transient: the device is Transferring for someone else, our
            # sequence was Inval'd by a context switch, or the queue is
            # full.  "The user process can deduce what happened and re-try
            # its operation."
            stats.retries += 1
            self._back_off()
        raise DmaError(
            f"UDMA initiation still failing after {self.retry_limit} attempts"
        )

    def _wait_piece(self, src_proxy: int, stats: TransferStats) -> None:
        """Repeat the initiating LOAD until the transfer has completed.

        "If this LOAD instruction returns with the match flag set, then
        the transfer has not completed; otherwise it has."
        """
        poll_fast = self.cpu.poll_proxy
        for _ in range(self.poll_limit):
            # None (no effects) unless a cached translation and a
            # fast-path-capable controller make the LOAD a pure status read
            match = poll_fast(src_proxy)
            if match is None:
                match = self.poll(src_proxy).match
            stats.poll_loads += 1
            if not match:
                return
            self._back_off()
        raise DmaError("UDMA transfer never completed")

    # ----------------------------------------------------- send fast lane
    def plan_for(
        self, source: Ref, destination: Ref, nbytes: int
    ) -> "Optional[_SendPlan]":
        """Resolve (building if needed) the fast-lane plan for a send shape.

        Returns None in reference mode or when the shape is ineligible;
        callers hold the handle and pass it back to :meth:`send_once` to
        skip the per-call cache lookup.  The handle stays safe across
        remaps and channel churn -- every use re-validates translations
        against the CPU's translation cache and the device check against
        the protection backend's generation.
        """
        if not self._pipelined:
            return None
        plan = self._plans.get((source, destination, nbytes))
        if plan is None:
            plan = self._remember_plan(source, destination, nbytes)
        return plan

    def _remember_plan(
        self, source: Ref, destination: Ref, nbytes: int
    ) -> "Optional[_SendPlan]":
        plan = self._build_plan(source, destination, nbytes)
        if plan is not None:
            if len(self._plans) >= _PLAN_CACHE_CAPACITY:
                self._plans.clear()
            self._plans[(source, destination, nbytes)] = plan
        return plan

    def _build_plan(
        self, source: Ref, destination: Ref, nbytes: int
    ) -> "Optional[_SendPlan]":
        """Assemble a fast-lane plan, or None if the send must stay slow.

        Requires warm, current translations for both proxy pages (i.e. at
        least one slow-path send has happened), a memory-to-device
        one-piece transfer, and a destination device that exposes a NIPT
        generation to key the cached transfer check on.
        """
        if not (
            isinstance(source, MemoryRef) and isinstance(destination, DeviceRef)
        ):
            return None
        udma = self.machine.udma
        if udma is None or not udma.fast_path_capable:
            return None
        src_proxy = self.proxy_of(source)
        dst_proxy = destination.vaddr
        if min(nbytes, self._span(src_proxy), self._span(dst_proxy)) != nbytes:
            return None  # multi-piece: the slow-path split handles it
        cpu = self.cpu
        shift = cpu._page_shift
        mask = cpu._page_mask
        src_vpage = src_proxy >> shift
        dst_vpage = dst_proxy >> shift
        xlat = cpu._xlat
        src_e = xlat.get(src_vpage)
        dst_e = xlat.get(dst_vpage)
        if src_e is None or dst_e is None or not dst_e.writable:
            return None
        src_paddr = src_e.paddr_base | (src_proxy & mask)
        dst_paddr = dst_e.paddr_base | (dst_proxy & mask)
        try:
            src_op = udma._decode(src_paddr)
            dst_op = udma._decode(dst_paddr)
        except AddressError:
            return None
        if (
            src_op.space is not SpaceKind.MEMORY
            or dst_op.space is not SpaceKind.DEVICE
        ):
            return None
        device, dst_offset = udma._device_at(dst_paddr)
        nipt = getattr(device, "nipt", None)
        if nipt is None:
            return None
        costs = self.machine.costs
        plan = _SendPlan()
        plan.src_proxy = src_proxy
        plan.dst_proxy = dst_proxy
        plan.src_vpage = src_vpage
        plan.dst_vpage = dst_vpage
        plan.src_paddr = src_paddr
        plan.dst_paddr = dst_paddr
        plan.count = nbytes
        plan.instructions = costs.udma_align_check_cycles + 3
        # CPU-charged cycles for execute(align) + STORE + fence + LOAD;
        # the protection backend's initiation check rides the same window
        # but is a device-side stall, so it is in total_cycles only (the
        # proxy backend's check is free and the two are then equal).
        plan.cpu_cycles = (
            costs.udma_align_check_cycles * costs.alu_cycles
            + 2 * costs.io_ref_cycles
            + costs.fence_cycles
        )
        plan.total_cycles = plan.cpu_cycles + udma.backend.initiation_check_cycles
        plan.directive = StartDirective(
            source=src_op, destination=dst_op, count=nbytes
        )
        plan.source_ep = udma._endpoint(src_op)
        plan.dest_ep = udma._endpoint(dst_op)
        # The duration is fixed for a device that adds no latency of its
        # own; one that does (a disk's seek depends on where its head is)
        # is asked again on every launch.
        plan.duration = (
            udma.engine.transfer_duration(plan.source_ep, plan.dest_ep, nbytes)
            if type(device).dma_extra_cycles is UDMADevice.dma_extra_cycles
            else None
        )
        plan.device = device
        plan.dst_offset = dst_offset
        plan.backend = udma.backend
        plan.prot_gen = -1  # first use re-runs the protection check
        return plan

    def _fast_send(self, plan: _SendPlan, stats: TransferStats) -> bool:
        """Apply a planned initiation as one batched charge, if exact.

        Returns False (with **no** simulated effects) whenever any guard
        fails; the caller then takes the ordinary slow path.  On True the
        simulated outcome -- cycle times, every CPU/state-machine counter,
        PTE reference/dirty bits, the scheduled DMA completion -- is
        bit-identical to ``execute(align); STORE; fence; LOAD`` through
        the full machinery.  Events due inside the batched window still
        fire at their exact cycles (``Clock.advance`` pops them at their
        due times regardless of how the charge is split); they cannot
        observe the difference because the only intermediate state the
        slow path exposes mid-window -- Idle vs DestLoaded on the state
        machine, partially bumped CPU counters -- is readable/writable
        solely by CPU-initiated work, which never runs from an event
        callback.  The launch itself is anchored to the LOAD (the state
        machine starts the transfer on the status read, not the store),
        so both paths schedule the DMA completion from the same cycle.
        The device veto is pure given the NIPT (no FIFO-occupancy terms),
        so re-checking it at window start instead of window end is exact;
        spans/tracing must be off (nothing host-side then observes the
        intermediate states), and the state machine must start in Idle.
        """
        udma = self.machine.udma
        sm = udma.sm
        if sm.state is not UdmaState.IDLE:
            return False
        if udma._spans is not None:
            return False
        backend = udma.backend
        if plan.backend is not backend:
            return False  # backend switched since the plan was built
        cpu = self.cpu
        xlat = cpu._xlat
        src_e = xlat.get(plan.src_vpage)
        dst_e = xlat.get(plan.dst_vpage)
        if src_e is None or dst_e is None or not dst_e.writable:
            return False
        mask = cpu._page_mask
        if (src_e.paddr_base | (plan.src_proxy & mask)) != plan.src_paddr:
            return False
        if (dst_e.paddr_base | (plan.dst_proxy & mask)) != plan.dst_paddr:
            return False
        clock = self.machine.clock
        if plan.prot_gen != backend.generation:
            if backend.dest_errors(plan.device, plan.dst_offset, plan.count):
                return False  # let the slow path surface the error status
            plan.prot_gen = backend.generation
        # Exact application of execute(align) + STORE + fence + LOAD.
        cpu.instructions += plan.instructions
        cpu.loads += 1
        cpu.stores += 1
        cpu.xlat_hits += 2
        src_pte = src_e.pte
        src_pte.referenced = True
        dst_pte = dst_e.pte
        dst_pte.referenced = True
        dst_pte.dirty = True
        cpu.charged_cycles += plan.cpu_cycles
        clock.advance(plan.total_cycles)  # due events still fire exactly
        directive = plan.directive
        sm.stores += 1
        sm.loads += 1
        sm.initiations += 1
        sm.destination = directive.destination
        sm.count = plan.count
        sm.source = directive.source
        sm._in_flight_count = plan.count
        sm.state = UdmaState.TRANSFERRING
        udma.start_transfer(plan.source_ep, plan.dest_ep, plan.count, plan.duration)
        stats.pieces += 1
        stats.initiations += 1
        stats.bytes_moved += plan.count
        return True

    def _back_off(self) -> None:
        """Let hardware make progress while the user process spins.

        If device events are pending, coast the clock to the next one
        (the simulation analogue of the device finishing its burst while
        the CPU spins); otherwise just burn a few cycles.
        """
        clock = self.machine.clock
        next_time = clock.next_event_time()
        if next_time is not None and next_time > clock.now:
            clock.run(until=next_time)
        else:
            self.cpu.execute(8)

    def _span(self, proxy_addr: int) -> int:
        return self.page_size - (proxy_addr % self.page_size)

    def _device_is_queued(self) -> bool:
        return self._device_queued
