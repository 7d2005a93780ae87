"""The UDMA controller: Figure 4's box between the CPU and the DMA engine.

Responsibilities, in the paper's words:

* "provide translation from physical proxy addresses to real addresses"
  (PROXY^-1 for memory-proxy; window decode for device-proxy),
* "interpret the transfer initiation instruction sequence" (delegated to
  :class:`repro.core.state_machine.UdmaStateMachine`),
* "guarantee atomicity for context switches" (the :meth:`inval` line the
  kernel strobes on every switch), and
* expose the SOURCE/DESTINATION registers for the kernel's I4 remap check.

The controller is memory-mapped: the bus routes every physical access that
falls in a proxy region to :meth:`io_store` / :meth:`io_load`.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Set

from repro.core.events import UdmaEvent
from repro.core.state_machine import (
    ProxyOperand,
    SpaceKind,
    UdmaState,
    UdmaStateMachine,
)

from repro.devices.base import UDMADevice
from repro.dma.engine import DeviceEndpoint, DmaEngine, Endpoint, MemoryEndpoint
from repro.errors import AddressError, ConfigurationError
from repro.mem.layout import DeviceWindow, Layout, Region
from repro.mem.physmem import PhysicalMemory
from repro.protection import ProtectionBackend, ProxyBackend
from repro.sim.clock import Clock


class UdmaController:
    """The basic (unqueued) UDMA device of sections 3-6."""

    #: True when the send fast lane (:mod:`repro.userlib.udma`) may batch
    #: initiations and polls against this controller's state machine.  The
    #: queued controller overrides io_store/io_load with different
    #: semantics, so it opts out and every access takes the full path.
    fast_path_capable = True

    def __init__(
        self,
        layout: Layout,
        physmem: PhysicalMemory,
        engine: DmaEngine,
        clock: Clock,
        name: str = "udma",
        backend: Optional[ProtectionBackend] = None,
    ) -> None:
        self.layout = layout
        self.physmem = physmem
        self.engine = engine
        self.clock = clock
        self.name = name
        self.page_size = layout.page_size
        # The protection decision for the two-instruction send lives in a
        # pluggable backend (see repro.protection).  The default proxy
        # backend is bit-identical to the pre-backend controller.
        self.backend = backend if backend is not None else ProxyBackend()
        self.backend.attach(self)
        self.sm = UdmaStateMachine(
            page_size=layout.page_size,
            remaining_in_flight=self._remaining_in_flight,
        )
        self._devices: Dict[str, UDMADevice] = {}
        self._transfer_start_time = 0
        self._transfer_duration = 0
        self._transfer_count = 0
        # Proxy-address decode cache: region boundaries are fixed at
        # construction (device windows are carved inside the device-proxy
        # region), so paddr -> ProxyOperand is a pure function.  Polling
        # reuses a handful of addresses thousands of times.
        self._operand_cache: Dict[int, ProxyOperand] = {}
        self._inval_operand: Optional[ProxyOperand] = None
        # Device-window decode cache, invalidated when a device attaches
        # (attach_device is the only way the window list grows).
        self._window_cache: Dict[int, "tuple[UDMADevice, int]"] = {}
        # DMA endpoints per proxy address: endpoints are immutable and a
        # pure function of the decoded operand, so each is built once.
        # Flushed with the window cache.
        self._endpoints: Dict[int, Endpoint] = {}
        # Observability plane hookups (see repro.obs).  Both stay None
        # unless a Machine wires them, so the unobserved cost is one
        # attribute load per call site.  ``_latency_samples`` is the
        # ``udma.transfer_cycles`` histogram's own sample dict (value ->
        # count): completion counts into it inline, with no call.
        self._spans = None
        self._latency_samples: Optional[Dict[int, int]] = None
        # The transfer currently owning the root "transfer" span, and
        # which phase it is in ("init": latched, "xfer": engine running).
        self._span: Optional[int] = None
        self._span_phase = ""
        self._span_dest = 0
        # (dest proxy addr, finished span id) of the last failed
        # initiation; a new initiation to the same destination is linked
        # to it with a retry_of attribute.
        self._retry_hint: "Optional[tuple[int, int]]" = None

    # ------------------------------------------------------------- devices
    def attach_device(self, device: UDMADevice) -> DeviceWindow:
        """Register a device, reserving its device-proxy window."""
        window = self.layout.register_device(device.name, device.proxy_size)
        self._devices[device.name] = device
        self._window_cache.clear()
        self._endpoints.clear()
        device.attach(self.clock)
        self.backend.device_attached(device)
        return window

    def device(self, name: str) -> UDMADevice:
        """Look up an attached device by name."""
        try:
            return self._devices[name]
        except KeyError:
            raise ConfigurationError(f"no device {name!r} attached to {self.name}") from None

    # -------------------------------------------------- protection backend
    def note_grant(self, asid: int, device_name: str, writable: bool) -> None:
        """Kernel hook: a device-proxy window was granted to ``asid``."""
        self.backend.note_grant(asid, device_name, writable)

    def note_revoke(self, asid: int, device_name: str) -> None:
        """Kernel hook: a device-proxy grant was torn down."""
        self.backend.note_revoke(asid, device_name)

    # ---------------------------------------------------------- bus access
    def io_store(self, paddr: int, value: int) -> None:
        """A CPU STORE reached proxy space (value = nbytes, or <=0 = Inval)."""
        operand = self._decode(paddr)
        latched = self.sm.state is UdmaState.DEST_LOADED
        event = self.sm.store(operand, value)
        if event is UdmaEvent.INVAL and latched:
            # I1: a latched destination was thrown away before its LOAD.
            self.backend.record_fault("inval")
        if self._spans is not None:
            self._span_store(operand, value, event)

    def io_load(self, paddr: int) -> int:
        """A CPU LOAD reached proxy space; returns the encoded status word."""
        operand = self._decode(paddr)
        device_errors = self._prospective_device_errors(operand)
        result = self.sm.load(operand, device_errors=device_errors)
        if device_errors:
            self.backend.record_error_bits(device_errors)
        elif result.event is UdmaEvent.BAD_LOAD:
            self.backend.record_fault("bad-load")
        if self._spans is not None:
            self._span_load(operand, result)
        start = result.start
        if start is not None:
            self.start_transfer(
                self._endpoint(start.source),
                self._endpoint(start.destination),
                start.count,
            )
        return result.status.encode(self.page_size)

    def inval(self) -> None:
        """The kernel's context-switch Inval: one store of a negative count.

        "This can be done by causing a hardware Inval event (i.e. by
        storing a negative nbytes value to any valid proxy address)"
        (section 6).  The kernel charges the store's cost itself.
        """
        operand = self._inval_operand
        if operand is None:
            operand = self._inval_operand = ProxyOperand(
                self.layout.proxy(0), SpaceKind.MEMORY
            )
        if self.sm.state is UdmaState.DEST_LOADED:
            self.backend.record_fault("inval")
        self.sm.store(operand, -1)
        if self._spans is not None:
            self._span_inval()

    def terminate_transfer(self) -> bool:
        """Abort an in-flight transfer (the paper's sketched extension)."""
        if not self.sm.terminate():
            return False
        self.engine.abort()
        if self._spans is not None and self._span is not None:
            self._spans.finish(self._span, status="terminated")
            self._span = None
            self._span_phase = ""
        return True

    # --------------------------------------------------------- I4 support
    def memory_pages_in_registers(self) -> Set[int]:
        """Physical page numbers currently named by the hardware registers.

        This is what the kernel's remap guard consults before paging
        anything out: the engine's SOURCE and DESTINATION registers while
        Transferring, and the latched DESTINATION while DestLoaded.  A
        basic transfer never crosses a page, so each register names exactly
        one page.
        """
        pages: Set[int] = set()
        for base in (
            self.engine.source_memory_base(),
            self.engine.destination_memory_base(),
        ):
            if base is not None:
                pages.add(base // self.page_size)
        if (
            self.sm.state is UdmaState.DEST_LOADED
            and self.sm.destination is not None
            and self.sm.destination.space is SpaceKind.MEMORY
        ):
            real = self.layout.unproxy(self.sm.destination.proxy_addr)
            pages.add(real // self.page_size)
        return pages

    @property
    def busy(self) -> bool:
        """True while a transfer is in flight."""
        return self.sm.state is UdmaState.TRANSFERRING

    # ------------------------------------------------------- poll fast lane
    def fast_poll_ok(self) -> bool:
        """True when :meth:`fast_poll` is exactly equivalent to io_load.

        A LOAD is a pure status read whenever the machine is *not* in
        DestLoaded (Idle and Transferring loads cause no transition and
        consult no device), and nothing host-side needs the full status
        object (no spans).  Event firing cannot enter
        DestLoaded -- only a CPU store can -- so a True answer stays valid
        across the caller's cycle charge.
        """
        return (
            self._spans is None
            and self.sm.state is not UdmaState.DEST_LOADED
        )

    def fast_poll(self, paddr: int) -> bool:
        """The MATCH flag of a status LOAD from ``paddr``, cheaply.

        Identical simulated effects to :meth:`io_load` under the
        :meth:`fast_poll_ok` guard: the state machine's load counter is
        bumped and nothing else changes.  Only the MATCH flag is computed
        -- a completion poll never looks at the rest of the word.
        """
        sm = self.sm
        sm.loads += 1
        if sm.state is UdmaState.TRANSFERRING:
            source = sm.source
            return source is not None and source.proxy_addr == paddr
        return False

    # ------------------------------------------------------------ internal
    _OPERAND_CACHE_CAPACITY = 1 << 16

    def _decode(self, paddr: int) -> ProxyOperand:
        operand = self._operand_cache.get(paddr)
        if operand is not None:
            return operand
        operand = self.backend.decode(paddr)
        if len(self._operand_cache) >= self._OPERAND_CACHE_CAPACITY:
            self._operand_cache.clear()
        self._operand_cache[paddr] = operand
        return operand

    def _prospective_device_errors(self, source_operand: ProxyOperand) -> int:
        """Device error bits for the transfer a Load would start, if any."""
        if self.sm.state is not UdmaState.DEST_LOADED:
            return 0
        dest = self.sm.destination
        assert dest is not None
        if source_operand.space is dest.space:
            return 0  # BadLoad path; no device consulted
        count = min(
            self.sm.count,
            self.page_size - (source_operand.proxy_addr % self.page_size),
        )
        backend = self.backend
        extra = backend.initiation_check_cycles
        if extra:
            # Non-proxy backends pay for their check here: the LOAD that
            # would start the transfer stalls while the capability table
            # or the in-kernel handler renders its verdict.  The proxy
            # scheme rides the MMU and charges nothing (extra == 0).
            self.clock.advance(extra)
        errors = 0
        if source_operand.space is SpaceKind.DEVICE:
            device, offset = self._device_at(source_operand.proxy_addr)
            errors |= backend.source_errors(device, offset, count)
        if dest.space is SpaceKind.DEVICE:
            device, offset = self._device_at(dest.proxy_addr)
            errors |= backend.dest_errors(device, offset, count)
        return errors

    # ----------------------------------------------------------- span hooks
    # All host-side: span calls never touch the simulated clock, so cycles
    # and counters are bit-identical with tracing on or off.

    def _span_store(self, operand: ProxyOperand, value: int, event) -> None:
        if event is UdmaEvent.INVAL:
            self._span_inval()
            return
        if self.sm.state is not UdmaState.DEST_LOADED:
            return  # store ignored while Transferring; no span state change
        if self._span is not None and self._span_phase == "init":
            # Second STORE before the LOAD: the latch was overwritten.
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
        self._span_phase = "init"
        self._span_dest = operand.proxy_addr

    def _span_load(self, operand: ProxyOperand, result) -> None:
        if self._span is None or self._span_phase != "init":
            return  # status poll; nothing to annotate
        if result.event is UdmaEvent.BAD_LOAD:
            self._spans.finish(self._span, status="bad-load")
            self._retry_hint = (self._span_dest, self._span)
            self._span = None
            self._span_phase = ""
        elif result.start is not None:
            self._span_phase = "xfer"
            self._spans.event(
                self._span,
                "initiated",
                source=f"{operand.proxy_addr:#x}",
                count=result.start.count,
            )
        elif self.sm.state is UdmaState.IDLE:
            # A device vetoed the transfer (check_transfer error bits).
            self._spans.finish(self._span, status="device-error")
            self._retry_hint = (self._span_dest, self._span)
            self._span = None
            self._span_phase = ""

    def _span_inval(self) -> None:
        if self._span is None:
            return
        if self._span_phase == "xfer":
            # Transfers are atomic once started; the Inval only cleared
            # the (empty) latch.  Record it as causal context.
            self._spans.event(self._span, "inval")
        else:
            self._spans.finish(self._span, status="inval")
            self._retry_hint = (self._span_dest, self._span)
            self._span = None
            self._span_phase = ""

    def start_transfer(
        self,
        source: Endpoint,
        destination: Endpoint,
        count: int,
        duration: Optional[int] = None,
    ) -> None:
        """Start the DMA engine on resolved endpoints.

        The state machine has already moved to Transferring.  ``duration``
        is :meth:`DmaEngine.transfer_duration` for these arguments when
        the caller worked it out ahead of time (a send plan does, once,
        for a device whose answer cannot change); None asks the engine.
        """
        if duration is None:
            duration = self.engine.transfer_duration(source, destination, count)
        self._transfer_start_time = self.clock.now
        self._transfer_duration = duration
        self._transfer_count = count
        self.engine.start(
            source,
            destination,
            count,
            self._transfer_done,
            span_id=self._span,
            duration=duration,
        )

    def _endpoint(self, operand: ProxyOperand) -> Endpoint:
        endpoint = self._endpoints.get(operand.proxy_addr)
        if endpoint is not None:
            return endpoint
        if operand.space is SpaceKind.MEMORY:
            endpoint = MemoryEndpoint(
                self.physmem, self.layout.unproxy(operand.proxy_addr)
            )
        else:
            endpoint = DeviceEndpoint(*self._device_at(operand.proxy_addr))
        if len(self._endpoints) >= self._OPERAND_CACHE_CAPACITY:
            self._endpoints.clear()
        self._endpoints[operand.proxy_addr] = endpoint
        return endpoint

    def _device_at(self, proxy_addr: int) -> "tuple[UDMADevice, int]":
        hit = self._window_cache.get(proxy_addr)
        if hit is not None:
            return hit
        window = self.layout.window_of(proxy_addr)
        result = (self._devices[window.name], proxy_addr - window.base)
        if len(self._window_cache) < self._OPERAND_CACHE_CAPACITY:
            self._window_cache[proxy_addr] = result
        return result

    def _transfer_done(self) -> None:
        self.sm.transfer_done()
        samples = self._latency_samples
        if samples is not None:
            cycles = self.clock.now - self._transfer_start_time
            samples[cycles] = samples.get(cycles, 0) + 1
        if self._spans is not None and self._span is not None:
            self._spans.finish(self._span, status="complete")
            self._span = None
            self._span_phase = ""

    def _remaining_in_flight(self) -> int:
        """Bytes left in the in-flight transfer.

        A word-stepping engine exposes true progress; the analytic engine
        is approximated linearly from its completion schedule (hardware
        with no progress counter would report similarly).
        """
        if self.engine.busy and self.engine.progress_bytes is not None:
            return max(0, self.engine.count - self.engine.progress_bytes)
        if self._transfer_duration <= 0:
            return self._transfer_count
        elapsed = self.clock.now - self._transfer_start_time
        frac_left = max(0.0, 1.0 - elapsed / self._transfer_duration)
        return int(math.ceil(self._transfer_count * frac_left))
