"""The UDMA hardware state machine (Figure 5), implemented verbatim.

States: **Idle**, **DestLoaded**, **Transferring**.  Transitions:

====================  ==============  =======================================
state                 event           action / next state
====================  ==============  =======================================
Idle                  Store           latch DESTINATION+COUNT -> DestLoaded
Idle                  Load            status only (INVALID flag); stay Idle
Idle                  Inval           stay Idle
DestLoaded            Store           overwrite DESTINATION+COUNT; stay
DestLoaded            Inval           clear latch -> Idle
DestLoaded            Load (good)     latch SOURCE, start engine -> Transferring
DestLoaded            Load (BadLoad)  same-region request -> Idle, WRONG-SPACE
DestLoaded            Load (dev err)  device vetoed -> Idle, error bits set
Transferring          Store/Load/...  status only; no state change
Transferring          TransferDone    -> Idle
====================  ==============  =======================================

"If no transition is depicted for a given event in a given state, then that
event does not cause a state transition."

The machine is deliberately ignorant of address translation, devices and
timing: it sees pre-decoded :class:`ProxyOperand` values and returns a
:class:`StartDirective` when a transfer should begin.  The controller
(:mod:`repro.core.controller`) owns everything physical.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.events import UdmaEvent, classify_store
from repro.core.status import UdmaStatus


class UdmaState(enum.Enum):
    """The three states of Figure 5."""

    IDLE = "Idle"
    DEST_LOADED = "DestLoaded"
    TRANSFERRING = "Transferring"


class SpaceKind(enum.Enum):
    """Which proxy region an operand came from (for BadLoad detection)."""

    MEMORY = "memory"
    DEVICE = "device"


@dataclass(frozen=True)
class ProxyOperand:
    """A decoded proxy-space access as the state machine sees it.

    Attributes:
        proxy_addr: the physical proxy address the CPU referenced.
        space: memory-proxy or device-proxy.
    """

    proxy_addr: int
    space: SpaceKind


@dataclass(frozen=True)
class StartDirective:
    """Instruction from the state machine to the controller: start DMA."""

    source: ProxyOperand
    destination: ProxyOperand
    count: int


@dataclass(slots=True)
class LoadResult:
    """Outcome of a Load event: a status word, maybe a transfer to start.

    A plain (slotted, non-frozen) dataclass: one is built per proxy LOAD,
    so construction cost is on the polling hot path.
    """

    status: UdmaStatus
    start: Optional[StartDirective]
    event: UdmaEvent


class UdmaStateMachine:
    """The Figure 5 machine plus status-word generation.

    Args:
        page_size: hardware page size.  The COUNT register is only wide
            enough for one page, and "a basic UDMA transfer cannot cross a
            page boundary in either the source or destination spaces"
            (section 4) -- so the hardware clamps the latched count to the
            destination page span at Store time and to the source page span
            at Load time.  User code issues follow-up transfers for the
            remainder (section 8: "an additional transfer may be required
            if a page boundary is crossed").
        remaining_in_flight: callback giving the bytes still to move for
            the transfer currently in the engine (used for the
            REMAINING-BYTES field while Transferring).  Defaults to "all of
            it", which is the conservative hardware answer when the engine
            exposes no progress counter.
    """

    def __init__(
        self,
        page_size: int = 4096,
        remaining_in_flight: Optional[Callable[[], int]] = None,
    ) -> None:
        self.page_size = page_size
        self.state = UdmaState.IDLE
        self.destination: Optional[ProxyOperand] = None
        self.count = 0
        self.source: Optional[ProxyOperand] = None
        self._in_flight_count = 0
        self._remaining_in_flight = remaining_in_flight
        # Counters for tests and traces.
        self.stores = 0
        self.loads = 0
        self.invals = 0
        self.bad_loads = 0
        self.initiations = 0
        self.completions = 0
        # Interned status words: UdmaStatus is frozen, so identical field
        # combinations can share one instance (and its memoised encoding).
        # A polling loop sees the same handful of combinations per page.
        self._status_cache: "dict[tuple, UdmaStatus]" = {}

    # -------------------------------------------------------------- events
    def store(self, operand: ProxyOperand, value: int) -> UdmaEvent:
        """Process a STORE to proxy space; returns the classified event."""
        event = classify_store(value)
        if event is UdmaEvent.INVAL:
            self.invals += 1
            # "An Inval event moves the machine into the Idle state and is
            # used to terminate an incomplete transfer initiation sequence."
            # In Transferring, no transition is depicted: the in-flight
            # transfer continues ("once started, a UDMA transfer continues
            # regardless", section 6).
            if self.state is not UdmaState.TRANSFERRING:
                self._clear_latch()
                self.state = UdmaState.IDLE
            return event
        self.stores += 1
        if self.state is UdmaState.TRANSFERRING:
            # No transition depicted; the store is ignored.
            return event
        # Idle or DestLoaded: latch (or overwrite) DESTINATION and COUNT.
        # The count is clamped to the destination page span (see __init__).
        self.destination = operand
        self.count = min(value, self._page_span(operand.proxy_addr))
        self.state = UdmaState.DEST_LOADED
        return event

    def load(self, operand: ProxyOperand, device_errors: int = 0) -> LoadResult:
        """Process a LOAD from proxy space.

        ``device_errors`` carries the device-specific error bits computed
        by the controller for the *prospective* transfer; non-zero vetoes
        initiation (e.g. an alignment error) and returns the machine to
        Idle.
        """
        self.loads += 1

        if self.state is UdmaState.DEST_LOADED:
            assert self.destination is not None
            if operand.space is self.destination.space:
                # BadLoad: memory-to-memory or device-to-device request,
                # "which the (basic) UDMA device does not support".
                self.bad_loads += 1
                self._clear_latch()
                self.state = UdmaState.IDLE
                return LoadResult(
                    status=self._intern_status(
                        initiation=True,
                        invalid=True,  # now in Idle
                        wrong_space=True,
                    ),
                    start=None,
                    event=UdmaEvent.BAD_LOAD,
                )
            if device_errors:
                # The device refused the transfer; report its error bits.
                self._clear_latch()
                self.state = UdmaState.IDLE
                return LoadResult(
                    status=self._intern_status(
                        initiation=True,
                        invalid=True,
                        device_errors=device_errors,
                    ),
                    start=None,
                    event=UdmaEvent.LOAD,
                )
            # Successful initiation: DestLoaded -> Transferring.  Clamp to
            # the source page span too (hardware boundary enforcement).
            effective = min(self.count, self._page_span(operand.proxy_addr))
            directive = StartDirective(
                source=operand,
                destination=self.destination,
                count=effective,
            )
            self.source = operand
            self._in_flight_count = effective
            self.state = UdmaState.TRANSFERRING
            self.initiations += 1
            return LoadResult(
                status=self._intern_status(
                    initiation=False,  # zero flag == started
                    transferring=True,
                    remaining_bytes=self._remaining(),
                ),
                start=directive,
                event=UdmaEvent.LOAD,
            )

        # Idle or Transferring: pure status read, no transition.
        return LoadResult(
            status=self._status_snapshot(operand),
            start=None,
            event=UdmaEvent.LOAD,
        )

    def transfer_done(self) -> None:
        """The DMA engine's completion line: Transferring -> Idle."""
        if self.state is not UdmaState.TRANSFERRING:
            return
        self.completions += 1
        self._clear_latch()
        self.source = None
        self._in_flight_count = 0
        self.state = UdmaState.IDLE

    def terminate(self) -> bool:
        """Software abort of an in-flight transfer (paper's sketched edge).

        Returns True if a transfer was actually aborted.  The controller is
        responsible for aborting the engine too.
        """
        if self.state is not UdmaState.TRANSFERRING:
            return False
        self._clear_latch()
        self.source = None
        self._in_flight_count = 0
        self.state = UdmaState.IDLE
        return True

    # ------------------------------------------------------------- queries
    def status(self, operand: Optional[ProxyOperand] = None) -> UdmaStatus:
        """Status word as a non-initiating LOAD from ``operand`` would see."""
        return self._status_snapshot(operand)

    # ------------------------------------------------------------ internal
    def _status_snapshot(self, operand: Optional[ProxyOperand]) -> UdmaStatus:
        transferring = self.state is UdmaState.TRANSFERRING
        match = (
            transferring
            and operand is not None
            and self.source is not None
            and operand.proxy_addr == self.source.proxy_addr
        )
        return self._intern_status(
            initiation=True,
            transferring=transferring,
            invalid=self.state is UdmaState.IDLE,
            match=match,
            remaining_bytes=self._remaining(),
        )

    _STATUS_CACHE_CAPACITY = 1 << 13

    def _intern_status(
        self,
        initiation: bool = True,
        transferring: bool = False,
        invalid: bool = False,
        match: bool = False,
        wrong_space: bool = False,
        remaining_bytes: int = 0,
        device_errors: int = 0,
    ) -> UdmaStatus:
        key = (
            initiation,
            transferring,
            invalid,
            match,
            wrong_space,
            remaining_bytes,
            device_errors,
        )
        status = self._status_cache.get(key)
        if status is None:
            status = UdmaStatus(*key)
            if len(self._status_cache) >= self._STATUS_CACHE_CAPACITY:
                self._status_cache.clear()
            self._status_cache[key] = status
        return status

    def _remaining(self) -> int:
        if self.state is UdmaState.DEST_LOADED:
            return self.count
        if self.state is UdmaState.TRANSFERRING:
            if self._remaining_in_flight is not None:
                return max(0, min(self._in_flight_count, self._remaining_in_flight()))
            return self._in_flight_count
        return 0

    def _page_span(self, proxy_addr: int) -> int:
        """Bytes from ``proxy_addr`` to the end of its (proxy) page."""
        return self.page_size - (proxy_addr % self.page_size)

    def _clear_latch(self) -> None:
        self.destination = None
        self.count = 0
