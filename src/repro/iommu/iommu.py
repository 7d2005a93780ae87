"""The virtual-address RDMA tier: an IOMMU in front of the receive DMA.

The paper's NIPT names *physical* frames on the receiving node, which
forces the receiving kernel to keep exported pages resident (the
mapping-time pin of :mod:`repro.cluster`).  The two Psistakis theses in
PAPERS.md develop the alternative this module reproduces: NIPT entries
name a destination *address space* and *virtual* page, packets carry the
tagged virtual destination word across the wire unchanged (see
:mod:`repro.net.packet`), and the receiving NIC translates at delivery
time through an I/O page table -- so exported pages need no pin and may
be evicted like any other memory.

Translation path (per delivered data packet):

* **IOTLB hit** -- the (asid, vpage) entry is cached and both its
  generation stamps are current; costs :attr:`CostModel.iommu_iotlb_hit_cycles`
  of receive-DMA occupancy.
* **IOTLB miss** -- the NIC-side walker reads the I/O page table and the
  CPU page table (:attr:`CostModel.iommu_walk_cycles`); a resident page
  fills the IOTLB and delivers.
* **Page fault** -- the target page is valid but not resident: the
  transfer is *parked* in a bounded fault queue and the kernel services
  it (map-in or swap-in through the existing :class:`VmManager` paths,
  via the advance-free :meth:`VmManager.dma_map_in`), after which the
  receive DMA *replays* the parked payload from the faulting offset --
  page-fault-and-resume instead of the paper's abort.
* **Degradation** -- a full fault queue, an exhausted park budget, a
  revoked window or a dead address space degrade to the classic SHRIMP
  outcome: the packet is refused and counted in ``rx_errors``, exactly
  the Inval/BadLoad contract the paper's hardware gives.

Shootdown coherence costs zero new kernel hooks: every IOTLB entry is
stamped with the *CPU* page table's generation and the I/O page table's
generation at fill time, and is honoured only while both are current.
Any remap, unmap, page-out or protection change bumps the CPU
generation (see :mod:`repro.vm.page_table`); any export or revocation
bumps the I/O generation.  A stale entry silently re-walks.

Delivery ordering: arrivals targeting a page with parked transfers park
*behind* them (FIFO per page) even if the page has become resident in
the meantime, and a replay delivers the whole per-page queue in arrival
order -- so the bytes a receive buffer ends up holding are exactly what
a fault-free execution of the same sends produces.  The chaos harness's
IOMMU convergence oracle (``repro.chaos``) is built on that guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.config import IommuConfig
from repro.errors import ConfigurationError
from repro.net.packet import Packet, unpack_virtual
from repro.snapshot.protocol import SnapshotMixin

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel
    from repro.net.nic import ShrimpNic
    from repro.sim.clock import Clock


class IoPageTable:
    """The per-node I/O page table: exported (asid, vpage) windows.

    The OS registers a window when a receive buffer is exported and
    unregisters it at channel release.  The *write permission* of a
    window is fixed at export time: a later CPU-side ``mprotect`` changes
    what the process may store, not what the device may deliver -- the
    same decoupling real IOMMUs give (the IOPTE, not the CPU PTE,
    authorises device access).
    """

    def __init__(self) -> None:
        self._windows: Dict[Tuple[int, int], bool] = {}
        #: bumped on every register/unregister; IOTLB entries are stamped
        #: with this and die with it
        self.generation = 0

    def register(self, asid: int, vpage: int, writable: bool = True) -> None:
        """OS-side: export one page of a receive window."""
        self._windows[(asid, vpage)] = writable
        self.generation += 1

    def unregister(self, asid: int, vpage: int) -> None:
        """OS-side: revoke one exported page (channel release)."""
        if self._windows.pop((asid, vpage), None) is not None:
            self.generation += 1

    def lookup(self, asid: int, vpage: int) -> Optional[bool]:
        """Walker-side: the window's write permission, or None."""
        return self._windows.get((asid, vpage))

    @property
    def windows(self) -> int:
        """Number of registered window pages."""
        return len(self._windows)


class Iotlb:
    """The IOMMU's translation cache, FIFO-evicted and generation-stamped.

    Each entry carries ``(frame, pte, cpu_generation, io_generation)``;
    a lookup is a hit only while *both* stamps are current, which makes
    the cache shootdown-coherent with the CPU MMU for free (see module
    docstring).  The cached PTE reference lets a hit set the dirty bit
    (a use-bit write, no shootdown needed) without re-walking.
    """

    def __init__(self, entries: int) -> None:
        if entries <= 0:
            raise ConfigurationError(f"IOTLB needs a positive size, got {entries}")
        self.capacity = entries
        self._entries: Dict[Tuple[int, int], Tuple[int, object, int, int]] = {}
        self.hits = 0
        self.misses = 0

    def lookup(
        self, asid: int, vpage: int, cpu_gen: int, io_gen: int
    ) -> Optional[Tuple[int, object]]:
        """(frame, pte) when cached and current, else None."""
        cached = self._entries.get((asid, vpage))
        if cached is not None:
            frame, pte, stamp_cpu, stamp_io = cached
            if stamp_cpu == cpu_gen and stamp_io == io_gen:
                self.hits += 1
                return frame, pte
            # Stale: a remap or revocation happened since the fill.
            del self._entries[(asid, vpage)]
        self.misses += 1
        return None

    def fill(
        self, asid: int, vpage: int, frame: int, pte: object, cpu_gen: int, io_gen: int
    ) -> None:
        key = (asid, vpage)
        if key not in self._entries and len(self._entries) >= self.capacity:
            # FIFO eviction: dicts iterate in insertion order.
            self._entries.pop(next(iter(self._entries)))
        self._entries[key] = (frame, pte, cpu_gen, io_gen)

    def invalidate(self, asid: int, vpage: int) -> None:
        self._entries.pop((asid, vpage), None)

    @property
    def occupancy(self) -> int:
        return len(self._entries)


@dataclass
class ParkedTransfer:
    """One incoming transfer awaiting fault service (or a predecessor's).

    The payload is snapshotted at park time, so a pooled packet shell can
    go home immediately and the sender-side buffer reuse rules are
    unchanged.  ``packet`` retains the original object only when
    something downstream (spans, reliability, receive hooks) must see it
    again at replay.
    """

    nic: "ShrimpNic"
    asid: int
    vpage: int
    offset: int              # byte offset within the destination page
    payload: bytes
    dst_word: int            # the original tagged destination word
    src_node: int
    seq: int
    span: Optional[int]
    packet: Optional[Packet] = None
    #: service attempts consumed (bounded by ``IommuConfig.park_budget``)
    parks: int = 0


@dataclass
class RxVerdict:
    """The IOMMU's decision for one delivered packet."""

    kind: str                # "deliver" | "park" | "abort"
    paddr: int = 0           # resolved physical address (kind == "deliver")
    stall: int = 0           # receive-DMA occupancy charged for translation
    reason: str = ""         # abort cause (kind == "abort")


class Iommu(SnapshotMixin):
    """One node's IOMMU: translate, park, service, replay.

    Built by :class:`~repro.machine.Machine` when its config carries an
    :class:`~repro.config.IommuConfig`; wired to every attached device
    that exposes ``attach_iommu`` (the :class:`~repro.net.nic.ShrimpNic`).
    """

    def __init__(
        self,
        config: IommuConfig,
        clock: "Clock",
        costs,
        kernel: "Kernel",
        name: str = "iommu",
    ) -> None:
        self.config = config
        self.clock = clock
        self.costs = costs
        self.kernel = kernel
        self.name = name
        self.page_size = costs.page_size
        self.table = IoPageTable()
        self.iotlb = Iotlb(config.iotlb_entries)
        #: per-page FIFO queues of parked transfers, keyed by (asid, vpage)
        self._parked: Dict[Tuple[int, int], List[ParkedTransfer]] = {}
        self._parked_count = 0
        # Counters (exactly-once ledger: every translated data packet ends
        # up in exactly one of delivered_direct / delivered_replayed /
        # aborted).
        self.translations = 0
        self.delivered_direct = 0
        self.delivered_replayed = 0
        self.faults_parked = 0
        self.faults_reparked = 0
        self.aborted = 0
        self.aborts_by_reason: Dict[str, int] = {}

    # ------------------------------------------------------------- windows
    def register_window(self, asid: int, vpage: int, writable: bool = True) -> None:
        """Export one receive-buffer page to the device side."""
        self.table.register(asid, vpage, writable)

    def unregister_window(self, asid: int, vpage: int) -> None:
        """Revoke one exported page; parked transfers for it degrade."""
        self.table.unregister(asid, vpage)
        self.iotlb.invalidate(asid, vpage)
        if (asid, vpage) in self._parked:
            self._abort_page((asid, vpage), "window-revoked")

    # ------------------------------------------------------------ receive
    def receive(self, nic: "ShrimpNic", packet: Packet) -> RxVerdict:
        """Translate one virtual-destination packet at delivery time.

        Called by the NIC's receive-DMA completion; returns the verdict
        the NIC acts on.  Never advances the clock (this runs inside an
        event callback); timing is conveyed as ``stall`` cycles of
        receive-DMA occupancy, and fault service latency via scheduled
        events.
        """
        self.translations += 1
        asid, vaddr = unpack_virtual(packet.dst_paddr)
        vpage, offset = divmod(vaddr, self.page_size)
        if offset + len(packet.payload) > self.page_size:
            # A basic UDMA transfer cannot cross a page boundary; a tagged
            # word saying otherwise is corrupt.
            return self._abort(nic, packet, "page-cross", self.costs.iommu_walk_cycles)
        key = (asid, vpage)
        if key in self._parked:
            # Predecessors are parked on this page: queue behind them even
            # if translation would now succeed -- delivery order within a
            # page must match the fault-free execution.
            return self._park(nic, packet, key, offset, follow=True)
        writable = self.table.lookup(asid, vpage)
        if writable is None:
            return self._abort(nic, packet, "unmapped", self.costs.iommu_walk_cycles)
        if not writable:
            return self._abort(nic, packet, "readonly", self.costs.iommu_walk_cycles)
        process = self.kernel.processes.get(asid)
        if process is None:
            return self._abort(nic, packet, "no-asid", self.costs.iommu_walk_cycles)
        cpu_gen = process.page_table.generation
        io_gen = self.table.generation
        cached = self.iotlb.lookup(asid, vpage, cpu_gen, io_gen)
        if cached is not None:
            frame, pte = cached
            pte.dirty = True  # receiving-side I3: the device wrote the page
            self.delivered_direct += 1
            return RxVerdict(
                "deliver",
                paddr=frame * self.page_size + offset,
                stall=self.costs.iommu_iotlb_hit_cycles,
            )
        pte = process.page_table.get(vpage)
        if pte is not None and pte.present:
            self.iotlb.fill(asid, vpage, pte.pfn, pte, cpu_gen, io_gen)
            pte.dirty = True
            self.delivered_direct += 1
            return RxVerdict(
                "deliver",
                paddr=pte.pfn * self.page_size + offset,
                stall=self.costs.iommu_walk_cycles,
            )
        # Valid window, page not resident: page-fault-and-resume.
        return self._park(nic, packet, key, offset, follow=False)

    # ------------------------------------------------------------- parking
    def _park(
        self,
        nic: "ShrimpNic",
        packet: Packet,
        key: Tuple[int, int],
        offset: int,
        follow: bool,
    ) -> RxVerdict:
        if self._parked_count >= self.config.fault_queue_depth:
            return self._abort(
                nic, packet, "queue-full", self.costs.iommu_walk_cycles
            )
        retain = packet.span is not None or nic.reliability is not None or bool(
            nic.on_receive
        )
        parked = ParkedTransfer(
            nic=nic,
            asid=key[0],
            vpage=key[1],
            offset=offset,
            payload=bytes(packet.payload),
            dst_word=packet.dst_paddr,
            src_node=packet.src_node,
            seq=packet.seq,
            span=packet.span,
            packet=packet if retain else None,
        )
        queue = self._parked.get(key)
        if queue is None:
            self._parked[key] = [parked]
            # Head of a new queue: schedule the kernel's fault service.
            # partial (not a lambda): parked fault-service events are
            # snapshot state and must pickle with the event queue.
            self.clock.schedule(
                self.costs.iommu_fault_service_cycles,
                partial(self._service, key),
            )
        else:
            queue.append(parked)
        self._parked_count += 1
        self.faults_parked += 1
        return RxVerdict("park", stall=self.costs.iommu_walk_cycles)

    def _service(self, key: Tuple[int, int]) -> None:
        """Kernel fault service for one parked page (scheduled event)."""
        queue = self._parked.get(key)
        if not queue:
            return  # revoked and aborted while the event was in flight
        head = queue[0]
        asid, vpage = key
        process = self.kernel.processes.get(asid)
        if process is None or self.table.lookup(asid, vpage) is None:
            self._abort_page(key, "window-revoked")
            return
        pte = process.page_table.get(vpage)
        if pte is not None and pte.present:
            frame, extra = pte.pfn, 0
        else:
            mapped = self.kernel.vm.dma_map_in(process, vpage)
            if mapped is None:
                # No free frame right now: re-park, bounded by the budget.
                head.parks += 1
                self.faults_reparked += 1
                if head.parks >= self.config.park_budget:
                    self._abort_page(key, "park-budget")
                    return
                self.clock.schedule(
                    self.costs.iommu_fault_service_cycles,
                    partial(self._service, key),
                )
                return
            frame, extra = mapped
        # Pin the frame through the replay window so eviction cannot race
        # the queued payload writes.  Pins are booleans, not refcounts:
        # only release a pin this path took.
        was_pinned = self.kernel.frames.is_pinned(frame)
        if not was_pinned:
            self.kernel.frames.pin(frame)
        if extra > 0:
            # Swap-in I/O: the replay happens when the disk transfer lands.
            self.clock.schedule(
                extra, partial(self._replay, key, frame, was_pinned)
            )
        else:
            self._replay(key, frame, was_pinned)

    def _replay(self, key: Tuple[int, int], frame: int, was_pinned: bool) -> None:
        """Deliver every transfer parked on a now-resident page, in order."""
        queue = self._parked.pop(key, None)
        if queue is None:
            return
        asid, vpage = key
        base = frame * self.page_size
        process = self.kernel.processes.get(asid)
        pte = process.page_table.get(vpage) if process is not None else None
        for parked in queue:
            self._parked_count -= 1
            if pte is not None:
                pte.dirty = True
            parked.nic.complete_parked(parked, base + parked.offset)
            self.delivered_replayed += 1
        if not was_pinned and self.kernel.frames.is_pinned(frame):
            self.kernel.frames.unpin(frame)

    # -------------------------------------------------------------- aborts
    def _abort(
        self, nic: "ShrimpNic", packet: Packet, reason: str, stall: int
    ) -> RxVerdict:
        self.aborted += 1
        self.aborts_by_reason[reason] = self.aborts_by_reason.get(reason, 0) + 1
        return RxVerdict("abort", stall=stall, reason=reason)

    def _abort_page(self, key: Tuple[int, int], reason: str) -> None:
        """Degrade a whole parked page queue to the classic refusal."""
        queue = self._parked.pop(key, None)
        if queue is None:
            return
        for parked in queue:
            self._parked_count -= 1
            self.aborted += 1
            self.aborts_by_reason[reason] = self.aborts_by_reason.get(reason, 0) + 1
            parked.nic.abort_parked(parked, reason)

    # ----------------------------------------------------------- inspection
    @property
    def parked_count(self) -> int:
        """Transfers currently parked across all pages."""
        return self._parked_count

    def counters(self) -> Dict[str, int]:
        """Curated counter snapshot (chaos / tests)."""
        return {
            "translations": self.translations,
            "iotlb_hits": self.iotlb.hits,
            "iotlb_misses": self.iotlb.misses,
            "delivered_direct": self.delivered_direct,
            "delivered_replayed": self.delivered_replayed,
            "faults_parked": self.faults_parked,
            "faults_reparked": self.faults_reparked,
            "aborted": self.aborted,
            "parked_now": self._parked_count,
            "windows": self.table.windows,
        }
