"""The SHRIMP network interface (Figure 6), as a UDMA device.

Send path ("deliberate update"):

1. A user process initiates a UDMA transfer from memory to the NIC's
   device-proxy window.  The proxy page number indexes the NIPT; the
   in-page offset is carried to the destination ("the offset is combined
   with that page to form a remote physical memory address").
2. The DMA engine bursts the data over the I/O bus into the outgoing
   FIFO (this is the engine's transfer; the NIC's :meth:`dma_write` is the
   FIFO-side landing point).
3. The packetizing block builds a header and launches the packet onto the
   wire; the wire serialises packets one at a time, which is what lets a
   *subsequent* UDMA initiation overlap the previous packet's drain --
   the effect behind the Figure 8 curve's shape.
4. The backplane routes the packet; the receiving NIC's unpacking/checking
   block verifies it and the receive-side DMA writes the payload directly
   into physical memory ("at the receiving node, packet data is
   transferred directly to physical memory by the EISA DMA logic").

The NIC is send-only as a UDMA device, exactly like the real SHRIMP board:
"SHRIMP uses UDMA only for memory-to-device transfers".

The **automatic update** strategy of the earlier SHRIMP design (kept in
the final hardware, section 9) is implemented as an optional snooper:
stores to bound local pages are forwarded word-by-word to a fixed remote
page.  The snooper sits on the node CPU's store path only while at least
one page is bound, so stores on a node without bindings pay nothing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.devices.base import ERR_DEVICE_BASE, UDMADevice
from repro.errors import ConfigurationError, NetworkError
from repro.mem.physmem import PhysicalMemory
from repro.net.fifo import BoundedFifo
from repro.net.interconnect import Interconnect, ReceiverPort
from repro.net.nipt import NetworkInterfacePageTable, NiptEntry
from repro.net.packet import Packet, is_virtual, pack_virtual
from repro.params import CostModel
from repro.sim.clock import transfer_cycles

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cpu.cpu import CPU
    from repro.iommu import Iommu, ParkedTransfer
    from repro.net.reliable import ReliabilityPlane

#: device-specific error bits (above the standard low bits)
ERR_NO_RECEIVE = ERR_DEVICE_BASE  # NIC cannot be a UDMA source
ERR_NIPT_INVALID = ERR_DEVICE_BASE << 1  # destination page not exported


class ShrimpNic(UDMADevice, ReceiverPort):
    """One node's network interface board."""

    def __init__(
        self,
        node_id: int,
        costs: CostModel,
        physmem: PhysicalMemory,
        nipt_entries: int = 1 << 15,
        fifo_bytes: int = 1 << 20,
        name: Optional[str] = None,
        cut_through: bool = True,
    ) -> None:
        page_size = costs.page_size
        super().__init__(
            name if name is not None else f"nic{node_id}",
            proxy_size=nipt_entries * page_size,
            alignment=4,  # "aligned on 4-byte boundaries"
        )
        self.node_id = node_id
        self.costs = costs
        self.physmem = physmem
        self.page_size = page_size
        #: cut-through (the real SHRIMP pipeline: wire chases the DMA fill,
        #: receive DMA chases the wire) vs store-and-forward (each stage
        #: waits for the whole packet) -- the ablation bench quantifies
        #: what cut-through buys
        self.cut_through = cut_through
        self.nipt = NetworkInterfacePageTable(nipt_entries)
        self.outgoing = BoundedFifo(fifo_bytes, name=f"{self.name}.out")
        self.incoming = BoundedFifo(fifo_bytes, name=f"{self.name}.in")
        self.interconnect: Optional[Interconnect] = None
        # Wire and receive-DMA busy timelines (absolute cycle times).
        self._wire_free_at = 0
        self._rx_free_at = 0
        self._seq = 0
        # Duration memos: messaging workloads use a handful of distinct
        # sizes, so ceil-division per packet is wasted work.
        self._fill_cycles: Dict[int, int] = {}
        self._wire_cycles: Dict[int, int] = {}
        #: ack/retransmit transport (:mod:`repro.net.reliable`); ``None``
        #: keeps the NIC exactly as fast -- and exactly as lossy -- as the
        #: paper's hardware
        self.reliability: Optional["ReliabilityPlane"] = None
        #: the receive-side IOMMU (:mod:`repro.iommu`); ``None`` keeps the
        #: receive DMA writing resolved physical addresses, exactly the
        #: paper's EISA DMA logic
        self.iommu: Optional["Iommu"] = None
        # Automatic-update bindings: local physical page -> NIPT index.
        self._automatic: Dict[int, int] = {}
        #: the node CPU whose stores the snooper taps while a page is bound
        self._cpu: Optional["CPU"] = None
        # Metrics and measurement hooks.
        self.packets_sent = 0
        self.packets_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.rx_errors = 0
        self.last_wire_done = 0
        self.last_delivery_done = 0
        self.on_receive: List[Callable[[Packet], None]] = []

    # ------------------------------------------------------------- wiring
    def connect(self, interconnect: Interconnect) -> None:
        """Plug the NIC into the backplane."""
        if self.interconnect is not None:
            raise ConfigurationError(f"{self.name} is already connected")
        self.interconnect = interconnect
        interconnect.register(self.node_id, self)

    def enable_reliability(self, plane: "ReliabilityPlane") -> None:
        """Join an ack/retransmit transport plane (shared per backplane)."""
        self.reliability = plane

    def attach_iommu(self, iommu: "Iommu") -> None:
        """Put the node's IOMMU in front of this NIC's receive DMA."""
        self.iommu = iommu

    def attach_cpu(self, cpu: "CPU") -> None:
        """Give the automatic-update snooper the node's memory bus."""
        self._cpu = cpu

    # ----------------------------------------------------- UDMA device side
    def physical_errors(self, as_source: bool, offset: int, nbytes: int) -> int:
        errors = super().check_transfer(as_source, offset, nbytes)
        if as_source:
            # The SHRIMP NIC is a UDMA destination only.
            errors |= ERR_NO_RECEIVE
        return errors

    def check_transfer(self, as_source: bool, offset: int, nbytes: int) -> int:
        errors = self.physical_errors(as_source, offset, nbytes)
        if as_source:
            return errors
        # The protection half: a destination page is sendable only while
        # its NIPT entry is valid.  Alternative backends substitute their
        # own verdict for this lookup (see repro.protection).
        if self.nipt.lookup(offset // self.page_size) is None:
            errors |= ERR_NIPT_INVALID
        return errors

    def dma_read(self, offset: int, nbytes: int) -> bytes:
        raise NetworkError(
            f"{self.name}: device-to-memory UDMA is not supported by the "
            "SHRIMP network interface"
        )

    def dma_write(self, offset: int, data: bytes) -> None:
        """DMA fill landed in the outgoing FIFO: packetise and launch.

        The engine raises this at fill *completion*; the real hardware
        streamed cut-through, with packetizing chasing the fill through
        the outgoing FIFO.  We reconstruct the fill start from the cost
        model and schedule the wire as if transmission began one header
        time after the fill began -- so only a short wire tail (the FIFO
        flush) remains after the fill completes.

        ``data`` is typically a borrowed :class:`memoryview` of the
        sender's physical memory; ``bytes(data)`` below is the packetizer
        snapshot -- the *one* send-side copy, after which the sender may
        reuse its buffer while the packet is still in flight.
        """
        if self.clock is None or self.interconnect is None:
            raise ConfigurationError(f"{self.name} is not attached/connected")
        page_size = self.page_size
        entry = self.nipt.require(offset // page_size)
        if entry.virtual:
            dst_paddr = self._entry_dst(entry, offset % page_size)
        else:
            dst_paddr = entry.dst_page * page_size + offset % page_size
        pkt_span = None
        if self._spans is not None and self._spans.current_data_span is not None:
            # The engine publishes the transfer span whose data this is;
            # the packet's life becomes a child of that transfer.
            pkt_span = self._spans.begin(
                "packet",
                parent=self._spans.current_data_span,
                src=self.node_id,
                dst=entry.dst_node,
                bytes=len(data),
            )
        pool = self.interconnect.packet_pool
        if pool is not None and pkt_span is None and self.reliability is None:
            # Fast lane: a recycled packet shell.  Skipped whenever
            # something downstream may retain the packet past delivery
            # (spans, reliability), so recycling is always safe.  Without
            # reliability the sequence number is the NIC-global counter.
            self._seq += 1
            packet = pool.acquire(
                self.node_id, entry.dst_node, dst_paddr, data, self._seq
            )
        else:
            packet = Packet(
                src_node=self.node_id,
                dst_node=entry.dst_node,
                dst_paddr=dst_paddr,
                payload=bytes(data),
                seq=self._next_seq(entry.dst_node),
                span=pkt_span,
            )
        nbytes = len(data)
        wire_bytes = Packet.HEADER_BYTES + nbytes
        self.outgoing.push(packet, wire_bytes)
        fill_duration = self._fill_cycles.get(nbytes)
        if fill_duration is None:
            fill_duration = self.costs.dma_start_cycles + transfer_cycles(
                nbytes, self.costs.dma_bytes_per_cycle
            )
            self._fill_cycles[nbytes] = fill_duration
        self._launch(packet, wire_bytes, fill_start=self.clock.now - fill_duration)

    def _entry_dst(self, entry: NiptEntry, in_page: int) -> int:
        """Destination word for one NIPT entry + in-page byte offset.

        A physical entry resolves to the destination physical address,
        exactly the paper's header word.  A *virtual* entry (the IOMMU
        tier) encodes (asid, virtual address) into the same 64-bit word
        -- see :mod:`repro.net.packet` -- leaving the wire format and
        every timing property byte-identical.
        """
        if entry.virtual:
            return pack_virtual(
                entry.dst_asid, entry.dst_page * self.page_size + in_page
            )
        return entry.dst_page * self.page_size + in_page

    # ------------------------------------------------------------ send path
    def _launch(
        self, packet: Packet, wire_bytes: int, fill_start: Optional[int] = None
    ) -> None:
        """Serialise the packet onto the wire (cut-through when filling).

        ``wire_bytes`` is the packet's :attr:`~Packet.wire_bytes`, which the
        caller worked out for the outgoing FIFO.  ``fill_start`` is when
        the DMA fill of this packet began; the wire starts one header time
        after that (or when it frees up), and in any case finishes no
        earlier than ``wire_flush_cycles`` from now (the fill has just
        completed "now").
        """
        clock = self.clock
        assert clock is not None
        now = clock.now
        if self.cut_through and fill_start is not None:
            begin = fill_start
        else:
            begin = now  # store-and-forward: wait for full fill
        wire_start = max(begin + self.costs.packet_header_cycles, self._wire_free_at)
        wire_duration = self._wire_cycles.get(wire_bytes)
        if wire_duration is None:
            wire_duration = transfer_cycles(
                wire_bytes, self.costs.wire_bytes_per_cycle
            )
            self._wire_cycles[wire_bytes] = wire_duration
        done = max(wire_start + wire_duration, now + self.costs.wire_flush_cycles)
        self._wire_free_at = done
        self.last_wire_done = done
        clock.schedule(done - now, self._wire_complete)

    def _wire_complete(self) -> None:
        assert self.clock is not None and self.interconnect is not None
        packet = self.outgoing.pop()
        self.packets_sent += 1
        self.bytes_sent += len(packet.payload)
        if self._spans is not None:
            self._spans.event(packet.span, "wire-tx", seq=packet.seq)
        if self.reliability is not None:
            # Track the packet and arm its retransmit timer only once it
            # has actually cleared the wire (retransmissions re-enter here
            # too, re-arming with backoff).
            self.reliability.on_transmit(self, packet)
        # Zero-copy transit: hand the packet object to the backplane; wire
        # bytes are only materialised if a fault injector rewrites it.
        self.interconnect.route(self.node_id, packet.dst_node, packet)

    def retransmit(self, packet: Packet) -> None:
        """Re-launch an unacknowledged packet through the ordinary wire path.

        Called by the reliability plane's timeout handler; the retry pays
        full store-and-forward wire occupancy (the outgoing FIFO holds it
        again until the wire frees up), so retransmissions contend with
        fresh traffic exactly like the real firmware's would.
        """
        wire_bytes = packet.wire_bytes
        self.outgoing.push(packet, wire_bytes)
        self._launch(packet, wire_bytes)

    # --------------------------------------------------------- receive path
    def deliver(self, wire: "bytes | Packet") -> None:
        """Backplane delivery into the incoming FIFO (unpack + check).

        ``wire`` is either a :class:`Packet` object (the zero-copy fast
        path -- structurally intact by construction, so the Checking block
        has nothing to reject) or raw wire bytes (changed by a fault
        injector, or a cross-shard arrival: decoded and checksummed here).
        """
        assert self.clock is not None
        if isinstance(wire, Packet):
            packet = wire
        else:
            try:
                packet = Packet.decode(wire)
            except NetworkError:
                self.rx_errors += 1
                return
        if packet.kind == "ack":
            # ACKs are the reliability transport's control traffic: the
            # unpacking block consumes them on the spot; they never enter
            # the incoming FIFO or occupy the receive DMA.
            if self.reliability is None:
                self.rx_errors += 1
                if self._spans is not None:
                    self._spans.finish(packet.span, status="rx-error")
                return
            self.reliability.on_ack(self, packet)
            return
        if (
            not (self.iommu is not None and is_virtual(packet.dst_paddr))
            and packet.dst_paddr + len(packet.payload) > self.physmem.size
        ):
            # The EISA DMA logic refuses to scribble outside RAM.  A tagged
            # virtual destination (bit 63) is deferred to the IOMMU at
            # delivery time -- unless this node has no IOMMU, in which case
            # the huge raw word is refused right here, the correct
            # behaviour for a mis-routed virtual packet.
            self.rx_errors += 1
            if self._spans is not None:
                self._spans.finish(packet.span, status="rx-error")
            return
        if self.reliability is not None:
            # The transport filters duplicates and re-sequences; whatever
            # it releases is in strict per-channel order.
            for accepted in self.reliability.on_data(self, packet):
                self._accept(accepted)
            return
        self._accept(packet)

    def _accept(self, packet: Packet) -> None:
        """Queue one checked packet for the receive-side DMA."""
        clock = self.clock
        assert clock is not None
        self.incoming.push(packet, Packet.HEADER_BYTES + len(packet.payload))
        now = clock.now
        # The receive DMA streams cut-through behind the wire (it is faster
        # than the wire, so it is never the bottleneck); a packet adds only
        # the fixed unpack/check/flush tail after its last byte arrives.
        done = max(now, self._rx_free_at) + self.costs.rx_check_cycles
        if not self.cut_through:
            # Store-and-forward: the whole payload is re-clocked through
            # the receive DMA after arrival.
            done += transfer_cycles(
                len(packet.payload), self.costs.rx_dma_bytes_per_cycle
            )
        self._rx_free_at = done
        clock.schedule(done - now, self._rx_dma_complete)

    def _rx_dma_complete(self) -> None:
        assert self.clock is not None
        packet = self.incoming.pop()
        if self.iommu is not None and is_virtual(packet.dst_paddr):
            verdict = self.iommu.receive(self, packet)
            if verdict.stall:
                # Translation (IOTLB hit or walk) occupies the receive DMA.
                self._rx_free_at = max(
                    self._rx_free_at, self.clock.now + verdict.stall
                )
            if verdict.kind == "deliver":
                self._rx_deliver(packet, verdict.paddr)
            elif verdict.kind == "park":
                # The IOMMU snapshotted the payload (and retained the
                # packet object if spans/reliability/hooks need it back at
                # replay); a pooled shell can go home now.
                if self._spans is not None:
                    self._spans.event(packet.span, "park")
                if packet._pooled and not self.on_receive:
                    self.interconnect.packet_pool.release(packet)
            else:  # abort: degrade to the classic refusal
                self.rx_errors += 1
                if self._spans is not None:
                    self._spans.finish(
                        packet.span, status="aborted", reason=verdict.reason
                    )
                if packet._pooled and not self.on_receive:
                    self.interconnect.packet_pool.release(packet)
            return
        self._rx_deliver(packet, packet.dst_paddr)

    def _rx_deliver(self, packet: Packet, dst_paddr: int) -> None:
        """Land one packet's payload at its resolved physical address."""
        assert self.clock is not None
        self.physmem.write(dst_paddr, packet.payload)
        self.packets_received += 1
        self.bytes_received += len(packet.payload)
        self.last_delivery_done = self.clock.now
        if self._spans is not None:
            # Cluster nodes share one tracker, so the receiving NIC can
            # close the span the sending NIC opened.
            self._spans.finish(
                packet.span, status="delivered", paddr=f"{dst_paddr:#x}"
            )
        for hook in self.on_receive:
            hook(packet)
        if self.reliability is not None:
            # Acknowledge only after the data is safely in memory.
            self.reliability.on_delivered(self, packet)
        elif packet._pooled and not self.on_receive:
            # Delivered and nothing downstream retains it: recycle.  The
            # receiving backplane is the one that lent the packet (pools
            # are per-backplane, per-shard), so the shell goes home.
            self.interconnect.packet_pool.release(packet)

    # ----------------------------------------------- fault-and-resume hooks
    def complete_parked(self, parked: "ParkedTransfer", dst_paddr: int) -> None:
        """Replay one parked transfer at its now-resident destination.

        Called by the IOMMU's replay path with the resolved physical
        address; performs exactly the accounting a direct delivery would,
        so delivered-vs-sent ledgers hold with or without faults.
        """
        assert self.clock is not None
        self.physmem.write(dst_paddr, parked.payload)
        self.packets_received += 1
        self.bytes_received += len(parked.payload)
        self.last_delivery_done = self.clock.now
        if self._spans is not None:
            self._spans.event(parked.span, "replay")
            self._spans.finish(
                parked.span, status="delivered", paddr=f"{dst_paddr:#x}"
            )
        packet = parked.packet
        if packet is None and (self.on_receive or self.reliability is not None):
            packet = Packet(
                src_node=parked.src_node,
                dst_node=self.node_id,
                dst_paddr=parked.dst_word,
                payload=parked.payload,
                seq=parked.seq,
            )
        if packet is not None:
            for hook in self.on_receive:
                hook(packet)
            if self.reliability is not None:
                self.reliability.on_delivered(self, packet)

    def abort_parked(self, parked: "ParkedTransfer", reason: str) -> None:
        """A parked transfer degraded (budget/revocation): classic refusal."""
        self.rx_errors += 1
        if self._spans is not None:
            self._spans.finish(parked.span, status="aborted", reason=reason)

    # ------------------------------------------------------ automatic update
    def bind_automatic(self, local_page: int, nipt_index: int) -> None:
        """Bind a local physical page for automatic update.

        Subsequent snooped stores to the page are forwarded to the fixed
        remote page named by ``nipt_index`` -- the "fixed mappings between
        source and destination pages" of the automatic update strategy.
        The first binding installs the snooper on the node CPU's stores.
        """
        if self.nipt.lookup(nipt_index) is None:
            raise ConfigurationError(
                f"{self.name}: NIPT entry {nipt_index} must be valid before "
                "binding automatic update"
            )
        self._automatic[local_page] = nipt_index
        if self._cpu is not None:
            self._cpu.store_snoop = self.snoop_store

    def snoop_store(self, paddr: int, data: bytes) -> None:
        """Bus snooper: forward a store to a bound page (word granularity)."""
        index = self._automatic.get(paddr // self.page_size)
        if index is None:
            return
        entry = self.nipt.require(index)
        dst_paddr = self._entry_dst(entry, paddr % self.page_size)
        packet = Packet(
            src_node=self.node_id,
            dst_node=entry.dst_node,
            dst_paddr=dst_paddr,
            payload=bytes(data),
            seq=self._next_seq(entry.dst_node),
        )
        wire_bytes = packet.wire_bytes
        self.outgoing.push(packet, wire_bytes)
        self._launch(packet, wire_bytes)

    # ------------------------------------------------------------ internal
    def _next_seq(self, dst_node: int) -> int:
        """Next sequence number for a packet bound for ``dst_node``.

        Reliability off keeps the historical NIC-global counter (the value
        appears in golden traces); the transport needs per-(src,dst)
        channel numbering, so with a plane attached the number comes from
        the channel instead.
        """
        if self.reliability is not None:
            return self.reliability.next_seq(self.node_id, dst_node)
        self._seq += 1
        return self._seq
