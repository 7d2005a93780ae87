"""Reliable delivery over a lossy backplane: ack / retransmit transport.

The paper's UDMA mechanism assumes the SHRIMP backplane delivers every
packet; the chaos harness can drop, duplicate, corrupt, and reorder them.
This module layers the canonical fix -- end-to-end sequencing with
sender-side retransmission, in the style of Active Messages' request/
reply retry and VMMC-2's transparent retransmission -- *above* the
user-level mechanism: the two-instruction initiation sequence, the NIPT
lookup, and the receive-side DMA are untouched.  Reliability is a NIC
firmware concern, invisible to the user process.

Mechanism (all of it keyed per directed channel, i.e. per (src, dst)
node pair, on the existing ``Packet.seq`` header field):

* **Sender**: every data packet gets the channel's next 32-bit sequence
  number and is remembered in a retransmit queue when it leaves the
  wire.  A timer on the simulated :class:`~repro.sim.clock.Clock` fires
  after ``timeout_cycles``; an unacknowledged packet is re-launched
  through the NIC's ordinary wire path with exponential backoff, up to
  ``max_retries`` attempts.  A packet that exhausts its budget degrades
  to a counted, span-visible ``delivery_failed`` event -- the transport
  never hangs the simulation.
* **Receiver**: in-order packets are accepted and acknowledged with a
  *cumulative* ACK (a new wire kind sharing the data header layout, so
  timing properties are identical).  Duplicates -- retransmissions whose
  original made it, or backplane duplication -- are suppressed before
  the receive DMA ever runs, and re-acknowledged so a lost ACK heals.
  Out-of-order packets wait in a bounded reorder buffer and drain the
  moment the gap fills, so the receive DMA writes memory strictly in
  per-channel sequence order ("exactly once, in order").

Everything is driven by the shared simulated clock and plain integer
state, so a reliable run is exactly as deterministic as an unreliable
one -- the chaos differential oracle replays reliable schedules with
fast paths toggled, and the eventual-delivery oracle compares faulted
runs against fault-free replays bit for bit.

The layer is **off by default**: a cluster built without a
:class:`ReliabilityConfig` has no plane, no per-packet branches beyond a
single ``is None`` check, and bit-identical cycles, traces, and metric
names to every previous release.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.net.packet import Packet
from repro.snapshot.protocol import SnapshotMixin

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (nic -> reliable)
    from repro.net.nic import ShrimpNic

#: sequence numbers live on the wire as an unsigned 32-bit field
SEQ_MOD = 1 << 32
_SEQ_MASK = SEQ_MOD - 1
_SEQ_HALF = 1 << 31


def seq_lt(a: int, b: int) -> bool:
    """Serial-number ``a < b`` under 32-bit wraparound (RFC 1982 style).

    Two sequence numbers are compared on the shorter arc of the 32-bit
    circle, so ``seq_lt(0xFFFFFFFF, 0)`` is True: the channel that wraps
    keeps ordering correctly as long as fewer than 2**31 packets are in
    flight -- comfortably true of a bounded reorder window.
    """
    return a != b and ((b - a) & _SEQ_MASK) < _SEQ_HALF


def seq_next(a: int) -> int:
    """Successor of ``a`` on the 32-bit sequence circle."""
    return (a + 1) & _SEQ_MASK


@dataclass(frozen=True)
class ReliabilityConfig:
    """Knobs of the ack/retransmit transport.

    Attributes:
        timeout_cycles: cycles after a packet clears the wire before its
            first retransmission.  The default covers the round trip of
            a full-page packet (wire + hops + receive check + ACK hops)
            with generous slack on small clusters.
        backoff: multiplier applied to the timeout after every failed
            attempt (exponential backoff).
        max_timeout_cycles: backoff ceiling.
        max_retries: retransmissions before the transport gives up on a
            packet and counts a ``delivery_failed`` (the degraded mode:
            counted and span-visible, never a hang).
        reorder_window: out-of-order packets held per channel while a
            gap is outstanding; beyond it, future packets are discarded
            and recovered by sender retransmission.
    """

    timeout_cycles: int = 20_000
    backoff: int = 2
    max_timeout_cycles: int = 640_000
    max_retries: int = 6
    reorder_window: int = 64

    def retry_timeout(self, attempt: int) -> int:
        """Timeout for retransmission ``attempt`` (0 = first transmit)."""
        timeout = self.timeout_cycles * (self.backoff ** attempt)
        return min(timeout, self.max_timeout_cycles)


class _Pending:
    """One unacknowledged data packet awaiting its ACK or timer."""

    __slots__ = ("packet", "nic", "attempt", "timer")

    def __init__(self, packet: "Packet", nic: "ShrimpNic") -> None:
        self.packet = packet
        self.nic = nic
        self.attempt = 0  # completed transmissions so far, minus one
        self.timer = None  # the armed Clock event


class _TxChannel:
    """Sender-side state of one directed (src, dst) channel."""

    __slots__ = ("next_seq", "acked", "pending")

    def __init__(self) -> None:
        self.next_seq = 0  # last sequence number handed out
        self.acked = 0  # cumulative high-water mark acknowledged so far
        #: unacked packets by seq in first-transmit order, which is seq
        #: order: one FIFO, numbered in order, retransmits never re-insert
        self.pending: Dict[int, _Pending] = {}


class _RxChannel:
    """Receiver-side state of one directed (src, dst) channel."""

    __slots__ = ("cum", "buffer")

    def __init__(self) -> None:
        self.cum = 0  # highest in-order sequence number delivered
        self.buffer: Dict[int, "Packet"] = {}  # out-of-order holding area


class ReliabilityPlane(SnapshotMixin):
    """Shared transport state for every NIC of one cluster (or machine).

    One plane per backplane: channels are keyed by (src, dst) node id,
    so any number of NICs share it and the counters aggregate the whole
    fabric -- that is what ``ShrimpCluster`` binds the ``net.*`` metrics
    over.
    """

    def __init__(
        self,
        config: Optional[ReliabilityConfig] = None,
        clock=None,
        spans=None,
    ) -> None:
        self.config = config if config is not None else ReliabilityConfig()
        self.clock = clock
        self.spans = spans
        self._tx: Dict[Tuple[int, int], _TxChannel] = {}
        self._rx: Dict[Tuple[int, int], _RxChannel] = {}
        # Transport counters (the net.* metric surface).
        self.retransmits = 0
        self.acks_sent = 0
        self.acks_received = 0
        self.dup_suppressed = 0
        self.reorder_buffered = 0
        self.reorder_discarded = 0
        self.delivery_failed = 0
        self.messages_sent = 0
        self.messages_delivered = 0

    # ------------------------------------------------------------ channels
    def _tx_channel(self, src: int, dst: int) -> _TxChannel:
        channel = self._tx.get((src, dst))
        if channel is None:
            channel = self._tx[(src, dst)] = _TxChannel()
        return channel

    def _rx_channel(self, dst: int, src: int) -> _RxChannel:
        channel = self._rx.get((src, dst))
        if channel is None:
            channel = self._rx[(src, dst)] = _RxChannel()
        return channel

    def in_flight(self) -> int:
        """Unacknowledged data packets across every channel."""
        return sum(len(c.pending) for c in self._tx.values())

    def counters(self) -> Dict[str, int]:
        """Deterministic snapshot of the transport counters."""
        return {
            "retransmits": self.retransmits,
            "acks": self.acks_sent,
            "acks_received": self.acks_received,
            "dup_suppressed": self.dup_suppressed,
            "reorder_buffered": self.reorder_buffered,
            "reorder_discarded": self.reorder_discarded,
            "delivery_failed": self.delivery_failed,
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
        }

    # ----------------------------------------------------------- send side
    def next_seq(self, src: int, dst: int) -> int:
        """Next per-channel sequence number (wraps at 32 bits)."""
        channel = self._tx_channel(src, dst)
        channel.next_seq = seq_next(channel.next_seq)
        return channel.next_seq

    def on_transmit(self, nic: "ShrimpNic", packet: "Packet") -> None:
        """A data packet just cleared the sender's wire: track and time it.

        Called for first transmissions and retransmissions alike (both
        ride the ordinary wire path); the first call creates the pending
        record, later calls only re-arm the timer with backoff.
        """
        channel = self._tx_channel(nic.node_id, packet.dst_node)
        pending = channel.pending.get(packet.seq)
        if pending is None:
            if not seq_lt(channel.acked, packet.seq):
                # A retransmission still on the wire timeline when its
                # cumulative ACK landed: the packet is already delivered;
                # re-registering it would double-count the message and
                # send one more useless (if harmless) retransmission.
                return
            pending = channel.pending[packet.seq] = _Pending(packet, nic)
            self.messages_sent += 1
        else:
            # The retransmission carries a fresh span; remember it so a
            # later give-up closes the span actually left open.
            pending.packet = packet
        self._arm_timer(pending)

    def _arm_timer(self, pending: _Pending) -> None:
        if pending.timer is not None:
            pending.timer.cancel()
        timeout = self.config.retry_timeout(pending.attempt)
        # partial (not a lambda): a pending retransmit timer is part of
        # the snapshot surface and must pickle with the event queue.
        pending.timer = self.clock.schedule(
            timeout, partial(self._on_timeout, pending)
        )

    def _on_timeout(self, pending: _Pending) -> None:
        packet, nic = pending.packet, pending.nic
        pending.timer = None
        channel = self._tx_channel(nic.node_id, packet.dst_node)
        if channel.pending.get(packet.seq) is not pending:
            return  # acked after the event was already in flight
        pending.attempt += 1
        if pending.attempt > self.config.max_retries:
            # Degraded mode: counted, span-visible, and final.
            del channel.pending[packet.seq]
            self.delivery_failed += 1
            if self.spans is not None:
                self.spans.finish(
                    packet.span, status="delivery-failed",
                    attempts=pending.attempt,
                )
            return
        if not nic.outgoing.can_accept(packet):
            # The outgoing FIFO is saturated; charge the attempt (the
            # budget stays bounded) and try again after backoff.
            self._arm_timer(pending)
            return
        self.retransmits += 1
        retry = packet
        if self.spans is not None and packet.span is not None:
            original = self.spans.get(packet.span)
            parent = original.parent if original is not None else None
            new_span = self.spans.begin(
                "packet",
                parent=parent,
                src=nic.node_id,
                dst=packet.dst_node,
                bytes=len(packet.payload),
                retry_of=packet.span,
                attempt=pending.attempt,
            )
            retry = replace(packet, span=new_span)
            pending.packet = retry
        nic.retransmit(retry)
        # on_transmit re-arms the timer when the retry clears the wire;
        # until then the wire timeline itself bounds the wait.

    def on_ack(self, nic: "ShrimpNic", ack: "Packet") -> None:
        """A cumulative ACK arrived back at the sending NIC."""
        self.acks_received += 1
        channel = self._tx_channel(nic.node_id, ack.src_node)
        if seq_lt(channel.acked, ack.seq):
            channel.acked = ack.seq
        # ``pending`` is in seq order (see _TxChannel): retire its prefix.
        acked = []
        for seq in channel.pending:
            if seq_lt(ack.seq, seq):
                break
            acked.append(seq)
        for seq in acked:
            pending = channel.pending.pop(seq)
            if pending.timer is not None:
                pending.timer.cancel()
                pending.timer = None

    # -------------------------------------------------------- receive side
    def on_data(self, nic: "ShrimpNic", packet: "Packet") -> "List[Packet]":
        """Filter one arriving data packet; returns packets to deliver now.

        The returned list is in strict per-channel sequence order: the
        arriving packet if it fills the next slot, plus any buffered
        successors the fill releases.  Duplicates and out-of-order
        arrivals return an empty list (and a re-ACK / duplicate ACK goes
        out immediately so the sender converges).
        """
        channel = self._rx_channel(nic.node_id, packet.src_node)
        seq = packet.seq
        if not seq_lt(channel.cum, seq):
            # Already delivered: a retransmission whose original made it,
            # or backplane duplication.  Re-ack so a lost ACK heals.
            self.dup_suppressed += 1
            if self.spans is not None:
                self.spans.finish(packet.span, status="dup-suppressed")
            self.send_ack(nic, packet.src_node, channel.cum)
            return []
        if seq != seq_next(channel.cum):
            # A gap: hold the packet until retransmission fills it.
            if seq in channel.buffer:
                self.dup_suppressed += 1
                if self.spans is not None:
                    self.spans.finish(packet.span, status="dup-suppressed")
            elif len(channel.buffer) >= self.config.reorder_window:
                self.reorder_discarded += 1
                if self.spans is not None:
                    self.spans.finish(packet.span, status="reorder-discarded")
            else:
                channel.buffer[seq] = packet
                self.reorder_buffered += 1
                if self.spans is not None:
                    self.spans.event(
                        packet.span, "reorder-buffered",
                        expected=seq_next(channel.cum),
                    )
            self.send_ack(nic, packet.src_node, channel.cum)  # duplicate ACK
            return []
        # In order: accept it, then drain every buffered successor.
        accepted = [packet]
        channel.cum = seq
        while seq_next(channel.cum) in channel.buffer:
            channel.cum = seq_next(channel.cum)
            accepted.append(channel.buffer.pop(channel.cum))
        self.messages_delivered += len(accepted)
        return accepted

    def on_delivered(self, nic: "ShrimpNic", packet: "Packet") -> None:
        """The receive DMA finished writing a data packet: acknowledge.

        The ACK carries the channel's *current* cumulative high-water
        mark -- acknowledging data only after it is safely in memory,
        coalescing naturally when several packets complete in a burst.
        """
        channel = self._rx_channel(nic.node_id, packet.src_node)
        self.send_ack(nic, packet.src_node, channel.cum)

    def send_ack(self, nic: "ShrimpNic", dst_node: int, cum_seq: int) -> None:
        """Launch a cumulative ACK back across the backplane.

        ACKs are control traffic: they ride the backplane (paying hop
        latency like any packet) but bypass the outgoing data FIFO, so
        they can never deadlock behind the very data they acknowledge.
        ACKs are themselves unreliable -- loss is healed by sender
        retransmission plus receiver re-ACK.
        """
        self.acks_sent += 1
        ack = Packet.ack(nic.node_id, dst_node, cum_seq)
        nic.interconnect.route(nic.node_id, dst_node, ack)
