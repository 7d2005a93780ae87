"""Free-list pooling for packets and payload buffers.

The per-message hot path used to allocate one :class:`Packet`, one
``bytes`` payload snapshot, and several :class:`~repro.sim.clock.Event`
objects per message; at millions of messages per run the allocator and
the garbage collector dominate host time.  The event free list lives in
the clock itself (:mod:`repro.sim.clock`); this module pools the other
two allocations.

A :class:`PacketPool` is owned by the backplane
(:class:`~repro.net.interconnect.Interconnect`), one per backplane --
which in the sharded kernel means one per shard, so pools never cross a
process boundary.  The sending NIC acquires a packet (with a recycled
``bytearray`` payload of the right size); the receiving NIC releases it
after the receive DMA has copied the payload into physical memory.

Recycling rules (enforced by construction):

* Only ``data`` packets travel through the pool; ACKs and packets decoded
  from changed wire bytes are ordinary garbage-collected packets.
* Pooling is bypassed whenever anything downstream may retain the packet
  past delivery: a reliability plane (it keeps packets for retransmit and
  builds ``dataclasses.replace`` copies sharing the payload), receive
  hooks, or span tracking.  Such packets simply skip the pool -- the
  simulation is identical either way, which the chaos ``shards`` twin
  verifies (its reference variant runs without a pool).
* On release the payload is detached from the packet, so a stale
  reference to a recycled packet can never read a successor's data.
"""

from __future__ import annotations

from typing import Dict, List

from repro.net.packet import Packet
from repro.snapshot.protocol import SnapshotMixin

#: retained Packet shells (beyond this, releases fall back to the GC)
PACKET_FREE_LIST_CAP = 4096
#: retained payload buffers per distinct size
BUFFER_FREE_LIST_CAP = 1024


class PacketPool(SnapshotMixin):
    """Free lists for :class:`Packet` shells and payload ``bytearray``\\ s."""

    __slots__ = (
        "packet_reuses",
        "packet_allocs",
        "buffer_reuses",
        "releases",
        "_packets",
        "_buffers",
    )

    def __init__(self) -> None:
        self.packet_reuses = 0
        self.packet_allocs = 0
        self.buffer_reuses = 0
        self.releases = 0
        self._packets: List[Packet] = []
        self._buffers: Dict[int, List[bytearray]] = {}

    def acquire(
        self,
        src_node: int,
        dst_node: int,
        dst_paddr: int,
        data: "bytes | bytearray | memoryview",
        seq: int,
    ) -> Packet:
        """A ``data`` packet whose payload is a private snapshot of ``data``.

        The payload lands in a recycled ``bytearray`` when one of the
        right size is available -- the packetizer's one send-side copy,
        without the allocation.
        """
        nbytes = len(data)
        bufs = self._buffers.get(nbytes)
        if bufs:
            payload = bufs.pop()
            self.buffer_reuses += 1
        else:
            payload = bytearray(nbytes)
        payload[:] = data
        packets = self._packets
        if packets:
            packet = packets.pop()
            packet.src_node = src_node
            packet.dst_node = dst_node
            packet.dst_paddr = dst_paddr
            packet.payload = payload
            packet.seq = seq
            self.packet_reuses += 1
        else:
            packet = Packet(
                src_node, dst_node, dst_paddr, payload, seq, _pooled=True
            )
            self.packet_allocs += 1
        return packet

    def release(self, packet: Packet) -> None:
        """Return a delivered pooled packet (and its payload buffer).

        Packets the pool did not produce pass through untouched, so call
        sites need no provenance bookkeeping of their own.
        """
        if not packet._pooled:
            return
        payload = packet.payload
        # Detach the payload first: a stale reference to the recycled
        # packet sees an empty payload, never a successor's bytes.
        packet.payload = b""
        self.releases += 1
        if len(self._packets) < PACKET_FREE_LIST_CAP:
            self._packets.append(packet)
        if isinstance(payload, bytearray):
            nbytes = len(payload)
            bufs = self._buffers.get(nbytes)
            if bufs is None:
                bufs = self._buffers[nbytes] = []
            if len(bufs) < BUFFER_FREE_LIST_CAP:
                bufs.append(payload)

    def stats(self) -> Dict[str, int]:
        """Pool-effectiveness counters (reported by the bench harness)."""
        return {
            "packet_reuses": self.packet_reuses,
            "packet_allocs": self.packet_allocs,
            "buffer_reuses": self.buffer_reuses,
            "releases": self.releases,
            "free_packets": len(self._packets),
            "free_buffers": sum(len(b) for b in self._buffers.values()),
        }

