"""Free-list pooling for packet shells.

The per-message hot path used to allocate one :class:`Packet` and
several :class:`~repro.sim.clock.Event` objects per message; at millions
of messages per run the allocator and the garbage collector showed up in
host time.  The event free list lives in the clock itself
(:mod:`repro.sim.clock`); this module recycles packet shells.  A payload
is an ordinary ``bytes`` snapshot: recycling payload buffers as well cost
more in bookkeeping than it saved in allocation (docs/PERFORMANCE.md).

A :class:`PacketPool` is owned by the backplane
(:class:`~repro.net.interconnect.Interconnect`), one per backplane --
which in the sharded kernel means one per shard, so pools never cross a
shard boundary.  The sending NIC acquires a packet; the receiving NIC
releases it after the receive DMA has copied the payload into physical
memory, and a shard that hands a packet to another shard releases it
there and then (the arrival travels as a private copy).

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


class PacketPool(SnapshotMixin):
    """A free list of :class:`Packet` shells."""

    __slots__ = ("packet_reuses", "packet_allocs", "releases", "_packets")

    def __init__(self) -> None:
        self.packet_reuses = 0
        self.packet_allocs = 0
        self.releases = 0
        self._packets: List[Packet] = []

    def acquire(
        self,
        src_node: int,
        dst_node: int,
        dst_paddr: int,
        data: "bytes | bytearray | memoryview",
        seq: int,
    ) -> Packet:
        """A ``data`` packet whose payload is a private snapshot of ``data``.

        The snapshot is the packetizer's one send-side copy; the shell is
        a recycled one when the free list has any.
        """
        packets = self._packets
        if packets:
            packet = packets.pop()
            packet.src_node = src_node
            packet.dst_node = dst_node
            packet.dst_paddr = dst_paddr
            packet.payload = bytes(data)
            packet.seq = seq
            self.packet_reuses += 1
        else:
            packet = Packet(
                src_node, dst_node, dst_paddr, bytes(data), seq, _pooled=True
            )
            self.packet_allocs += 1
        return packet

    def release(self, packet: Packet) -> None:
        """Return a delivered pooled packet's shell.

        Packets the pool did not produce pass through untouched, so call
        sites need no provenance bookkeeping of their own.
        """
        if not packet._pooled:
            return
        # Detach the payload: a stale reference to the recycled packet
        # sees an empty payload, never a successor's bytes.
        packet.payload = b""
        self.releases += 1
        if len(self._packets) < PACKET_FREE_LIST_CAP:
            self._packets.append(packet)

    def stats(self) -> Dict[str, int]:
        """Pool-effectiveness counters (reported by the bench harness)."""
        return {
            "packet_reuses": self.packet_reuses,
            "packet_allocs": self.packet_allocs,
            "releases": self.releases,
            "free_packets": len(self._packets),
        }
