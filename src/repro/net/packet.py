"""Packets on the SHRIMP interconnect.

"Once the destination node ID and destination address are known, the
hardware constructs a packet header.  ...  The SHRIMP hardware assembles
the header and data into a packet, and launches the packet into the
network" (section 8).

The wire format is modelled explicitly (header + payload + checksum) so
the receive side's "Unpacking/Checking" block of Figure 6 has real work to
do and tests can corrupt packets in flight.

Host-side, serialisation is off the hot path: the backplane carries
:class:`Packet` objects end-to-end, and a fault injector sees the packet
object too (see :meth:`repro.net.interconnect.Interconnect.route`).  Wire
bytes are materialised only for what an injector changed, duplicated or
held back -- or for a cross-shard handoff -- and only those are decoded
and checked again; a packet the injector hands back rides on
unserialised.  :meth:`Packet.encode` (also ``bytes(packet)``) builds the
wire in one pass: the checksum is additive over little-endian
words and the header is six whole words, so it is the header's words
summed arithmetically plus one C-level pass over the payload's words.

Two wire kinds share the header layout (and therefore every timing
property): ``data`` packets carry a deliberate-update payload, and
``ack`` packets -- the reliable-delivery extension's cumulative
acknowledgement (see :mod:`repro.net.reliable`) -- carry the highest
in-order sequence number delivered in their ``seq`` field and an empty
payload.  The kind is encoded in the magic word, so the header size is
identical for both and reliability-off traffic is bit-for-bit what it
always was.

The checksum covers the *whole* packet (header and payload): a flipped
bit anywhere -- magic, addresses, sequence number, payload, or the
checksum word itself -- is rejected by the receive-side Checking block.
Header coverage is what lets the reliable layer promise eventual
delivery under arbitrary single-byte corruption: a corrupted sequence
number or destination address can never be silently honoured.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import NetworkError

#: magic, src node, dst node, dst paddr, length, seq
_HEADER = struct.Struct("<IHHQII")
_MAGIC = 0x53485250  # "SHRP": a deliberate-update data packet
_MAGIC_ACK = 0x53485241  # "SHRA": a cumulative acknowledgement
_MAGIC_BY_KIND = {"data": _MAGIC, "ack": _MAGIC_ACK}
_KIND_BY_MAGIC = {_MAGIC: "data", _MAGIC_ACK: "ack"}

# ----------------------------------------------------- tagged destinations
# The virtual-address RDMA tier (repro.iommu) rides in the header's
# existing 64-bit destination word, so the wire format -- and therefore
# every packet's wire timing -- is byte-identical whether the tier is on
# or off.  Bit 63 flags a virtual destination; bits 48-62 carry the
# destination ASID (15 bits, matching the NIPT's 15-bit index width);
# bits 0-47 carry the destination *virtual* address.  Physical packets
# never set bit 63 (RAM sizes are nowhere near 2^63), so an IOMMU-off
# run produces exactly the historical address words.
VIRT_FLAG = 1 << 63
VIRT_ASID_SHIFT = 48
VIRT_ASID_MASK = (1 << 15) - 1
VIRT_ADDR_MASK = (1 << VIRT_ASID_SHIFT) - 1


def pack_virtual(asid: int, vaddr: int) -> int:
    """Encode (asid, virtual address) into a tagged destination word."""
    if not 0 <= asid <= VIRT_ASID_MASK:
        raise NetworkError(f"ASID {asid} does not fit the tagged-address field")
    if not 0 <= vaddr <= VIRT_ADDR_MASK:
        raise NetworkError(f"vaddr {vaddr:#x} does not fit the tagged-address field")
    return VIRT_FLAG | (asid << VIRT_ASID_SHIFT) | vaddr


def is_virtual(dst_word: int) -> bool:
    """True when a destination word carries a virtual (IOMMU) address."""
    return bool(dst_word & VIRT_FLAG)


def unpack_virtual(dst_word: int) -> "tuple[int, int]":
    """Decode a tagged destination word into (asid, virtual address)."""
    return (dst_word >> VIRT_ASID_SHIFT) & VIRT_ASID_MASK, dst_word & VIRT_ADDR_MASK


def _checksum(payload: "bytes | bytearray | memoryview") -> int:
    """A cheap 32-bit additive checksum over little-endian words.

    The trailing partial word (if any) is zero-padded, matching hardware
    that clocks the last burst with the lanes deasserted.  The whole words
    are unpacked and summed in C, on a host of either byte order.
    """
    nbytes = len(payload)
    full = nbytes & ~3
    total = sum(struct.unpack_from(f"<{full >> 2}I", payload))
    if nbytes > full:
        total += int.from_bytes(payload[full:], "little")
    return total & 0xFFFFFFFF


@dataclass(slots=True)
class Packet:
    """One deliberate-update packet.

    The payload is a private snapshot taken when the packet is built (the
    packetizer's copy out of the outgoing FIFO); a packet in flight is
    therefore immune to the sender reusing its buffer.  Slotted and
    mutable only so that building one is cheap and the packet pool can
    refill a shell in place; nothing else writes a packet's fields.
    """

    src_node: int
    dst_node: int
    dst_paddr: int
    #: private payload snapshot
    payload: bytes
    seq: int = 0
    #: wire kind: ``"data"`` (deliberate update) or ``"ack"`` (cumulative
    #: acknowledgement); encoded in the magic word, so both kinds share
    #: one header size and identical timing.
    kind: str = "data"
    #: trace-only sidecar: the span id this packet belongs to (see
    #: repro.obs).  Deliberately NOT part of the simulated wire format --
    #: encode/decode ignore it, so wire bytes are unchanged.  A packet a
    #: fault injector hands back rides on as the same object and keeps
    #: its span; one rebuilt from wire bytes (corrupt, duplicated, held
    #: back) has none, and the backplane finishes the origin's span
    #: ``rewritten``.
    span: Optional[int] = field(default=None, compare=False, repr=False)
    #: host-side provenance sidecar: True iff this packet shell belongs to
    #: a :class:`~repro.net.pool.PacketPool` and may be recycled after the
    #: receive DMA lands it.  Not part of the wire format or equality.
    _pooled: bool = field(default=False, compare=False, repr=False)

    HEADER_BYTES = _HEADER.size + 4  # header struct + checksum word

    @property
    def is_ack(self) -> bool:
        """True for cumulative-acknowledgement packets."""
        return self.kind == "ack"

    @classmethod
    def ack(cls, src_node: int, dst_node: int, cum_seq: int) -> "Packet":
        """Build a cumulative ACK: "everything through ``cum_seq`` landed"."""
        return cls(src_node, dst_node, 0, b"", cum_seq, "ack")

    @property
    def wire_bytes(self) -> int:
        """Total bytes the packet occupies on the wire."""
        return self.HEADER_BYTES + len(self.payload)

    # ------------------------------------------------------------ encoding
    def encode(self) -> bytes:
        """Serialise to the wire format: header, payload, checksum word.

        The checksum is additive over little-endian words and the header
        is six whole words, so it is the header's words summed here plus
        one :func:`_checksum` pass over the payload (none for an ACK).
        """
        magic = _MAGIC_BY_KIND.get(self.kind)
        if magic is None:
            raise NetworkError(f"unknown packet kind {self.kind!r}")
        src, dst, paddr, payload, seq = (
            self.src_node, self.dst_node, self.dst_paddr, self.payload, self.seq
        )
        length = len(payload)
        header = _HEADER.pack(magic, src, dst, paddr, length, seq)
        # _HEADER's six words: magic, src | dst << 16, paddr low and high
        # halves, length, seq (struct.pack has range-checked each field).
        total = (
            magic + src + (dst << 16) + (paddr & 0xFFFFFFFF) + (paddr >> 32)
            + length + seq
        )
        if length:
            total += _checksum(payload)
        return b"".join(
            (header, payload, (total & 0xFFFFFFFF).to_bytes(4, "little"))
        )

    #: ``bytes(wire)`` is the wire image, whether ``wire`` is a packet
    #: object or already bytes (what a corrupting fault injector reads)
    __bytes__ = encode

    @classmethod
    def decode(cls, wire: "bytes | bytearray | memoryview") -> "Packet":
        """Parse and verify a wire-format packet.

        Raises :class:`NetworkError` on a bad magic, a truncated packet,
        or a checksum mismatch -- the receive-side "Checking" block.
        Accepts any buffer-protocol object; the payload is snapshotted
        (one copy), so the caller's buffer is not retained.
        """
        mv = memoryview(wire)
        if len(mv) < _HEADER.size + 4:
            raise NetworkError(f"runt packet of {len(mv)} bytes")
        magic, src, dst, paddr, length, seq = _HEADER.unpack_from(mv)
        kind = _KIND_BY_MAGIC.get(magic)
        if kind is None:
            raise NetworkError(f"bad packet magic {magic:#x}")
        expected = _HEADER.size + length + 4
        if len(mv) != expected:
            raise NetworkError(
                f"packet length mismatch: header says {expected}, got {len(mv)}"
            )
        payload = mv[_HEADER.size : _HEADER.size + length]
        check = int.from_bytes(mv[-4:], "little")
        if check != _checksum(mv[: _HEADER.size + length]):
            raise NetworkError("packet checksum mismatch")
        return cls(src, dst, paddr, bytes(payload), seq, kind=kind)
