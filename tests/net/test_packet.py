"""Tests for packet encode/decode and integrity checking."""

import struct

import pytest
from hypothesis import example, given, strategies as st

from repro.errors import NetworkError
from repro.net.packet import Packet, pack_virtual


class TestRoundtrip:
    def test_basic_roundtrip(self):
        packet = Packet(0, 1, 0x8000, b"hello", seq=7)
        assert Packet.decode(packet.encode()) == packet

    def test_empty_payload(self):
        packet = Packet(2, 3, 0, b"")
        assert Packet.decode(packet.encode()) == packet

    def test_wire_bytes_accounts_header(self):
        packet = Packet(0, 1, 0, b"abcd")
        assert packet.wire_bytes == Packet.HEADER_BYTES + 4
        assert len(packet.encode()) == packet.wire_bytes


class TestAckWireKind:
    def test_ack_roundtrip(self):
        ack = Packet.ack(3, 1, cum_seq=0xDEADBEEF)
        decoded = Packet.decode(ack.encode())
        assert decoded == ack
        assert decoded.is_ack
        assert decoded.seq == 0xDEADBEEF
        assert decoded.payload == b""

    def test_ack_and_data_share_header_size(self):
        # Same header layout => identical wire timing for both kinds.
        data = Packet(0, 1, 0, b"")
        ack = Packet.ack(0, 1, 5)
        assert len(data.encode()) == len(ack.encode())
        assert ack.wire_bytes == Packet.HEADER_BYTES

    def test_kinds_are_distinguished_on_the_wire(self):
        data_wire = Packet(0, 1, 0, b"", seq=5).encode()
        ack_wire = Packet.ack(0, 1, 5).encode()
        assert data_wire != ack_wire
        assert not Packet.decode(data_wire).is_ack
        assert Packet.decode(ack_wire).is_ack

    def test_unknown_kind_refused_at_encode(self):
        with pytest.raises(NetworkError):
            Packet(0, 1, 0, b"", kind="gram").encode()


class TestChecking:
    def test_corrupted_payload_detected(self):
        wire = bytearray(Packet(0, 1, 0x100, b"hello!!!").encode())
        wire[Packet.HEADER_BYTES - 4] ^= 0xFF  # flip a payload byte
        with pytest.raises(NetworkError):
            Packet.decode(bytes(wire))

    def test_corrupted_header_detected(self):
        """The checksum covers the header too: a flipped seq / paddr /
        node byte must never be silently honoured (the reliable layer's
        eventual-delivery promise depends on this)."""
        packet = Packet(0, 1, 0x100, b"hello!!!", seq=42)
        for offset in range(Packet.HEADER_BYTES - 4):  # every header byte
            wire = bytearray(packet.encode())
            wire[offset] ^= 0x04
            with pytest.raises(NetworkError):
                Packet.decode(bytes(wire))

    def test_corrupted_checksum_word_detected(self):
        wire = bytearray(Packet(0, 1, 0x100, b"data").encode())
        wire[-1] ^= 0x01
        with pytest.raises(NetworkError):
            Packet.decode(bytes(wire))

    def test_bad_magic_detected(self):
        wire = bytearray(Packet(0, 1, 0x100, b"data").encode())
        wire[0] ^= 0xFF
        with pytest.raises(NetworkError):
            Packet.decode(bytes(wire))

    def test_truncated_packet_detected(self):
        wire = Packet(0, 1, 0x100, b"data").encode()
        with pytest.raises(NetworkError):
            Packet.decode(wire[:-1])

    def test_runt_packet_detected(self):
        with pytest.raises(NetworkError):
            Packet.decode(b"tiny")

    def test_length_field_mismatch_detected(self):
        wire = Packet(0, 1, 0x100, b"data").encode()
        with pytest.raises(NetworkError):
            Packet.decode(wire + b"extra")


def reference_encode(packet: Packet) -> bytes:
    """The wire format spelled out whole: header, payload, then the
    32-bit sum of every little-endian word of both (the trailing partial
    word zero-padded)."""
    magic = {"data": 0x53485250, "ack": 0x53485241}[packet.kind]
    body = struct.pack(
        "<IHHQII", magic, packet.src_node, packet.dst_node,
        packet.dst_paddr, len(packet.payload), packet.seq,
    ) + bytes(packet.payload)
    padded = body + bytes(-len(body) % 4)
    words = struct.unpack(f"<{len(padded) // 4}I", padded)
    return body + (sum(words) & 0xFFFFFFFF).to_bytes(4, "little")


class TestEncode:
    def test_encode_matches_reference_layout(self):
        packet = Packet(0, 1, 0x8000, b"hello world", seq=9)
        wire = packet.encode()
        assert len(wire) == packet.wire_bytes
        assert wire == reference_encode(packet)

    def test_encode_of_recycled_bytearray_payload(self):
        """A pooled packet carries a ``bytearray``: same wire bytes."""
        packet = Packet(1, 0, 0x40, bytearray(b"payload"))
        wire = packet.encode()
        assert isinstance(wire, bytes)
        assert wire == Packet(1, 0, 0x40, b"payload").encode()
        assert Packet.decode(wire) == packet

    def test_encode_does_not_alias_the_payload(self):
        """The wire is a snapshot: later writes to the payload buffer
        leave already-encoded bytes alone."""
        payload = bytearray(b"via view")
        packet = Packet(0, 2, 0, payload)
        wire = packet.encode()
        payload[0] ^= 0xFF
        assert Packet.decode(wire).payload == b"via view"


class TestDecodeBuffers:
    def test_decode_accepts_any_buffer(self):
        packet = Packet(3, 4, 0x1000, b"buffer protocol")
        wire = packet.encode()
        assert Packet.decode(bytearray(wire)) == packet
        assert Packet.decode(memoryview(bytearray(wire))) == packet

    def test_decoded_payload_is_a_private_snapshot(self):
        """Decoding from a mutable buffer must not alias it."""
        wire = bytearray(Packet(0, 1, 0, b"immutable?").encode())
        packet = Packet.decode(memoryview(wire))
        wire[Packet.HEADER_BYTES] ^= 0xFF
        assert packet.payload == b"immutable?"


@given(
    src=st.integers(min_value=0, max_value=0xFFFF),
    dst=st.integers(min_value=0, max_value=0xFFFF),
    paddr=st.integers(min_value=0, max_value=(1 << 64) - 1),
    payload=st.binary(max_size=512),
    seq=st.integers(min_value=0, max_value=0xFFFFFFFF),
    kind=st.sampled_from(["data", "ack"]),
)
@example(  # zero-length payload at the header-field extremes
    src=0xFFFF, dst=0xFFFF, paddr=(1 << 64) - 1, payload=b"",
    seq=0xFFFFFFFF, kind="data",
)
@example(  # full 32-bit seq wraparound boundary, on an ACK
    src=0, dst=0, paddr=0, payload=b"", seq=0xFFFFFFFF, kind="ack",
)
@example(src=0, dst=1, paddr=0, payload=b"", seq=0, kind="data")
def test_property_roundtrip(src, dst, paddr, payload, seq, kind):
    packet = Packet(src, dst, paddr, payload, seq, kind=kind)
    decoded = Packet.decode(packet.encode())
    assert decoded == packet
    assert decoded.kind == kind
    assert decoded.seq == seq


_SEQS = st.one_of(
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.integers(min_value=0xFFFFFFF0, max_value=0xFFFFFFFF),
)
_DST_WORDS = st.one_of(
    st.integers(min_value=0, max_value=(1 << 64) - 1),
    st.builds(
        pack_virtual,
        st.integers(min_value=0, max_value=(1 << 15) - 1),
        st.integers(min_value=0, max_value=(1 << 48) - 1),
    ),
)
_DATA_PACKETS = st.builds(
    Packet,
    src_node=st.integers(min_value=0, max_value=0xFFFF),
    dst_node=st.integers(min_value=0, max_value=0xFFFF),
    dst_paddr=_DST_WORDS,
    payload=st.one_of(
        st.binary(max_size=4096),
        st.binary(max_size=4096).map(bytearray),
    ),
    seq=_SEQS,
)
_ACK_PACKETS = st.builds(
    Packet.ack,
    st.integers(min_value=0, max_value=0xFFFF),
    st.integers(min_value=0, max_value=0xFFFF),
    _SEQS,
)


@given(packet=st.one_of(_DATA_PACKETS, _ACK_PACKETS))
@example(packet=Packet(0xFFFF, 0xFFFF, (1 << 64) - 1, b"\xff" * 4095,
                       seq=0xFFFFFFFF))
@example(packet=Packet(3, 4, pack_virtual(0x7FFF, 0x1234), b"abc", seq=1))
@example(packet=Packet(0, 1, 0, bytes(4096), seq=0xFFFFFFFE))
@example(packet=Packet.ack(0xFFFF, 0, 0xFFFFFFFF))
def test_property_encode_matches_reference_encoder(packet):
    """The one-pass encoder (header words summed arithmetically, one
    checksum pass over the payload) is byte-identical to summing every
    word of the whole packet, and decodes back to the same packet."""
    wire = packet.encode()
    assert wire == reference_encode(packet)
    assert Packet.decode(wire) == packet


@given(data=st.data())
def test_property_seq_survives_wraparound_neighbourhood(data):
    """Sequence numbers just below, at, and after the 2**32 wrap encode
    losslessly (the reliable layer counts modulo 2**32)."""
    base = data.draw(st.sampled_from([0, 1, 0x7FFFFFFF, 0xFFFFFFFE, 0xFFFFFFFF]))
    packet = Packet(0, 1, 0, b"w", seq=base)
    assert Packet.decode(packet.encode()).seq == base


class TestRxErrorAccounting:
    """Damaged wire bytes bump the receiving NIC's rx_errors exactly once."""

    def _rig(self):
        from repro.mem.physmem import PhysicalMemory
        from repro.net.interconnect import Interconnect
        from repro.net.nic import ShrimpNic
        from repro.params import shrimp
        from repro.sim.clock import Clock

        clock = Clock()
        costs = shrimp()
        interconnect = Interconnect(clock, costs)
        nic = ShrimpNic(1, costs, PhysicalMemory(64 * 4096), nipt_entries=64)
        nic.attach(clock)
        nic.connect(interconnect)
        return clock, interconnect, nic

    def test_truncated_wire_bytes_rejected_once(self):
        clock, interconnect, nic = self._rig()
        wire = Packet(0, 1, 0x100, b"payload").encode()
        interconnect.route(0, 1, wire[:-3])
        clock.run_until_idle()
        assert nic.rx_errors == 1
        assert nic.packets_received == 0
        assert len(nic.incoming) == 0

    def test_checksum_corrupted_wire_bytes_rejected_once(self):
        clock, interconnect, nic = self._rig()
        wire = bytearray(Packet(0, 1, 0x100, b"payload").encode())
        wire[-1] ^= 0xFF
        interconnect.route(0, 1, bytes(wire))
        clock.run_until_idle()
        assert nic.rx_errors == 1
        assert nic.packets_received == 0

    def test_header_corrupted_wire_bytes_rejected_once(self):
        clock, interconnect, nic = self._rig()
        wire = bytearray(Packet(0, 1, 0x100, b"payload", seq=9).encode())
        wire[20] ^= 0xFF  # a seq byte: header corruption, length intact
        interconnect.route(0, 1, bytes(wire))
        clock.run_until_idle()
        assert nic.rx_errors == 1
        assert nic.packets_received == 0

    def test_good_packet_after_bad_still_lands(self):
        clock, interconnect, nic = self._rig()
        bad = Packet(0, 1, 0x100, b"payload").encode()[:-1]
        good = Packet(0, 1, 0x100, b"payload").encode()
        interconnect.route(0, 1, bad)
        interconnect.route(0, 1, good)
        clock.run_until_idle()
        assert nic.rx_errors == 1
        assert nic.packets_received == 1
        assert nic.physmem.read(0x100, 7) == b"payload"
