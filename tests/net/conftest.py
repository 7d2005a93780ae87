"""Fixtures shared by the network tests."""

import pytest

from repro.net.packet import Packet


@pytest.fixture
def encode_counts(monkeypatch):
    """Count ``Packet.encode`` (also reached as ``bytes(packet)``) and
    ``_checksum`` calls: a host cost counted rather than timed."""
    import repro.net.packet as packet_module

    counts = {"encode": 0, "checksum": 0}
    encode, checksum = Packet.encode, packet_module._checksum

    def counted_encode(packet):
        counts["encode"] += 1
        return encode(packet)

    def counted_checksum(data):
        counts["checksum"] += 1
        return checksum(data)

    monkeypatch.setattr(Packet, "encode", counted_encode)
    monkeypatch.setattr(Packet, "__bytes__", counted_encode)
    monkeypatch.setattr(packet_module, "_checksum", counted_checksum)
    return counts
