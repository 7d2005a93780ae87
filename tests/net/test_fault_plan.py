"""The lane-keyed fault plan: each entry hits exactly its packet.

A :class:`~repro.net.faults.FaultPlan` names a packet by its directed
lane and its ordinal on that lane.  These tests pin one op per case on
exactly its ordinal, the reorder swap across other lanes' traffic, the
release of a packet still held when the run settles, the zero host cost
of untouched packets, and the invariance that makes the plan a plan:
the same ``(src, dst, seq)`` packets are faulted whatever the cross-lane
interleaving.
"""

import pytest

from repro import ClusterConfig, Receiver, Sender, ShrimpCluster
from repro.errors import ConfigurationError
from repro.net.faults import FaultPlan
from repro.net.interconnect import Interconnect
from repro.net.packet import Packet
from repro.params import shrimp
from repro.sim.clock import Clock
from tests.net.test_interconnect import RecordingPort


def _seqs(port, src):
    """Sequence numbers of what ``port`` received from ``src``, in order."""
    packets = (w if isinstance(w, Packet) else Packet.decode(w) for w in port.delivered)
    return [p.seq for p in packets if p.src_node == src]


@pytest.fixture
def net():
    clock = Clock()
    interconnect = Interconnect(clock, shrimp())
    ports = [RecordingPort() for _ in range(3)]
    for i, port in enumerate(ports):
        interconnect.register(i, port)
    return clock, interconnect, ports, FaultPlan(interconnect)


def _route(interconnect, src, dst, seq):
    packet = Packet(src, dst, 0x100 * seq, bytes([seq]) * 16, seq=seq)
    interconnect.route(src, dst, packet)
    return packet


# ------------------------------------------------------------ one op each
def test_building_a_plan_installs_it():
    interconnect = Interconnect(Clock(), shrimp())
    plan = FaultPlan(interconnect)
    assert interconnect.fault_injector is plan


def test_drop_fires_on_exactly_its_ordinal(net):
    clock, interconnect, ports, plan = net
    assert plan.add(0, 1, "drop", n=2) == 2
    for seq in range(5):
        _route(interconnect, 0, 1, seq)
    clock.run_until_idle()
    assert _seqs(ports[1], 0) == [0, 1, 3, 4]
    assert interconnect.packets_dropped == 1
    assert interconnect.packets_routed == 4


def test_corrupt_fires_on_exactly_its_ordinal(net):
    clock, interconnect, ports, plan = net
    plan.add(0, 1, "corrupt", salt=5, n=1)
    sent = [_route(interconnect, 0, 1, seq) for seq in range(3)]
    clock.run_until_idle()
    first, corrupted, last = ports[1].delivered
    assert first is sent[0] and last is sent[2]  # untouched: the objects
    expected = bytearray(sent[1].encode())
    expected[5] ^= 0xFF
    assert corrupted == bytes(expected)


def test_dup_fires_on_exactly_its_ordinal(net):
    clock, interconnect, ports, plan = net
    plan.add(0, 1, "dup", n=3)
    for seq in range(5):
        _route(interconnect, 0, 1, seq)
    clock.run_until_idle()
    assert _seqs(ports[1], 0) == [0, 1, 2, 3, 3, 4]
    assert interconnect.packets_routed == 6


def test_reorder_swaps_its_packet_with_the_next_on_its_lane(net):
    clock, interconnect, ports, plan = net
    plan.add(0, 1, "reorder", n=1)
    _route(interconnect, 0, 1, 0)
    _route(interconnect, 0, 1, 1)  # held
    # Other lanes' traffic in between, to node 1 and elsewhere, rides on.
    _route(interconnect, 2, 1, 7)
    _route(interconnect, 1, 0, 8)
    _route(interconnect, 1, 2, 9)
    _route(interconnect, 0, 1, 2)  # releases packet 1 behind it
    _route(interconnect, 0, 1, 3)
    clock.run_until_idle()
    assert _seqs(ports[1], 0) == [0, 2, 1, 3]
    assert _seqs(ports[1], 2) == [7]
    assert _seqs(ports[0], 1) == [8]
    assert _seqs(ports[2], 1) == [9]
    assert plan.held == {}


def test_ordinals_are_per_directed_lane(net):
    clock, interconnect, ports, plan = net
    plan.add(1, 0, "drop", n=0)  # the reverse lane's first packet
    _route(interconnect, 0, 1, 0)
    _route(interconnect, 1, 0, 1)
    _route(interconnect, 1, 0, 2)
    clock.run_until_idle()
    assert _seqs(ports[1], 0) == [0]
    assert _seqs(ports[0], 1) == [2]
    assert plan.routed == {(0, 1): 1, (1, 0): 2}


def test_add_takes_the_next_free_ordinal(net):
    clock, interconnect, ports, plan = net
    _route(interconnect, 0, 1, 0)
    _route(interconnect, 0, 1, 1)
    assert plan.add(0, 1, "drop") == 2
    assert plan.add(0, 1, "dup") == 3
    assert plan.add(1, 0, "drop") == 0


def test_misuse_fails_at_add(net):
    clock, interconnect, ports, plan = net
    with pytest.raises(ConfigurationError, match="unknown wire fault"):
        plan.add(0, 1, "scramble")
    _route(interconnect, 0, 1, 0)
    with pytest.raises(ConfigurationError, match="already routed"):
        plan.add(0, 1, "drop", n=0)


# ------------------------------------------------------ held at settle
def test_a_packet_held_at_settle_is_delivered_and_counted(net):
    clock, interconnect, ports, plan = net
    plan.add(0, 1, "reorder", n=1)
    _route(interconnect, 0, 1, 0)
    packet = _route(interconnect, 0, 1, 1)  # no packet 2 ever comes
    clock.run_until_idle()
    assert _seqs(ports[1], 0) == [0]
    assert interconnect.packets_routed == 1
    plan.run_until_idle()
    assert _seqs(ports[1], 0) == [0, 1]
    assert ports[1].delivered[1] == packet.encode()
    assert interconnect.packets_routed == 2
    assert interconnect.bytes_routed == 2 * packet.wire_bytes
    assert plan.held == {}


def _ring(num_nodes):
    cluster = ShrimpCluster(config=ClusterConfig(num_nodes=num_nodes, mem_size=1 << 21))
    senders, receivers = [], []
    for i in range(num_nodes):
        dst = (i + 1) % num_nodes
        rx = cluster.node(dst).create_process(f"rx{i}")
        buf = cluster.node(dst).kernel.syscalls.alloc(rx, 4096)
        channel = cluster.create_channel(i, dst, rx, buf, 4096)
        tx = cluster.node(i).create_process(f"tx{i}")
        senders.append(Sender(cluster, tx, channel))
        receivers.append(Receiver(cluster, rx, channel))
    return cluster, senders, receivers


def test_held_transfer_lands_in_memory_after_settle():
    cluster, senders, receivers = _ring(2)
    plan = FaultPlan(cluster.interconnect)
    plan.add(0, 1, "reorder")
    senders[0].send_bytes(b"\x5a" * 64)
    cluster.run_until_idle()
    assert cluster.nic(1).packets_received == 0
    plan.run_until_idle()
    assert cluster.nic(1).packets_received == 1
    assert cluster.interconnect.packets_routed == 1
    assert receivers[0].recv_bytes(64) == b"\x5a" * 64


# --------------------------------------------------------- host cost
class TestUntouchedPacketsAreNeverSerialised:
    def test_unplanned_packets_cost_no_encode(self, encode_counts):
        cluster, senders, receivers = _ring(2)
        plan = FaultPlan(cluster.interconnect)
        plan.add(1, 0, "drop", n=0)   # a lane no packet rides
        plan.add(0, 1, "dup", n=50)   # an ordinal never reached
        for i in range(8):
            senders[0].send_bytes(bytes([0x40 + i]) * 64)
        plan.run_until_idle()
        assert cluster.interconnect.packets_routed == 8
        assert receivers[0].recv_bytes(64) == bytes([0x47]) * 64
        assert encode_counts == {"encode": 0, "checksum": 0}

    def test_only_the_planned_packet_is_encoded(self, encode_counts):
        cluster, senders, receivers = _ring(2)
        plan = FaultPlan(cluster.interconnect)
        plan.add(0, 1, "dup", n=3)
        for i in range(8):
            senders[0].send_bytes(bytes([0x40 + i]) * 64)
        plan.run_until_idle()
        assert encode_counts["encode"] == 2  # the two copies of packet 3


# --------------------------------------------------------- invariance
#: one entry per op on every lane of a 3-node ring
_PLAN = [
    (0, 1, 1, "drop"), (0, 1, 3, "reorder"),
    (1, 2, 0, "corrupt"), (1, 2, 2, "dup"),
    (2, 0, 2, "reorder"), (2, 0, 4, "drop"),
]


def _faulted_under(order, offsets):
    """Run the ring's sends in ``order`` with per-node start offsets;
    return the faulted ``(src, dst, seq)`` packets and the lane of every
    routed packet, in routing order."""
    cluster, senders, _ = _ring(3)
    plan = FaultPlan(cluster.interconnect)
    for src, dst, n, op in _PLAN:
        plan.add(src, dst, op, salt=7, n=n)
    faulted, lanes = [], []

    def spy(wire):
        lanes.append((wire.src_node, wire.dst_node))
        produced = plan(wire)
        if produced is not wire:
            faulted.append((wire.src_node, wire.dst_node, wire.seq))
        return produced

    cluster.interconnect.fault_injector = spy
    clock = cluster.clock
    for k in range(6):
        for i in order:
            if k == 0:
                clock.run(until=clock.now + offsets[i])
            senders[i].send_bytes(bytes([0x10 * i + k]) * 96, channel_offset=128 * k)
    plan.run_until_idle()
    return faulted, lanes


def test_the_same_packets_are_faulted_under_any_interleaving():
    faulted_a, lanes_a = _faulted_under((0, 1, 2), (0, 0, 0))
    faulted_b, lanes_b = _faulted_under((2, 1, 0), (5000, 0, 1200))
    assert lanes_a != lanes_b  # the cross-lane order really differs
    for lane in ((0, 1), (1, 2), (2, 0)):
        assert lanes_a.count(lane) == lanes_b.count(lane) == 6
    assert faulted_a and sorted(faulted_a) == sorted(faulted_b)
    # every entry fired (a reorder also touches its successor)
    assert len(faulted_a) == len(_PLAN) + 2
