"""Tests for the routing backplane."""

import pytest

from repro.errors import ConfigurationError, NetworkError
from repro.net.interconnect import Interconnect, ReceiverPort
from repro.net.packet import Packet
from repro.params import shrimp
from repro.sim.clock import Clock
from repro.config import ClusterConfig


class RecordingPort(ReceiverPort):
    def __init__(self):
        self.delivered = []

    def deliver(self, wire):
        self.delivered.append(wire)


@pytest.fixture
def net():
    clock = Clock()
    interconnect = Interconnect(clock, shrimp())
    ports = [RecordingPort() for _ in range(4)]
    for i, port in enumerate(ports):
        interconnect.register(i, port)
    return clock, interconnect, ports


class TestRouting:
    def test_delivery_to_right_node(self, net):
        clock, interconnect, ports = net
        wire = Packet(0, 2, 0, b"hi").encode()
        interconnect.route(0, 2, wire)
        clock.run_until_idle()
        assert ports[2].delivered == [wire]
        assert ports[1].delivered == []

    def test_hop_latency_scales_with_distance(self, net):
        clock, interconnect, ports = net
        wire = Packet(0, 3, 0, b"x").encode()
        interconnect.route(0, 3, wire)
        clock.run_until_idle()
        assert clock.now == 3 * interconnect.costs.hop_cycles

    def test_minimum_one_hop(self, net):
        _, interconnect, _ = net
        assert interconnect.hops(2, 2) == 1

    def test_unknown_destination_rejected(self, net):
        _, interconnect, _ = net
        with pytest.raises(NetworkError):
            interconnect.route(0, 9, b"x")

    def test_duplicate_registration_rejected(self, net):
        _, interconnect, _ = net
        with pytest.raises(ConfigurationError):
            interconnect.register(0, RecordingPort())

    def test_counters(self, net):
        clock, interconnect, _ = net
        wire = Packet(0, 1, 0, b"abc").encode()
        interconnect.route(0, 1, wire)
        clock.run_until_idle()
        assert interconnect.packets_routed == 1
        assert interconnect.bytes_routed == len(wire)

    def test_fault_injector_sees_wire_bytes(self, net):
        """The injector is handed the routed packet itself; ``bytes(wire)``
        is its wire image, and the bytes it returns are what is delivered."""
        clock, interconnect, ports = net
        seen = []

        def corrupt(wire):
            seen.append(wire)
            return bytes(wire)[:-1] + b"\x00"

        interconnect.fault_injector = corrupt
        packet = Packet(0, 1, 0, b"payload")
        interconnect.route(0, 1, packet)
        clock.run_until_idle()
        assert len(seen) == 1 and seen[0] is packet
        assert bytes(seen[0]) == packet.encode()
        assert ports[1].delivered == [packet.encode()[:-1] + b"\x00"]

    def test_node_ids(self, net):
        _, interconnect, _ = net
        assert interconnect.node_ids == [0, 1, 2, 3]


class TestInjectorDropAccounting:
    """The drop/duplicate decision lives in one place (``_route_one``),
    so every injector output shape charges the counters consistently."""

    def test_single_drop_charged_once(self, net):
        clock, interconnect, ports = net
        interconnect.fault_injector = lambda wire: None
        interconnect.route(0, 1, Packet(0, 1, 0, b"x").encode())
        clock.run_until_idle()
        assert interconnect.packets_dropped == 1
        assert interconnect.packets_routed == 0
        assert ports[1].delivered == []

    def test_duplicate_and_drop_list_charges_each_copy_once(self, net):
        """An injector that duplicates a packet and drops one copy: the
        surviving copy is routed, the dropped copy is charged to
        packets_dropped -- exactly once each."""
        clock, interconnect, ports = net
        corrupted = {}

        def dup_and_drop_one(wire):
            corrupted["copy"] = wire[:-1] + bytes([wire[-1] ^ 0xFF])
            return [corrupted["copy"], None]

        interconnect.fault_injector = dup_and_drop_one
        interconnect.route(0, 1, Packet(0, 1, 0, b"x").encode())
        clock.run_until_idle()
        assert interconnect.packets_dropped == 1
        assert interconnect.packets_routed == 1
        assert ports[1].delivered == [corrupted["copy"]]

    def test_all_none_list_counts_every_drop(self, net):
        clock, interconnect, ports = net
        interconnect.fault_injector = lambda wire: [None, None]
        interconnect.route(0, 1, Packet(0, 1, 0, b"x").encode())
        clock.run_until_idle()
        assert interconnect.packets_dropped == 2
        assert interconnect.packets_routed == 0
        assert ports[1].delivered == []

    def test_empty_list_is_a_silent_hold(self, net):
        """Returning [] (the reorder injector's hold) is not a drop."""
        clock, interconnect, ports = net
        interconnect.fault_injector = lambda wire: []
        interconnect.route(0, 1, Packet(0, 1, 0, b"x").encode())
        clock.run_until_idle()
        assert interconnect.packets_dropped == 0
        assert interconnect.packets_routed == 0


class TestUntouchedWire:
    """An injector that hands back the very bytes it was given leaves the
    wire unchanged, so the original packet rides on with no second parse;
    changed, duplicated or held bytes still go through decode + Checking."""

    @pytest.fixture
    def rig(self, monkeypatch):
        from repro.mem.physmem import PhysicalMemory
        from repro.net.nic import ShrimpNic

        clock = Clock()
        costs = shrimp()
        interconnect = Interconnect(clock, costs)
        nic = ShrimpNic(1, costs, PhysicalMemory(64 * 4096), nipt_entries=64)
        nic.attach(clock)
        nic.connect(interconnect)
        landed = []
        nic.on_receive.append(landed.append)
        decodes = []
        decode = Packet.decode.__func__

        def counted_decode(cls, wire):
            decodes.append(bytes(wire))
            return decode(cls, wire)

        monkeypatch.setattr(Packet, "decode", classmethod(counted_decode))
        return clock, interconnect, nic, landed, decodes

    def test_identity_injector_delivers_the_same_packet(self, rig):
        clock, interconnect, nic, landed, decodes = rig
        seen = []

        def look(wire):
            seen.append(wire)
            return wire

        interconnect.fault_injector = look
        packet = Packet(0, 1, 0x100, b"payload", seq=4, span=17)
        interconnect.route(0, 1, packet)
        clock.run_until_idle()
        assert [bytes(w) for w in seen] == [packet.encode()]  # real bytes
        assert landed == [packet] and landed[0] is packet
        assert landed[0].span == 17
        assert decodes == []
        assert interconnect.packets_routed == 1
        assert interconnect.bytes_routed == packet.wire_bytes
        assert nic.physmem.read(0x100, 7) == b"payload"

    def test_copied_bytes_still_decode(self, rig):
        """Equal but not identical bytes are not the injector's own
        object; they take the decode path, as any changed wire does."""
        clock, interconnect, nic, landed, decodes = rig
        interconnect.fault_injector = lambda wire: bytes(wire)
        packet = Packet(0, 1, 0x100, b"payload", span=17)
        interconnect.route(0, 1, packet)
        clock.run_until_idle()
        assert decodes == [packet.encode()]
        assert landed == [packet] and landed[0] is not packet
        assert landed[0].span is None

    def test_corrupted_bytes_decode_and_fail_checking(self, rig):
        clock, interconnect, nic, landed, decodes = rig
        interconnect.fault_injector = (
            lambda wire: bytes(wire)[:-1] + bytes([bytes(wire)[-1] ^ 0xFF])
        )
        interconnect.route(0, 1, Packet(0, 1, 0x100, b"payload"))
        clock.run_until_idle()
        assert len(decodes) == 1
        assert landed == []
        assert nic.rx_errors == 1

    def test_duplicated_bytes_decode_each_copy(self, rig):
        clock, interconnect, nic, landed, decodes = rig
        interconnect.fault_injector = lambda wire: [wire, wire]
        packet = Packet(0, 1, 0x100, b"payload")
        interconnect.route(0, 1, packet)
        clock.run_until_idle()
        assert decodes == [packet.encode()] * 2
        assert landed == [packet, packet]
        assert all(copy is not packet for copy in landed)

    def test_held_and_reordered_bytes_decode(self, rig):
        clock, interconnect, nic, landed, decodes = rig
        held = []

        def hold_first(wire):
            if not held:
                held.append(wire)
                return []
            return [wire, held.pop()]

        interconnect.fault_injector = hold_first
        first = Packet(0, 1, 0x100, b"first!!!", seq=1)
        second = Packet(0, 1, 0x200, b"second!!", seq=2)
        interconnect.route(0, 1, first)
        interconnect.route(0, 1, second)
        clock.run_until_idle()
        assert decodes == [second.encode(), first.encode()]
        assert landed == [second, first]
        assert all(p is not first and p is not second for p in landed)

    def test_raw_bytes_passed_through_still_decode(self, rig):
        clock, interconnect, nic, landed, decodes = rig
        interconnect.fault_injector = lambda wire: wire
        wire = Packet(0, 1, 0x100, b"payload").encode()
        interconnect.route(0, 1, wire)
        clock.run_until_idle()
        assert decodes == [wire]
        assert landed == [Packet(0, 1, 0x100, b"payload")]


class TestInjectorSerialisesOnlyWhatItRewrites:
    """The injector contract's host cost, counted rather than timed: a
    packet the injector hands back or drops is never encoded (nor
    checksummed); each rewritten piece is encoded exactly once."""

    @staticmethod
    def _send(cluster, messages):
        from repro import Receiver, Sender

        rx = cluster.node(1).create_process("rx")
        buf = cluster.node(1).kernel.syscalls.alloc(rx, 4096)
        channel = cluster.create_channel(0, 1, rx, buf, 4096)
        sender = Sender(cluster, cluster.node(0).create_process("tx"), channel)
        for i in range(messages):
            sender.send_bytes(bytes([0x40 + i]) * 64, wait=False)
            cluster.run_until_idle()
        return Receiver(cluster, rx, channel).recv_bytes(64)

    def test_drop_every_nth_never_encodes(self, encode_counts):
        from repro import ShrimpCluster

        cluster = ShrimpCluster(config=ClusterConfig(
            num_nodes=2, mem_size=1 << 21, reliability=True))
        routed = {"n": 0}

        def drop_every_third(wire):
            routed["n"] += 1
            return None if routed["n"] % 3 == 0 else wire

        cluster.interconnect.fault_injector = drop_every_third
        assert self._send(cluster, 12) == bytes([0x40 + 11]) * 64
        assert cluster.interconnect.packets_dropped > 0
        assert cluster.reliability.retransmits > 0
        assert cluster.reliability.messages_delivered == 12
        assert encode_counts == {"encode": 0, "checksum": 0}

    def test_each_rewritten_piece_encodes_once(self, encode_counts):
        from repro import ShrimpCluster

        cluster = ShrimpCluster(config=ClusterConfig(
            num_nodes=2, mem_size=1 << 21, reliability=True))
        routed = {"n": 0, "pieces": 0}

        def mixed(wire):
            routed["n"] += 1
            step = routed["n"] % 4
            if step == 1:
                routed["pieces"] += 2
                return [wire, wire]
            if step == 2:
                routed["pieces"] += 1
                data = bytearray(bytes(wire))
                data[-1] ^= 1
                return bytes(data)
            return None if step == 3 else wire

        cluster.interconnect.fault_injector = mixed
        assert self._send(cluster, 8) == bytes([0x40 + 7]) * 64
        assert cluster.reliability.messages_delivered == 8
        assert routed["pieces"] > 0
        assert encode_counts["encode"] == routed["pieces"]

    def test_duplicated_pooled_packet_is_delivered_as_two_decoded_copies(self):
        from repro import ShrimpCluster

        cluster = ShrimpCluster(config=ClusterConfig(num_nodes=2, mem_size=1 << 21))
        pool, nic = cluster.interconnect.packet_pool, cluster.nic(1)
        assert pool is not None and cluster.reliability is None
        self._send(cluster, 1)  # control: the delivered shell is recycled
        assert (nic.packets_received, pool.releases) == (1, 1)
        cluster.interconnect.fault_injector = lambda wire: [wire, wire]
        assert self._send(cluster, 1) == bytes([0x40]) * 64
        assert nic.packets_received == 3
        assert pool.releases == 1

    def test_every_route_names_the_packets_own_lane(self, monkeypatch):
        """Data, retransmitted, snooped and ACK packets are all routed
        with ``(src, dst) == (packet.src_node, packet.dst_node)``, so an
        injector may read a packet's lane from its header."""
        from repro import ShrimpCluster

        lanes = []
        route = Interconnect.route

        def recording(self, src, dst, wire):
            lanes.append((src, dst, wire.src_node, wire.dst_node, wire.kind))
            route(self, src, dst, wire)

        monkeypatch.setattr(Interconnect, "route", recording)
        cluster = ShrimpCluster(config=ClusterConfig(
            num_nodes=2, mem_size=1 << 21, reliability=True))
        routed = {"n": 0}

        def drop_first(wire):
            routed["n"] += 1
            return None if routed["n"] == 1 else wire

        cluster.interconnect.fault_injector = drop_first
        self._send(cluster, 2)
        src = cluster.node(0).create_process("writer")
        dst = cluster.node(1).create_process("mirror")
        src_buf = cluster.node(0).kernel.syscalls.alloc(src, 4096)
        dst_buf = cluster.node(1).kernel.syscalls.alloc(dst, 4096)
        cluster.bind_automatic_update(0, src, src_buf, 1, dst, dst_buf, 4096)
        cluster.node(0).kernel.scheduler.switch_to(src)
        cluster.node(0).cpu.store(src_buf, 0xFEED)
        cluster.run_until_idle()
        assert cluster.reliability.retransmits == 1
        kinds = [kind for *_, kind in lanes]
        assert kinds.count("data") == 2 + 1 + 1  # sends, retry, snoop
        assert kinds.count("ack") > 0
        assert all((s, d) == (ps, pd) for s, d, ps, pd, _ in lanes)


class TestMesh2dTopology:
    def make(self, width, nodes):
        clock = Clock()
        interconnect = Interconnect(
            clock, shrimp(), topology="mesh2d", mesh_width=width
        )
        for i in range(nodes):
            interconnect.register(i, RecordingPort())
        return interconnect

    def test_same_row_distance(self):
        mesh = self.make(width=4, nodes=16)
        assert mesh.hops(0, 3) == 3

    def test_same_column_distance(self):
        mesh = self.make(width=4, nodes=16)
        assert mesh.hops(1, 13) == 3  # (1,0) -> (1,3)

    def test_diagonal_is_manhattan(self):
        mesh = self.make(width=4, nodes=16)
        assert mesh.hops(0, 5) == 2  # (0,0) -> (1,1)

    def test_minimum_one_hop(self):
        mesh = self.make(width=4, nodes=16)
        assert mesh.hops(7, 7) == 1

    def test_auto_width_from_node_count(self):
        mesh = self.make(width=0, nodes=16)  # derives width 4
        assert mesh.hops(0, 15) == 6  # (0,0) -> (3,3)

    def test_mesh_shorter_than_linear_for_far_nodes(self):
        linear = Interconnect(Clock(), shrimp(), topology="linear")
        mesh = self.make(width=4, nodes=16)
        assert mesh.hops(0, 15) < linear.hops(0, 15)

    def test_unknown_topology_rejected(self):
        with pytest.raises(ConfigurationError):
            Interconnect(Clock(), shrimp(), topology="torus")

    def test_cluster_builds_on_mesh(self):
        from repro import ShrimpCluster
        cluster = ShrimpCluster(
                      config=ClusterConfig(
                          num_nodes=4,
                          mem_size=1 << 20,
                          topology="mesh2d",
                          mesh_width=2,
                      ),
                  )
        assert cluster.interconnect.hops(0, 3) == 2


class TestTorus2dTopology:
    def make(self, width, nodes):
        clock = Clock()
        interconnect = Interconnect(
            clock, shrimp(), topology="torus2d", mesh_width=width
        )
        interconnect.validate_topology(nodes)
        for i in range(nodes):
            interconnect.register(i, RecordingPort())
        return interconnect

    def test_row_edge_wraparound(self):
        torus = self.make(width=4, nodes=16)
        # (0,0) -> (3,0): one hop around the X ring, not three across.
        assert torus.hops(0, 3) == 1

    def test_column_edge_wraparound(self):
        torus = self.make(width=4, nodes=16)
        # (0,0) -> (0,3): one hop around the Y ring.
        assert torus.hops(0, 12) == 1

    def test_corner_to_corner_wraps_both_dimensions(self):
        torus = self.make(width=4, nodes=16)
        assert torus.hops(0, 15) == 2  # mesh2d distance would be 6

    def test_interior_distance_matches_mesh(self):
        torus = self.make(width=4, nodes=16)
        mesh = Interconnect(
            Clock(), shrimp(), topology="mesh2d", mesh_width=4
        )
        mesh.validate_topology(16)
        assert torus.hops(0, 5) == mesh.hops(0, 5) == 2

    def test_wrap_uses_shorter_ring_direction_on_rectangles(self):
        torus = self.make(width=8, nodes=32)  # 8 wide, 4 tall
        assert torus.hops(0, 7) == 1   # X wraps on the 8-ring
        assert torus.hops(0, 24) == 1  # Y wraps on the 4-ring
        assert torus.hops(0, 4) == 4   # halfway around the X ring


class TestTopologyValidation:
    def test_linear_accepts_any_count(self):
        interconnect = Interconnect(Clock(), shrimp(), topology="linear")
        interconnect.validate_topology(7)  # no error

    def test_rectangle_accepted_and_pins_height(self):
        interconnect = Interconnect(
            Clock(), shrimp(), topology="mesh2d", mesh_width=8
        )
        interconnect.validate_topology(24)
        assert interconnect.mesh_width == 8
        assert interconnect._mesh_height == 3

    def test_ragged_mesh_rejected_naming_nearest(self):
        interconnect = Interconnect(
            Clock(), shrimp(), topology="mesh2d", mesh_width=8
        )
        with pytest.raises(ConfigurationError) as excinfo:
            interconnect.validate_topology(60)
        message = str(excinfo.value)
        assert "56" in message and "8x7" in message  # nearest below
        assert "64" in message and "8x8" in message  # nearest above

    def test_nonsquare_autowidth_rejected_naming_nearest(self):
        interconnect = Interconnect(Clock(), shrimp(), topology="torus2d")
        with pytest.raises(ConfigurationError) as excinfo:
            interconnect.validate_topology(60)
        message = str(excinfo.value)
        assert "49" in message and "7x7" in message
        assert "64" in message and "8x8" in message

    def test_square_autowidth_accepted(self):
        interconnect = Interconnect(Clock(), shrimp(), topology="mesh2d")
        interconnect.validate_topology(64)
        assert interconnect.mesh_width == 8
        assert interconnect._mesh_height == 8

    def test_count_smaller_than_width_suggests_only_above(self):
        interconnect = Interconnect(
            Clock(), shrimp(), topology="mesh2d", mesh_width=8
        )
        with pytest.raises(ConfigurationError) as excinfo:
            interconnect.validate_topology(5)
        message = str(excinfo.value)
        assert "8 nodes (8x1)" in message
        assert "0 nodes" not in message

    def test_cluster_rejects_ragged_mesh(self):
        from repro import ShrimpCluster
        with pytest.raises(ConfigurationError):
            ShrimpCluster(
                config=ClusterConfig(
                    num_nodes=3,
                    mem_size=1 << 20,
                    topology="mesh2d",
                    mesh_width=2,
                ),
            )

    def test_cluster_builds_on_torus(self):
        from repro import ShrimpCluster
        cluster = ShrimpCluster(
                      config=ClusterConfig(
                          num_nodes=4,
                          mem_size=1 << 20,
                          topology="torus2d",
                          mesh_width=2,
                      ),
                  )
        # On a 2x2 torus wraparound cannot beat the direct path.
        assert cluster.interconnect.hops(0, 1) == 1
        assert cluster.interconnect.hops(0, 3) == 2
