"""Tests for the ack/retransmit transport (repro.net.reliable)."""

import pytest

from repro import ClusterConfig, Receiver, Sender, ShrimpCluster
from repro.bench import make_payload
from repro.net.reliable import (
    ReliabilityConfig,
    SEQ_MOD,
    ReliabilityPlane,
    seq_lt,
    seq_next,
)

PAGE = 4096


class TestSerialArithmetic:
    def test_plain_ordering(self):
        assert seq_lt(1, 2)
        assert not seq_lt(2, 1)
        assert not seq_lt(7, 7)

    def test_wraparound_ordering(self):
        assert seq_lt(0xFFFFFFFF, 0)
        assert seq_lt(0xFFFFFFFE, 3)
        assert not seq_lt(3, 0xFFFFFFFE)

    def test_successor_wraps(self):
        assert seq_next(0xFFFFFFFF) == 0
        assert seq_next(5) == 6

    def test_half_circle_boundary(self):
        # Distances under 2**31 order forward; the reorder window is
        # tiny compared to that, so in-flight packets always compare sane.
        assert seq_lt(0, (1 << 31) - 1)
        assert not seq_lt(0, 1 << 31)


class TestConfig:
    def test_backoff_is_exponential_and_capped(self):
        config = ReliabilityConfig(
            timeout_cycles=100, backoff=2, max_timeout_cycles=350
        )
        assert config.retry_timeout(0) == 100
        assert config.retry_timeout(1) == 200
        assert config.retry_timeout(2) == 350  # capped, not 400

    def test_defaults_cover_a_page_round_trip(self):
        config = ReliabilityConfig()
        # wire (~8k cycles for a page at 0.5 B/cyc) + hops + rx check +
        # ack return must fit inside the first timeout with slack.
        assert config.timeout_cycles >= 10_000
        assert config.max_retries >= 3


def _rig(**cluster_kwargs):
    cluster = ShrimpCluster(
        config=ClusterConfig(num_nodes=2, mem_size=1 << 21, **cluster_kwargs)
    )
    rx = cluster.node(1).create_process("rx")
    buf = cluster.node(1).kernel.syscalls.alloc(rx, 4 * PAGE)
    channel = cluster.create_channel(0, 1, rx, buf, 4 * PAGE)
    tx = cluster.node(0).create_process("tx")
    sender = Sender(cluster, tx, channel)
    receiver = Receiver(cluster, rx, channel)
    return cluster, sender, receiver


class TestLossRecovery:
    def test_dropped_packet_is_retransmitted_and_delivered(self):
        cluster, sender, receiver = _rig(reliability=True)
        seen = {"n": 0}

        def drop_first(wire):
            seen["n"] += 1
            return None if seen["n"] == 1 else wire

        cluster.interconnect.fault_injector = drop_first
        payload = make_payload(64)
        sender.send_bytes(payload, wait=False)
        cluster.run_until_idle()
        assert receiver.recv_bytes(64) == payload
        plane = cluster.reliability
        assert plane.retransmits == 1
        assert plane.delivery_failed == 0
        assert plane.messages_sent == plane.messages_delivered == 1
        assert plane.in_flight() == 0

    def test_duplicate_is_suppressed_before_receive_dma(self):
        cluster, sender, receiver = _rig(reliability=True)
        cluster.interconnect.fault_injector = lambda wire: [wire, wire]
        payload = make_payload(64)
        sender.send_bytes(payload, wait=False)
        cluster.run_until_idle()
        assert receiver.recv_bytes(64) == payload
        # Exactly one copy reached memory; the clone died in Checking.
        assert cluster.nic(1).packets_received == 1
        assert cluster.reliability.dup_suppressed == 1

    def test_reordered_packets_deliver_in_send_order(self):
        """Reliability restores in-order delivery: the reordered pair is
        re-sequenced, so the *second* send is the last writer (the
        opposite of the documented reliability-off behaviour)."""
        cluster, sender, receiver = _rig(reliability=True)
        held = []

        def reorder(wire):
            if not held:
                held.append(wire)
                return []
            first, held[:] = held[0], []
            return [wire, first]

        cluster.interconnect.fault_injector = reorder
        sender.send_bytes(b"A" * 64)
        sender.send_bytes(b"B" * 64)
        cluster.run_until_idle()
        assert receiver.recv_bytes(64) == b"B" * 64
        assert cluster.reliability.reorder_buffered == 1
        assert cluster.reliability.messages_delivered == 2

    def test_lost_ack_heals_via_retransmit_and_reack(self):
        cluster, sender, receiver = _rig(reliability=True)
        state = {"routed": 0}

        def drop_first_ack(wire):
            # ACKs are header-only packets; the first one dies.
            from repro.net.packet import Packet

            if Packet.decode(bytes(wire)).is_ack and state["routed"] == 0:
                state["routed"] += 1
                return None
            return wire

        cluster.interconnect.fault_injector = drop_first_ack
        payload = make_payload(64)
        sender.send_bytes(payload, wait=False)
        cluster.run_until_idle()
        assert receiver.recv_bytes(64) == payload
        plane = cluster.reliability
        # Sender timed out, retransmitted; receiver suppressed the dup
        # and re-acked; the second ACK landed.
        assert plane.retransmits == 1
        assert plane.dup_suppressed == 1
        assert plane.in_flight() == 0

    def test_blackhole_degrades_to_counted_delivery_failure(self):
        config = ReliabilityConfig(timeout_cycles=2_000, max_retries=3)
        cluster, sender, receiver = _rig(reliability=config)
        cluster.interconnect.fault_injector = lambda wire: None
        sender.send_bytes(make_payload(64), wait=False)
        cluster.run_until_idle()  # must quiesce: the budget is bounded
        plane = cluster.reliability
        assert plane.delivery_failed == 1
        assert plane.retransmits == 3
        assert plane.in_flight() == 0

    def test_burst_under_loss_arrives_exactly_once_in_order(self):
        cluster, sender, receiver = _rig(reliability=True)
        routed = {"n": 0}

        def drop_every_third(wire):
            routed["n"] += 1
            return None if routed["n"] % 3 == 0 else wire

        cluster.interconnect.fault_injector = drop_every_third
        for i in range(8):
            sender.send_bytes(bytes([0x40 + i]) * 32, channel_offset=0)
        cluster.run_until_idle()
        # In-order delivery means the last send is the last writer.
        assert receiver.recv_bytes(32) == bytes([0x47]) * 32
        plane = cluster.reliability
        assert plane.messages_sent == plane.messages_delivered == 8
        assert plane.delivery_failed == 0
        assert plane.in_flight() == 0


class TestDefaultOffBehaviour:
    def test_cluster_has_no_plane_by_default(self):
        cluster, sender, receiver = _rig()
        assert cluster.reliability is None
        assert all(nic.reliability is None for nic in cluster.nics)

    def test_off_cycles_match_history(self):
        """Reliability off is the bit-identical historical data plane:
        same cycle count and counters with the transport code present."""
        results = []
        for kwargs in ({}, {"reliability": True}):
            cluster, sender, receiver = _rig(**kwargs)
            payload = make_payload(256)
            sender.send_bytes(payload, wait=False)
            cluster.run_until_idle()
            results.append(
                (cluster.now, cluster.nic(1).packets_received,
                 receiver.recv_bytes(256) == payload)
            )
        off, on = results
        assert off[1] == on[1] == 1 and off[2] and on[2]
        # ACK drain may extend the reliable run; the off run must be the
        # historical number (strictly no later than the reliable one).
        assert off[0] <= on[0]

    def test_unexpected_ack_is_an_rx_error_when_off(self):
        from repro.net.packet import Packet

        cluster, sender, receiver = _rig()
        cluster.interconnect.route(0, 1, Packet.ack(0, 1, 3))
        cluster.run_until_idle()
        assert cluster.nic(1).rx_errors == 1
        assert cluster.nic(1).packets_received == 0


class TestSequencing:
    def test_per_channel_seq_when_reliable(self):
        plane = ReliabilityPlane()
        assert plane.next_seq(0, 1) == 1
        assert plane.next_seq(0, 1) == 2
        assert plane.next_seq(0, 2) == 1  # independent channel
        assert plane.next_seq(1, 0) == 1  # directions are independent

    def test_metrics_surface_appears_only_with_plane(self):
        on = ShrimpCluster(
                 config=ClusterConfig(
                     num_nodes=2,
                     mem_size=1 << 21,
                     reliability=True,
                 ),
             )
        off = ShrimpCluster(
                  config=ClusterConfig(num_nodes=2, mem_size=1 << 21),
              )
        on.metrics()
        off.metrics()
        on_names = [n for n in on.obs.registry.names() if n.startswith("net.")]
        off_names = [n for n in off.obs.registry.names() if n.startswith("net.")]
        assert "net.retransmits" in on_names
        assert "net.acks" in on_names
        assert "net.dup_suppressed" in on_names
        assert off_names == []


class TestCumulativeAck:
    """``on_ack`` retires the covered prefix of a channel's pending
    packets, which are kept in transmit (= sequence) order."""

    class _Nic:
        def __init__(self, node_id):
            self.node_id = node_id
            self.name = f"nic{node_id}"

    def _plane_with_pending(self, count, start_seq=0):
        from repro.net.packet import Packet
        from repro.sim.clock import Clock

        clock = Clock()
        plane = ReliabilityPlane(clock=clock)
        channel = plane._tx_channel(0, 1)
        channel.next_seq = channel.acked = start_seq
        nic = self._Nic(0)
        seqs = []
        for _ in range(count):
            seq = plane.next_seq(0, 1)
            plane.on_transmit(nic, Packet(0, 1, 0, b"data", seq=seq))
            seqs.append(seq)
        return clock, plane, nic, seqs

    def _ack(self, plane, nic, cum_seq):
        from repro.net.packet import Packet

        plane.on_ack(nic, Packet.ack(1, 0, cum_seq))

    def test_ack_covering_several_pendings_retires_the_prefix(self):
        clock, plane, nic, seqs = self._plane_with_pending(5)
        assert seqs == [1, 2, 3, 4, 5]
        assert clock.pending() == 5  # one retransmit timer each
        self._ack(plane, nic, 3)
        channel = plane._tx_channel(0, 1)
        assert list(channel.pending) == [4, 5]
        assert channel.acked == 3
        assert clock.pending() == 2  # the covered timers were cancelled
        assert plane.acks_received == 1

    def test_ack_covering_none_changes_nothing(self):
        clock, plane, nic, seqs = self._plane_with_pending(3)
        self._ack(plane, nic, 0)
        channel = plane._tx_channel(0, 1)
        assert list(channel.pending) == seqs
        assert channel.acked == 0
        assert clock.pending() == 3
        # A stale duplicate ACK below the high-water mark is a no-op too.
        self._ack(plane, nic, 2)
        self._ack(plane, nic, 1)
        assert list(channel.pending) == [3]
        assert channel.acked == 2

    def test_ack_across_the_32_bit_wrap(self):
        clock, plane, nic, seqs = self._plane_with_pending(
            4, start_seq=SEQ_MOD - 3
        )
        assert seqs == [SEQ_MOD - 2, SEQ_MOD - 1, 0, 1]
        channel = plane._tx_channel(0, 1)
        self._ack(plane, nic, 0)  # covers ...FE, ...FF and 0, not 1
        assert list(channel.pending) == [1]
        assert channel.acked == 0
        assert clock.pending() == 1
        self._ack(plane, nic, 1)
        assert channel.pending == {}
        assert clock.pending() == 0
