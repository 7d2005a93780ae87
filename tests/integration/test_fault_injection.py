"""Fault injection: corrupted packets are contained, never consumed."""

import pytest

from repro import ClusterConfig, Receiver, Sender, ShrimpCluster
from repro.bench import make_payload

PAGE = 4096


@pytest.fixture
def lossy_rig():
    cluster = ShrimpCluster(
                  config=ClusterConfig(num_nodes=2, mem_size=1 << 21),
              )
    rx = cluster.node(1).create_process("rx")
    buf = cluster.node(1).kernel.syscalls.alloc(rx, 4 * PAGE)
    channel = cluster.create_channel(0, 1, rx, buf, 4 * PAGE)
    tx = cluster.node(0).create_process("tx")
    sender = Sender(cluster, tx, channel)
    receiver = Receiver(cluster, rx, channel)
    return cluster, sender, receiver, buf


class TestCorruption:
    def test_corrupted_payload_never_reaches_memory(self, lossy_rig):
        cluster, sender, receiver, buf = lossy_rig
        # Pre-fill the receive buffer with a sentinel.
        frame = sender.channel.dst_frames[0]
        cluster.node(1).physmem.write(frame * PAGE, b"\xee" * 64)
        cluster.interconnect.fault_injector = (
            lambda wire: bytes(wire)[:-1] + bytes([bytes(wire)[-1] ^ 0xFF])
        )
        sender.send_bytes(make_payload(64), wait=False)
        cluster.run_until_idle()
        assert cluster.nic(1).rx_errors == 1
        assert cluster.nic(1).packets_received == 0
        # The sentinel is untouched: the bad payload was dropped whole.
        assert cluster.node(1).physmem.read(frame * PAGE, 64) == b"\xee" * 64

    def test_loss_is_detectable_by_flag_protocol(self, lossy_rig):
        """The flag-word idiom: a missing trailing flag reveals the loss."""
        cluster, sender, receiver, buf = lossy_rig
        flag_off = 2 * PAGE  # flag lives on its own page, sent second
        # Corrupt only the second (flag) packet.
        seen = {"count": 0}

        def corrupt_second(wire):
            seen["count"] += 1
            if seen["count"] == 2:
                return bytes(wire)[:-1] + bytes([bytes(wire)[-1] ^ 1])
            return wire

        cluster.interconnect.fault_injector = corrupt_second
        payload = make_payload(256)
        # wait=True between sends: the two transfers share the send
        # buffer, and overwriting it mid-DMA would race (real UDMA
        # semantics -- the engine reads the page during the transfer).
        sender.send_bytes(payload)                               # packet 1
        sender.send_bytes(b"FLAG", channel_offset=flag_off)      # packet 2
        cluster.run_until_idle()
        assert receiver.recv_bytes(256) == payload               # data arrived
        assert receiver.recv_bytes(4, offset=flag_off) != b"FLAG"  # flag lost
        assert cluster.nic(1).rx_errors == 1

    def test_clean_retransmission_completes_the_protocol(self, lossy_rig):
        cluster, sender, receiver, buf = lossy_rig
        flag_off = 2 * PAGE
        cluster.interconnect.fault_injector = (
            lambda wire: bytes(wire)[:-1] + bytes([bytes(wire)[-1] ^ 1])
        )
        sender.send_bytes(b"FLAG", channel_offset=flag_off, wait=False)
        cluster.run_until_idle()
        cluster.interconnect.fault_injector = None  # link recovers
        sender.send_bytes(b"FLAG", channel_offset=flag_off, wait=False)
        cluster.run_until_idle()
        assert receiver.recv_bytes(4, offset=flag_off) == b"FLAG"

    def test_sender_side_unaffected_by_receiver_drops(self, lossy_rig):
        """Drops are a receive-side event; the sender's UDMA path is
        oblivious (the paper's NIC has no end-to-end acking)."""
        cluster, sender, receiver, buf = lossy_rig
        cluster.interconnect.fault_injector = (
            lambda wire: bytes(wire)[:-1] + bytes([bytes(wire)[-1] ^ 1])
        )
        stats = sender.send_bytes(make_payload(128))  # wait=True still returns
        assert stats.pieces == 1
        assert cluster.nic(0).packets_sent == 1


class TestDrop:
    def test_dropped_packet_never_reaches_the_nic(self, lossy_rig):
        cluster, sender, receiver, buf = lossy_rig
        frame = sender.channel.dst_frames[0]
        cluster.node(1).physmem.write(frame * PAGE, b"\xee" * 64)
        cluster.interconnect.fault_injector = lambda wire: None  # backplane eats it
        sender.send_bytes(make_payload(64), wait=False)
        cluster.run_until_idle()
        assert cluster.interconnect.packets_dropped == 1
        assert cluster.nic(1).packets_received == 0
        assert cluster.nic(1).rx_errors == 0  # never even arrived
        assert cluster.node(1).physmem.read(frame * PAGE, 64) == b"\xee" * 64

    def test_drop_then_retransmit_delivers(self, lossy_rig):
        cluster, sender, receiver, buf = lossy_rig
        cluster.interconnect.fault_injector = lambda wire: None
        sender.send_bytes(b"LOST", wait=False)
        cluster.run_until_idle()
        cluster.interconnect.fault_injector = None
        sender.send_bytes(b"GOOD", wait=False)
        cluster.run_until_idle()
        assert receiver.recv_bytes(4) == b"GOOD"
        assert cluster.interconnect.packets_dropped == 1


class TestDuplicate:
    def test_duplicate_delivery_is_idempotent(self, lossy_rig):
        """A duplicated deliberate-update packet rewrites the same
        destination frames with the same bytes: visible in the packet
        counters, invisible in memory."""
        cluster, sender, receiver, buf = lossy_rig
        cluster.interconnect.fault_injector = lambda wire: [wire, wire]
        payload = make_payload(128)
        sender.send_bytes(payload, wait=False)
        cluster.run_until_idle()
        assert cluster.nic(1).packets_received == 2
        assert cluster.nic(1).rx_errors == 0
        assert receiver.recv_bytes(128) == payload


class TestReorder:
    def test_reordered_packets_land_last_writer_wins(self, lossy_rig):
        """A stateful injector holds the first packet and releases it
        after the second: both arrive intact, but the *first* payload is
        the one left in the (shared) destination -- proof the arrival
        order really was swapped."""
        cluster, sender, receiver, buf = lossy_rig
        held = []

        def reorder(wire):
            if not held:
                held.append(wire)
                return []           # hold the first packet back
            first, held[:] = held[0], []
            return [wire, first]    # second out first, held one after

        cluster.interconnect.fault_injector = reorder
        first = b"A" * 64
        second = b"B" * 64
        sender.send_bytes(first)   # wait=True: TX side completes regardless
        sender.send_bytes(second)
        cluster.run_until_idle()
        assert cluster.nic(1).packets_received == 2
        assert cluster.nic(1).rx_errors == 0
        assert receiver.recv_bytes(64) == first  # last writer was the held one

    def test_in_order_baseline_last_writer_wins(self, lossy_rig):
        """Control for the reorder test: without the injector the second
        payload is the survivor."""
        cluster, sender, receiver, buf = lossy_rig
        sender.send_bytes(b"A" * 64)
        sender.send_bytes(b"B" * 64)
        cluster.run_until_idle()
        assert receiver.recv_bytes(64) == b"B" * 64
