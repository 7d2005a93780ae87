"""Integration: the section-7 queued device driving the SHRIMP network."""

import pytest

from repro import ClusterConfig, Receiver, Sender, ShrimpCluster
from repro.bench import make_payload, measure_message
from repro.core.queueing import QueuedUdmaController
from repro.kernel.invariants import InvariantChecker

PAGE = 4096


@pytest.fixture
def queued_cluster():
    cluster = ShrimpCluster(
                  config=ClusterConfig(
                      num_nodes=2,
                      mem_size=1 << 21,
                      queue_depth=8,
                  ),
              )
    rx = cluster.node(1).create_process("rx")
    buf = cluster.node(1).kernel.syscalls.alloc(rx, 1 << 16)
    channel = cluster.create_channel(0, 1, rx, buf, 1 << 16)
    tx = cluster.node(0).create_process("tx")
    sender = Sender(cluster, tx, channel)
    receiver = Receiver(cluster, rx, channel)
    return cluster, sender, receiver


class TestQueuedMessaging:
    def test_nodes_got_queued_devices(self, queued_cluster):
        cluster, _, _ = queued_cluster
        assert isinstance(cluster.node(0).udma, QueuedUdmaController)

    def test_multi_page_message_delivers(self, queued_cluster):
        cluster, sender, receiver = queued_cluster
        data = make_payload(6 * PAGE)
        sender.send_bytes(data)
        receiver.drain()
        assert receiver.recv_bytes(len(data)) == data

    def test_queued_is_not_slower_than_basic(self):
        """Pipelining initiation with DMA must not lose to the basic device."""
        def time_message(queue_depth):
            cluster = ShrimpCluster(
                          config=ClusterConfig(
                              num_nodes=2,
                              mem_size=1 << 21,
                              queue_depth=queue_depth,
                          ),
                      )
            rx = cluster.node(1).create_process("rx")
            buf = cluster.node(1).kernel.syscalls.alloc(rx, 1 << 16)
            channel = cluster.create_channel(0, 1, rx, buf, 1 << 16)
            tx = cluster.node(0).create_process("tx")
            sender = Sender(cluster, tx, channel)
            return measure_message(sender, 8 * PAGE).total_cycles

        assert time_message(8) <= time_message(0)

    def test_invariants_hold_with_queued_device(self, queued_cluster):
        cluster, sender, receiver = queued_cluster
        sender.send_bytes(make_payload(4 * PAGE), wait=False)
        checker = InvariantChecker(cluster.node(0).kernel)
        checker.check_all()  # mid-backlog
        cluster.run_until_idle()
        checker.check_all()

    def test_backlog_pages_protected_from_eviction(self, queued_cluster):
        """Queued requests hold their pages via the reference counters."""
        cluster, sender, receiver = queued_cluster
        sender.send_bytes(make_payload(8 * PAGE), wait=False)
        node = cluster.node(0)
        controller = node.udma
        assert controller.backlog_requests > 0
        pages = controller.memory_pages_in_registers()
        assert pages
        for page in pages:
            assert node.kernel.remap_guard.is_page_in_use(page)
        cluster.run_until_idle()
        assert controller.memory_pages_in_registers() == set()
