"""Cross-feature combinations: features composed in one system."""

import pytest

from repro import ClusterConfig, MachineConfig, ShrimpCluster
from repro.bench.workloads import make_payload
from repro.userlib import CollectiveGroup, MessageRing, Sender

PAGE = 4096


class TestCollectivesOnMesh:
    def test_collectives_work_on_the_2d_mesh(self):
        cluster = ShrimpCluster(
                      config=ClusterConfig(
                          num_nodes=4,
                          mem_size=1 << 21,
                          topology="mesh2d",
                          mesh_width=2,
                      ),
                  )
        procs = [cluster.node(i).create_process(f"r{i}") for i in range(4)]
        group = CollectiveGroup(cluster, procs, slot_bytes=PAGE)
        data = make_payload(512)
        assert group.broadcast(0, data) == [data] * 4
        assert group.reduce_sum(0, [[i] for i in range(4)]) == [6]
        group.barrier()


class TestRingOnQueuedDevice:
    def test_message_ring_over_queued_udma(self):
        cluster = ShrimpCluster(
                      config=ClusterConfig(
                          num_nodes=2,
                          mem_size=1 << 21,
                          queue_depth=8,
                      ),
                  )
        src = cluster.node(0).create_process("p")
        dst = cluster.node(1).create_process("c")
        ring = MessageRing(cluster, 0, src, 1, dst, data_bytes=2 * PAGE)
        sender, receiver = ring.endpoints()
        for i in range(6):
            sender.send(make_payload(900, seed=i))
        cluster.run_until_idle()
        for i in range(6):
            assert receiver.poll() == make_payload(900, seed=i)


class TestTracingAcrossTheCluster:
    def test_timeline_renders_a_cluster_run(self):
        from repro.sim.timeline import render_timeline

        cluster = ShrimpCluster(
                      config=ClusterConfig(
                          num_nodes=2,
                          mem_size=1 << 21,
                          record_trace=True,
                      ),
                  )
        rx = cluster.node(1).create_process("rx")
        buf = cluster.node(1).kernel.syscalls.alloc(rx, PAGE)
        channel = cluster.create_channel(0, 1, rx, buf, PAGE)
        tx = cluster.node(0).create_process("tx")
        sender = Sender(cluster, tx, channel)
        cluster.tracer.clear()
        sender.send_bytes(make_payload(PAGE))
        cluster.run_until_idle()
        chart = render_timeline(cluster.tracer.events, width=60)
        # Sender-side UDMA, the wire, and the receiver NIC all show up.
        assert "node0.udma" in chart
        assert "nic0" in chart and "nic1" in chart
        assert "w" in chart and "r" in chart  # tx and rx glyphs


class TestSwapWithStepping:
    def test_disk_swap_with_word_stepping_engine(self):
        """Maximal-fidelity configuration still behaves correctly."""
        from repro import Machine
        from repro.kernel.invariants import InvariantChecker

        machine = Machine(
                      config=MachineConfig(
                          mem_size=16 * PAGE,
                          bounce_frames=4,
                          swap="disk",
                          dma_burst_bytes=128,
                      ),
                  )
        p = machine.create_process("app")
        va = machine.kernel.syscalls.alloc(p, 14 * PAGE)
        for round_no in range(2):
            for i in range(14):
                machine.cpu.store(va + i * PAGE, round_no * 50 + i)
        for i in range(14):
            assert machine.cpu.load(va + i * PAGE) == 50 + i
        assert machine.kernel.vm.pages_out > 0
        InvariantChecker(machine.kernel).check_all()
