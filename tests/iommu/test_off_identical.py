"""IOMMU off must be bit-identical to the pre-IOMMU machine.

The tier is opt-in: with ``iommu`` unset there is no Iommu object, no
iommu metric names, and a representative workload produces exactly the
same cycle counts, memory digest, and counters as before the feature
landed (proxied here by the default config vs one that spells the tier
off explicitly).
"""

import hashlib

from repro import (
    ClusterConfig,
    Machine,
    MachineConfig,
    Receiver,
    Sender,
    ShrimpCluster,
)

PAGE = 4096


def _digest(machine):
    return hashlib.sha256(machine.physmem.view(0, machine.physmem.size)).hexdigest()


class TestNoIommuObject:
    def test_machine_default_has_no_iommu(self):
        machine = Machine(config=MachineConfig(mem_size=1 << 20))
        assert machine.iommu is None

    def test_cluster_default_has_no_iommu(self):
        cluster = ShrimpCluster(
            config=ClusterConfig(num_nodes=2, mem_size=1 << 20)
        )
        assert all(node.iommu is None for node in cluster.nodes)

    def test_no_iommu_metric_names_when_off(self):
        machine = Machine(config=MachineConfig(mem_size=1 << 20))
        machine.metrics()
        names = machine.obs.registry.names()
        assert not any("iommu" in n for n in names)


def _run_workload(cluster):
    rx = cluster.node(1).create_process("rx")
    buf = cluster.node(1).kernel.syscalls.alloc(rx, 4 * PAGE)
    channel = cluster.create_channel(0, 1, rx, buf, 4 * PAGE)
    tx = cluster.node(0).create_process("tx")
    sender = Sender(cluster, tx, channel)
    receiver = Receiver(cluster, rx, channel)
    for i in range(4):
        sender.send_bytes(bytes([0x30 + i]) * 512, channel_offset=i * 512)
    cluster.run_until_idle()
    got = receiver.recv_bytes(2048)
    return (
        cluster.now,
        cluster.nic(1).packets_received,
        got,
        tuple(_digest(node) for node in cluster.nodes),
    )


class TestBitIdenticalOff:
    def test_off_run_matches_explicit_off_config_exactly(self):
        default = _run_workload(
            ShrimpCluster(config=ClusterConfig(num_nodes=2, mem_size=1 << 21))
        )
        explicit = _run_workload(ShrimpCluster(config=ClusterConfig(
            num_nodes=2, mem_size=1 << 21, iommu=False
        )))
        assert default == explicit

    def test_off_vs_on_same_wire_format(self):
        """The tagged-destination encoding leaves physical packets
        byte-identical: an off-tier run's wire traffic decodes the same
        whether or not the receiving NIC has an IOMMU in front of it."""
        from repro.net.packet import Packet

        packet = Packet(0, 1, 0x3000, b"abcd", seq=7)
        assert Packet.decode(packet.encode()).dst_paddr == 0x3000
