"""The automatic-update snooper is on a CPU's store path only while bound."""

from __future__ import annotations

from repro import ClusterConfig, ShrimpCluster
from repro.sharding import ClusterSpec, InProcessEngine

PAGE = 4096


def test_snooper_installed_by_first_binding_removed_by_last():
    cluster = ShrimpCluster(config=ClusterConfig(num_nodes=2, mem_size=1 << 20))
    assert all(node.cpu.store_snoop is None for node in cluster.nodes)
    src = cluster.node(0).create_process("writer")
    dst = cluster.node(1).create_process("mirror")
    src_buf = cluster.node(0).kernel.syscalls.alloc(src, 2 * PAGE)
    dst_buf = cluster.node(1).kernel.syscalls.alloc(dst, 2 * PAGE)
    cpu = cluster.node(0).cpu
    cluster.bind_automatic_update(0, src, src_buf, 1, dst, dst_buf, 2 * PAGE)
    assert cpu.store_snoop == cluster.nic(0).snoop_store
    assert cluster.node(1).cpu.store_snoop is None
    # One of two pages unbound: the other still needs the snooper.
    cluster.unbind_automatic_update(0, src, src_buf, 1)
    assert cpu.store_snoop == cluster.nic(0).snoop_store
    cluster.unbind_automatic_update(0, src, src_buf + PAGE, 1)
    assert cpu.store_snoop is None
    # Stores after the last unbind stay local.
    cluster.node(0).kernel.scheduler.switch_to(src)
    cpu.store(src_buf, 0xFEED)
    cluster.run_until_idle()
    assert cluster.nic(1).packets_received == 0


def test_unbind_leaves_a_foreign_snooper_alone():
    cluster = ShrimpCluster(config=ClusterConfig(num_nodes=2, mem_size=1 << 20))
    nic = cluster.nic(0)
    cpu = cluster.node(0).cpu
    nic.nipt.set_entry(0, 1, 0)
    nic.bind_automatic(4, 0)

    def foreign(paddr, data):
        pass

    cpu.store_snoop = foreign
    nic.unbind_automatic(4)
    assert cpu.store_snoop is foreign


def test_shard_nodes_start_without_a_snooper():
    engine = InProcessEngine(
        ClusterSpec(num_nodes=4, topology="linear", messages_per_node=1),
        num_shards=2,
    )
    for shard in engine.shards:
        for rt in shard.runtimes.values():
            assert rt.machine.cpu.store_snoop is None
