"""The automatic-update snooper joins a CPU's store path only once bound."""

from __future__ import annotations

from repro import ClusterConfig, ShrimpCluster
from repro.sharding import ClusterSpec, InProcessEngine

PAGE = 4096


def test_snooper_installed_by_first_binding():
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


def test_shard_nodes_start_without_a_snooper():
    engine = InProcessEngine(
        ClusterSpec(num_nodes=4, topology="linear", messages_per_node=1),
        num_shards=2,
    )
    for shard in engine.shards:
        for rt in shard.runtimes.values():
            assert rt.machine.cpu.store_snoop is None
