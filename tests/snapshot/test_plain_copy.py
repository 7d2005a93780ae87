"""A plain pickle or deep copy of a live system is a working system.

Sampled metrics hold their component and an attribute path, so neither
copy needs a step after it: the copy's registry samples the copy's
components, and driving the copy moves its metrics, not the original's.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from repro import ClusterConfig, Machine, MachineConfig, ShrimpCluster
from repro.sharding import ClusterSpec, InProcessEngine
from repro.userlib import Receiver, Sender

COPIES = {
    "pickle": lambda graph: pickle.loads(
        pickle.dumps(graph, protocol=pickle.HIGHEST_PROTOCOL)
    ),
    "deepcopy": copy.deepcopy,
}

copies = pytest.mark.parametrize("duplicate", list(COPIES.values()), ids=list(COPIES))


@copies
def test_machine_copy_samples_its_own_components(duplicate):
    machine = Machine(config=MachineConfig(mem_size=1 << 20))
    process = machine.create_process("p")
    buf = machine.kernel.syscalls.alloc(process, 4096)
    before = machine.obs.registry.snapshot()

    twin, twin_process = duplicate((machine, process))
    registry = twin.obs.registry
    assert registry.get("cpu.stores").owner is twin.cpu
    assert registry.get("sim.now_cycles").owner is twin
    assert registry.snapshot() == before
    twin.kernel.scheduler.switch_to(twin_process)
    twin.cpu.write_bytes(buf, b"q" * 4096)
    twin.run_until_idle()

    after = registry.snapshot()
    assert after["cpu.stores"] > before["cpu.stores"]
    assert after["cpu.stores"] == twin.cpu.stores
    assert machine.obs.registry.snapshot() == before


@copies
def test_cluster_copy_samples_its_own_components(duplicate):
    cluster = ShrimpCluster(
        config=ClusterConfig(num_nodes=2, mem_size=1 << 21, reliability=True)
    )
    tx = cluster.node(0).create_process("tx")
    rx = cluster.node(1).create_process("rx")
    buf = cluster.node(1).kernel.syscalls.alloc(rx, 8192)
    channel = cluster.create_channel(0, 1, rx, buf, 8192)
    before = cluster.obs.registry.snapshot()

    twin, twin_tx, twin_rx, twin_channel = duplicate((cluster, tx, rx, channel))
    registry = twin.obs.registry
    assert registry.get("node0.nic.packets_sent").owner is twin.nics[0]
    assert registry.get("net.messages_sent").owner is twin.reliability
    assert registry.snapshot() == before
    Sender(twin, twin_tx, twin_channel).send_bytes(b"x" * 4096)
    twin.run_until_idle()
    assert Receiver(twin, twin_rx, twin_channel).recv_bytes(4096) == b"x" * 4096

    after = registry.snapshot()
    assert after["node0.nic.packets_sent"] > before["node0.nic.packets_sent"]
    assert after["backplane.packets_routed"] == twin.interconnect.packets_routed > 0
    assert after["net.messages_delivered"] > before["net.messages_delivered"]
    assert after["node1.sim.now_cycles"] == twin.now > cluster.now
    assert cluster.obs.registry.snapshot() == before


@copies
def test_sharded_engine_copy_samples_its_own_components(duplicate):
    engine = InProcessEngine(ClusterSpec(num_nodes=16, messages_per_node=2), 2)
    before = [shard.obs.registry.snapshot() for shard in engine.shards]

    twin = duplicate(engine)
    for shard in twin.shards:
        name = f"shard{shard.shard_spec.index}.ops_executed"
        assert shard.obs.registry.get(name).owner is shard
    twin.run()

    for shard, reading in zip(twin.shards, before):
        after = shard.obs.registry.snapshot()
        index = shard.shard_spec.index
        assert after[f"shard{index}.ops_executed"] == shard.ops_executed > 0
        assert after != reading
    assert [shard.obs.registry.snapshot() for shard in engine.shards] == before
