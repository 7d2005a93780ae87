"""Both cluster worlds build their nodes through one path.

Node ``k`` of ``ShrimpCluster(spec.cluster_config())`` and node ``k`` of
a :class:`~repro.sharding.shard.Shard` come out of the same
:func:`repro.cluster.build_node`, so they are configured identically.
"""

import pytest

from repro import ShrimpCluster
from repro.sharding import ClusterSpec, Shard, ShardSpec, probe_canonical_frames


@pytest.mark.parametrize("iommu", [False, True])
def test_cluster_and_shard_nodes_are_configured_alike(iommu):
    spec = ClusterSpec(num_nodes=4, topology="linear", iommu=iommu)
    cluster = ShrimpCluster(spec.cluster_config())
    shard = Shard(
        spec,
        ShardSpec(
            index=1, num_shards=2, nodes=(2, 3),
            rx_frames=probe_canonical_frames(spec),
        ),
    )
    for k in (2, 3):
        rt = shard.runtimes[k]
        machine, nic = cluster.node(k), cluster.nic(k)
        # obs is each world's own plane; everything else is shared
        assert rt.machine.config.replace(obs=None) == machine.config.replace(obs=None)
        assert rt.nic.nipt.num_entries == nic.nipt.num_entries == spec.nipt_entries
        assert rt.nic.cut_through == nic.cut_through
        assert (rt.machine.iommu is None) == (machine.iommu is None) == (not iommu)


def test_shard_ring_channel_is_installed_through_the_allocator():
    spec = ClusterSpec(num_nodes=4, topology="linear", channel_pages=2)
    shard = Shard(spec, ShardSpec(index=0, num_shards=1, nodes=(0, 1, 2, 3)))
    for rt in shard.runtimes.values():
        assert [i for i, _ in rt.nic.nipt.entries()] == [0, 1]
        assert rt.nic.nipt._free == [(2, spec.nipt_entries - 2)]


def test_shard_backplane_refuses_a_fault_injector_when_assigned():
    """Misuse fails at the assignment, naming the item that lifts it,
    not at the first routed packet."""
    from repro.errors import ConfigurationError
    from repro.net.faults import FaultPlan

    spec = ClusterSpec(num_nodes=2, topology="linear")
    shard = Shard(spec, ShardSpec(index=0, num_shards=1, nodes=(0, 1)))
    interconnect = shard.interconnect
    with pytest.raises(ConfigurationError, match="ROADMAP item 4"):
        interconnect.fault_injector = lambda wire: wire
    with pytest.raises(ConfigurationError, match="ROADMAP item 4"):
        FaultPlan(interconnect)
    interconnect.fault_injector = None  # clearing it is no misuse
    assert interconnect.fault_injector is None
