"""Tests for the sharded-cluster specification layer."""

from dataclasses import fields

import pytest

from repro.config import ClusterConfig
from repro.errors import ConfigurationError
from repro.params import shrimp
from repro.sharding.spec import ClusterSpec, ShardSpec, partition


class TestClusterSpec:
    def test_defaults_are_valid(self):
        spec = ClusterSpec()
        assert spec.num_nodes == 64
        assert spec.topology == "mesh2d"

    def test_rejects_single_node(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(num_nodes=1)

    def test_rejects_multi_page_messages(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(msg_bytes=shrimp().page_size + 4)

    def test_rejects_unaligned_messages(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(msg_bytes=1023)

    def test_cluster_config_carries_every_shared_field(self):
        # One non-default value per field the two configs share: a new
        # shared field fails here until the projection carries it.
        values = dict(
            num_nodes=16, topology="torus2d", mesh_width=8,
            mem_size=64 * 4096, nipt_entries=32, reference=True, iommu=True,
        )
        shared = {f.name for f in fields(ClusterSpec)} & {
            f.name for f in fields(ClusterConfig)
        }
        assert set(values) == shared
        config = ClusterSpec(**values).cluster_config()
        for name in sorted(shared):
            assert getattr(config, name) == values[name], name
            assert getattr(ClusterConfig(), name) != values[name], name

    def test_round_trips_through_dict(self):
        spec = ClusterSpec(num_nodes=16, seed=7, topology="torus2d")
        assert ClusterSpec.from_dict(spec.as_dict()) == spec

    def test_start_offsets_vary_with_seed(self):
        a = ClusterSpec(num_nodes=16, seed=0)
        b = ClusterSpec(num_nodes=16, seed=1)
        offsets_a = [a.start_offset(n) for n in range(16)]
        offsets_b = [b.start_offset(n) for n in range(16)]
        assert offsets_a != offsets_b

    def test_ring_links_cover_every_node(self):
        spec = ClusterSpec(num_nodes=9, topology="mesh2d")
        links = spec.links()
        assert len(links) == 9
        assert (8, 0) in links  # the ring wraps

    def test_lookahead_is_hops_times_hop_cycles(self):
        costs = shrimp()
        spec = ClusterSpec(num_nodes=9, topology="mesh2d")
        lookaheads = spec.lookaheads(costs)
        # 2 -> 3 on a 3x3 mesh: (2,0) -> (0,1) is 3 hops.
        assert lookaheads[(2, 3)] == 3 * costs.hop_cycles
        # 8 -> 0: (2,2) -> (0,0) is 4 hops.
        assert lookaheads[(8, 0)] == 4 * costs.hop_cycles

    def test_lookahead_rejects_ragged_topology(self):
        spec = ClusterSpec(num_nodes=6, topology="mesh2d")  # not square
        with pytest.raises(ConfigurationError):
            spec.lookaheads()


class TestPartition:
    def test_even_split(self):
        blocks = partition(8, 4)
        assert blocks == [(0, 1), (2, 3), (4, 5), (6, 7)]

    def test_uneven_split_front_loads_the_extra(self):
        blocks = partition(10, 4)
        assert [len(b) for b in blocks] == [3, 3, 2, 2]
        assert blocks[0] == (0, 1, 2)

    def test_blocks_are_contiguous_and_complete(self):
        blocks = partition(64, 7)
        flat = [n for block in blocks for n in block]
        assert flat == list(range(64))

    def test_single_shard_owns_everything(self):
        assert partition(5, 1) == [(0, 1, 2, 3, 4)]

    def test_rejects_more_shards_than_nodes(self):
        with pytest.raises(ConfigurationError):
            partition(4, 5)

    def test_rejects_zero_shards(self):
        with pytest.raises(ConfigurationError):
            partition(4, 0)


class TestShardSpec:
    def test_carries_canonical_frames(self):
        shard = ShardSpec(index=0, num_shards=2, nodes=(0, 1), rx_frames=(3,))
        assert shard.rx_frames == (3,)
