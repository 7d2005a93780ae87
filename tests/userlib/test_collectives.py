"""Tests for collectives over deliberate-update channels."""

import pytest

from repro import ClusterConfig, ShrimpCluster
from repro.bench.workloads import make_payload
from repro.errors import ConfigurationError, DmaError
from repro.userlib.collectives import CollectiveGroup

PAGE = 4096


@pytest.fixture(scope="module")
def group():
    cluster = ShrimpCluster(
                  config=ClusterConfig(num_nodes=3, mem_size=1 << 21),
              )
    procs = [cluster.node(i).create_process(f"rank{i}") for i in range(3)]
    return CollectiveGroup(cluster, procs, slot_bytes=2 * PAGE)


class TestBroadcast:
    def test_all_members_receive_root_data(self, group):
        data = make_payload(1000, seed=7)
        copies = group.broadcast(0, data)
        assert copies == [data, data, data]

    def test_broadcast_from_nonzero_root(self, group):
        data = b"from rank 2"
        copies = group.broadcast(2, data)
        assert all(copy == data for copy in copies)

    def test_consecutive_broadcasts_do_not_mix(self, group):
        first = make_payload(256, seed=1)
        second = make_payload(256, seed=2)
        group.broadcast(0, first)
        copies = group.broadcast(0, second)
        assert copies == [second] * 3

    def test_bad_root_rejected(self, group):
        with pytest.raises(ConfigurationError):
            group.broadcast(9, b"x")

    def test_oversized_payload_rejected(self, group):
        with pytest.raises(DmaError):
            group.broadcast(0, bytes(group.slot_bytes + 1))


class TestGatherReduce:
    def test_gather_collects_in_rank_order(self, group):
        contributions = [f"rank-{i}".encode() for i in range(3)]
        gathered = group.gather(1, contributions)
        assert gathered == contributions

    def test_gather_requires_one_per_rank(self, group):
        with pytest.raises(ConfigurationError):
            group.gather(0, [b"only-one"])

    def test_reduce_sum(self, group):
        values = [[1, 2, 3], [10, 20, 30], [100, 200, 300]]
        assert group.reduce_sum(0, values) == [111, 222, 333]

    def test_reduce_sum_negative_values(self, group):
        values = [[-5, 7], [5, -7], [1, 1]]
        assert group.reduce_sum(2, values) == [1, 1]

    def test_reduce_requires_equal_widths(self, group):
        with pytest.raises(ConfigurationError):
            group.reduce_sum(0, [[1], [1, 2], [1]])


class TestBarrierAndRing:
    def test_barrier_completes(self, group):
        group.barrier()  # must simply not wedge or corrupt


class TestConstruction:
    def test_process_count_must_match(self):
        cluster = ShrimpCluster(
                      config=ClusterConfig(num_nodes=2, mem_size=1 << 20),
                  )
        p0 = cluster.node(0).create_process("p0")
        with pytest.raises(ConfigurationError):
            CollectiveGroup(cluster, [p0])

    def test_mesh_channel_count(self):
        cluster = ShrimpCluster(
                      config=ClusterConfig(num_nodes=3, mem_size=1 << 21),
                  )
        procs = [cluster.node(i).create_process(f"r{i}") for i in range(3)]
        group = CollectiveGroup(cluster, procs, slot_bytes=PAGE)
        assert len(group._senders) == 3 * 2  # full mesh
