"""The sharding determinism contract.

The merged artefacts of a run -- per-node logs, memory digests, curated
counters -- must be a pure function of the :class:`ClusterSpec`:
identical at any shard count and under either engine.  These tests pin
that, plus the conservative machinery the contract rests on.
"""

import pytest

from repro.errors import ConfigurationError, DmaError
from repro.params import shrimp
from repro.sharding import (
    ClusterSpec,
    InProcessEngine,
    build_shards,
    probe_canonical_frames,
    run_sharded,
)
from repro.sharding.shard import STEP_KEY, Shard
from repro.sharding.spec import ShardSpec
from repro.sim.clock import ShardClock


def small_spec(**overrides):
    params = dict(
        num_nodes=9, topology="mesh2d", messages_per_node=3, seed=5
    )
    params.update(overrides)
    return ClusterSpec(**params)


class TestReferenceRun:
    def test_workload_drains(self):
        result = run_sharded(small_spec(), num_shards=1)
        assert result.sent == 9 * 3
        assert result.retries == 0
        assert result.events_fired > 0
        # One log line per step plus a summary line per node.
        assert len(result.logs) == 9 * (3 + 1)

    def test_every_message_is_received(self):
        result = run_sharded(small_spec(), num_shards=1)
        received = sum(
            v for k, v in result.counters.items() if k.endswith(".rx")
        )
        assert received == result.sent
        assert result.net_routed == result.sent

    def test_busy_device_retries_are_deterministic(self):
        spec = small_spec(gap_cycles=50)  # way below the transfer time
        a = run_sharded(spec, num_shards=1)
        b = run_sharded(spec, num_shards=1)
        assert a.retries > 0
        assert a.logs == b.logs
        assert a.digests == b.digests


class TestShardCountInvariance:
    @pytest.mark.parametrize("num_shards", [2, 3, 4, 9])
    def test_bit_identical_to_reference(self, num_shards):
        spec = small_spec()
        ref = run_sharded(spec, num_shards=1)
        sharded = run_sharded(spec, num_shards=num_shards)
        assert sharded.logs == ref.logs
        assert sharded.digests == ref.digests
        assert sharded.curated_counters() == ref.curated_counters()

    def test_identical_under_contention(self):
        spec = small_spec(gap_cycles=50)
        ref = run_sharded(spec, num_shards=1)
        sharded = run_sharded(spec, num_shards=3)
        assert ref.retries > 0
        assert sharded.logs == ref.logs
        assert sharded.digests == ref.digests

    def test_identical_on_torus(self):
        spec = small_spec(num_nodes=16, topology="torus2d")
        ref = run_sharded(spec, num_shards=1)
        sharded = run_sharded(spec, num_shards=4)
        assert sharded.logs == ref.logs
        assert sharded.digests == ref.digests

    @pytest.mark.parametrize("engine", ["in-process", "worker"])
    @pytest.mark.parametrize("num_nodes", [2, 3])
    def test_small_linear_rings(self, num_nodes, engine):
        """Rings small enough that a node's own handoffs move its bound.

        In the 2-node ring each node's destination is its in-link
        source, so a packet a node hands off mid-visit can lower that
        node's cached safe bound; the 3-node ring is the smallest ring
        where it cannot.
        """
        spec = small_spec(num_nodes=num_nodes, topology="linear")
        ref = run_sharded(spec, num_shards=1)
        for num_shards in range(2, num_nodes + 1):
            sharded = run_sharded(spec, num_shards=num_shards, engine=engine)
            assert sharded.logs == ref.logs
            assert sharded.digests == ref.digests
            assert sharded.curated_counters() == ref.curated_counters()

    def test_seed_changes_the_schedule(self):
        a = run_sharded(small_spec(seed=1), num_shards=1)
        b = run_sharded(small_spec(seed=2), num_shards=1)
        assert a.logs != b.logs


def _observed(result):
    return (
        result.logs,
        result.digests,
        result.curated_counters(),
        result.events_fired,
        result.now,
    )


class TestPlannedStep:
    """A workload step through the send plan equals the raw initiation."""

    @pytest.mark.parametrize("num_shards", [1, 2])
    @pytest.mark.parametrize(
        "overrides",
        [{}, {"iommu": True}, {"gap_cycles": 50}],
        ids=["plain", "iommu", "contention"],
    )
    def test_planned_equals_raw(self, overrides, num_shards):
        spec = small_spec(**overrides)
        planned = InProcessEngine(spec, num_shards=num_shards)
        raw = InProcessEngine(spec, num_shards=num_shards)
        for shard in raw.shards:
            for rt in shard.runtimes.values():
                rt.udma._pipelined = False
        planned_result = planned.run()
        raw_result = raw.run()
        if overrides.get("gap_cycles"):
            assert raw_result.retries > 0
        assert _observed(planned_result) == _observed(raw_result)
        # The planned run really took the fast lane; the raw one never did.
        # (IOMMU fault service can leave a node's proxy translations
        # stale for all of its few sends, so not every node gets a plan.)
        planned_rts = [rt for s in planned.shards for rt in s.runtimes.values()]
        raw_rts = [rt for s in raw.shards for rt in s.runtimes.values()]
        assert any(rt.plan is not None for rt in planned_rts)
        assert all(rt.plan is None for rt in raw_rts)

    def test_hard_error_names_the_node(self):
        engine = InProcessEngine(small_spec(num_nodes=4, topology="linear"), 1)
        rt = engine.shards[0].runtimes[2]
        rt.nic.nipt.clear_entry(0)  # the channel's only NIPT entry
        with pytest.raises(DmaError, match="node 2"):
            engine.run()


class TestAuditedRuns:
    def test_invariants_hold_at_every_op_boundary(self):
        spec = small_spec(num_nodes=4, topology="linear")
        result = run_sharded(spec, num_shards=2, audit=True)
        assert result.audits == result.ops_executed
        assert result.audits > 0

    def test_audit_does_not_perturb_the_run(self):
        spec = small_spec(num_nodes=4, topology="linear")
        plain = run_sharded(spec, num_shards=2)
        audited = run_sharded(spec, num_shards=2, audit=True)
        assert audited.logs == plain.logs
        assert audited.digests == plain.digests


class TestConservativeMachinery:
    def test_canonical_frames_are_probed_deterministically(self):
        spec = small_spec()
        assert probe_canonical_frames(spec) == probe_canonical_frames(spec)

    def test_frame_divergence_is_loud(self):
        spec = small_spec(num_nodes=4, topology="linear")
        with pytest.raises(ConfigurationError, match="canonical"):
            Shard(
                spec,
                ShardSpec(
                    index=0, num_shards=1, nodes=(0, 1, 2, 3),
                    rx_frames=(999,),
                ),
            )

    def test_unfed_cross_shard_link_blocks_execution(self):
        """A node whose only in-link is remote and unfed must not
        execute anything -- the bound defaults to zero, not infinity."""
        spec = small_spec(num_nodes=4, topology="linear")
        frames = probe_canonical_frames(spec)
        shard = Shard(
            spec,
            ShardSpec(index=2, num_shards=4, nodes=(2,), rx_frames=frames),
        )
        assert shard.run_until_blocked() is False
        assert shard.ops_executed == 0

    def test_null_message_unblocks_up_to_the_bound(self):
        spec = small_spec(num_nodes=4, topology="linear")
        frames = probe_canonical_frames(spec)
        shard = Shard(
            spec,
            ShardSpec(index=2, num_shards=4, nodes=(2,), rx_frames=frames),
        )
        shard.set_chan_bound(1, 2, 10**9)
        assert shard.run_until_blocked() is True
        assert shard.ops_executed > 0

    @pytest.mark.parametrize(
        "spec, num_shards",
        [
            (small_spec(num_nodes=2, topology="linear"), 1),
            (small_spec(num_nodes=2, topology="linear"), 2),
            (small_spec(num_nodes=3, topology="linear"), 2),
            (small_spec(gap_cycles=50), 3),
        ],
        ids=["ring2-1shard", "ring2-2shards", "ring3-2shards", "mesh9-contention"],
    )
    def test_every_operation_is_safe_under_the_live_bound(
        self, monkeypatch, spec, num_shards
    ):
        """The cached bound never lets an operation past the live one."""
        engine = InProcessEngine(spec, num_shards=num_shards)
        owner = {
            id(rt.clock): (shard, rt)
            for shard in engine.shards
            for rt in shard.runtimes.values()
        }
        checked = []
        fire_next = ShardClock.fire_next
        execute_step = Shard._execute_step

        def checked_fire(clock, head=None):
            shard, rt = owner[id(clock)]
            due, key = clock.head()[:2]
            live = shard.bound_for(rt)
            assert due < live or (due == live and key == ())
            checked.append("event")
            return fire_next(clock, head)

        def checked_step(shard, rt):
            step = max(rt.next_step, rt.clock.now)
            assert step < shard.bound_for(rt)
            checked.append("step")
            return execute_step(shard, rt)

        monkeypatch.setattr(ShardClock, "fire_next", checked_fire)
        monkeypatch.setattr(Shard, "_execute_step", checked_step)
        result = engine.run()
        assert len(checked) == result.ops_executed
        assert "step" in checked and "event" in checked

    def test_step_key_sorts_after_arrivals(self):
        # Same-cycle ordering: hardware events, then arrivals, then steps.
        assert () < (1, 0, 0) < STEP_KEY

    def test_engine_wires_live_bounds(self):
        engine = InProcessEngine(small_spec(), num_shards=3)
        for shard in engine.shards:
            assert shard.deliver_remote is not None
            assert shard.remote_bound is not None

    def test_lookahead_positive_on_every_link(self):
        costs = shrimp()
        for topology in ("linear", "mesh2d", "torus2d"):
            spec = small_spec(topology=topology)
            for value in spec.lookaheads(costs).values():
                assert value >= costs.hop_cycles


class TestShardObservability:
    def test_per_shard_metrics_roll_up(self):
        result = run_sharded(small_spec(), num_shards=3)
        assert "shard0.backplane.packets_routed" in result.metrics
        assert "shard2.ops_executed" in result.metrics
        # Node metrics live in their shard's registry, namespaced.
        assert any(k.startswith("node0.") for k in result.metrics)

    def test_merged_counters_are_node_keyed(self):
        result = run_sharded(small_spec(), num_shards=2)
        for node in range(9):
            assert f"n{node}.now" in result.counters
            assert f"nic{node}.rx" in result.counters
