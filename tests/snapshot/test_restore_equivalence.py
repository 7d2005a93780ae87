"""The restore-equivalence gate, across every chaos feature combination.

One schedule, two executions: uninterrupted, and snapshotted at step *k*
then restored and finished.  Every observable -- outcome log, curated
counters, memory and VM digests, protection faults, NIPT state -- must
be bit-identical.  Profiles cover all three protection backends, the
reliable transport, the IOMMU tier, channel churn, both planted-bug
kernels, and the sharded engine at 1 and 4 shards.
"""

from __future__ import annotations

import pytest

from repro.chaos import Action, generate_schedule
from repro.sharding import ClusterSpec, InProcessEngine
from repro.snapshot import restore, snapshot

from tests.snapshot._equiv import run_plain, run_snapshotted

#: (id, world kwargs, schedule profile, seed)
PROFILES = [
    ("single-default", dict(nodes=1), "default", 0),
    ("cluster-default", dict(nodes=2), "default", 1),
    ("cluster-3node", dict(nodes=3), "default", 2),
    ("churn-proxy", dict(nodes=2), "churn", 3),
    ("churn-captable", dict(nodes=2, protection="captable"), "churn", 4),
    ("churn-handler", dict(nodes=2, protection="handler"), "churn", 5),
    ("reliability", dict(nodes=2, reliability=True), "default", 6),
    ("paging-iommu", dict(nodes=2, iommu=True), "paging", 7),
    (
        "iommu-reliability",
        dict(nodes=2, iommu=True, reliability=True),
        "paging",
        8,
    ),
    ("break-no-inval", dict(nodes=2, break_mode="no-inval"), "default", 9),
    ("break-stale-xlat", dict(nodes=2, break_mode="stale-xlat"), "churn", 10),
]

STEPS = 40


@pytest.mark.parametrize(
    "world_kwargs, profile, seed",
    [p[1:] for p in PROFILES],
    ids=[p[0] for p in PROFILES],
)
def test_restore_equivalence(world_kwargs, profile, seed):
    actions = generate_schedule(seed, STEPS, profile=profile)
    plain = run_plain(actions, **world_kwargs)
    for k in (1, STEPS // 3, STEPS // 2, STEPS - 1):
        assert run_snapshotted(actions, k, **world_kwargs) == plain, (
            f"restored-at-{k} run diverged from the uninterrupted run"
        )


def test_double_snapshot_equivalence():
    """Snapshotting twice along one run changes nothing either."""
    actions = generate_schedule(12, STEPS)
    plain = run_plain(actions, nodes=2)
    once = run_snapshotted(actions, 10, nodes=2)
    assert once == plain
    # snapshot at 10, restore, then again at 25 via a fresh helper pass
    # over the restored world's remaining tail
    from repro.chaos import ChaosWorld

    world = ChaosWorld(nodes=2)
    log = [world.apply(a) for a in actions[:10]]
    world = restore(snapshot(world))
    log += [world.apply(a) for a in actions[10:25]]
    world = restore(snapshot(world))
    log += [world.apply(a) for a in actions[25:]]
    world.settle()
    from tests.snapshot._equiv import observe

    assert observe(world, log) == plain


#: a reorder holds node 0's first packet across steps 1-2 (released by
#: the step-3 send) and node 1's across the end of the schedule (released
#: by the final settle)
HELD = [
    Action("reorder", node=0),
    Action("send", node=0, size=100, arg=1),
    Action("stall", size=4000),
    Action("send", node=0, page=5, size=200, arg=1),
    Action("recv", node=0, size=300),
    Action("reorder", node=1),
    Action("send", node=1, size=50, arg=1),
    Action("stall", size=4000),
]


def test_restore_while_a_reorder_holds_a_packet():
    """A checkpoint taken while the fault plan holds a packet restores
    the held packet, and the restored run releases it exactly as the
    uninterrupted run does."""
    from repro.chaos import ChaosWorld

    plain = run_plain(HELD, nodes=2)
    for k in (2, len(HELD)):
        world = ChaosWorld(nodes=2)
        for action in HELD[:k]:
            world.apply(action)
        assert world.faults.held, f"nothing held at step {k}"
        assert run_snapshotted(HELD, k, nodes=2) == plain, (
            f"restored-at-{k} run diverged from the uninterrupted run"
        )


# ------------------------------------------------------------ sharded runs
def _shard_observation(result) -> tuple:
    return (result.logs, result.digests, result.curated_counters(), result.now)


@pytest.mark.parametrize("shards", [1, 4])
def test_sharded_engine_restore_equivalence(shards):
    """Snapshot the conservative-PDES engine mid-flight; finish restored.

    At 4 shards the snapshot lands with cross-shard packets and pending
    events genuinely in flight, and with some nodes already holding a
    fast-lane send plan (both asserted); the single shard drains in its
    first ``run_until_blocked``, so its snapshot covers the
    constructed-but-unrun state instead.
    """
    spec = ClusterSpec(num_nodes=16, messages_per_node=4)
    reference = InProcessEngine(spec, num_shards=shards).run()

    engine = InProcessEngine(spec, num_shards=shards)
    if shards > 1:
        for shard in engine.shards:
            shard.run_until_blocked()
        runtimes = [rt for s in engine.shards for rt in s.runtimes.values()]
        assert sum(rt.clock.pending() for rt in runtimes) > 0, (
            "snapshot must land mid-flight"
        )
        assert any(
            plan is not None
            for rt in runtimes
            for plan in rt.sender._plan_memo.values()
        ), (
            "snapshot must carry a send-plan handle"
        )
    restored = restore(snapshot(engine))
    assert _shard_observation(restored.run()) == _shard_observation(reference)


def test_sharded_engine_metrics_live_after_restore():
    spec = ClusterSpec(num_nodes=16, messages_per_node=2)
    engine = InProcessEngine(spec, num_shards=4)
    restored = restore(snapshot(engine))
    restored.run()
    for shard in restored.shards:
        reading = shard.obs.registry.snapshot()
        assert reading[f"shard{shard.shard_spec.index}.ops_executed"] > 0
