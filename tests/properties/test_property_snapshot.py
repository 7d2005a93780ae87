"""Property-based restore-equivalence: random schedules, random cut points.

Hypothesis picks a chaos schedule, a snapshot step, and a feature
combination; the snapshotted-and-restored run must be observably
identical to the uninterrupted one.  Separate properties hold the
contract on the sharded engine (1 and 4 shards) and on pooled vs
unpooled clocks, where recycled event/packet objects make serialisation
hardest.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import ClusterConfig, ShrimpCluster
from repro.bench.workloads import make_payload
from repro.chaos import generate_schedule
from repro.sharding import ClusterSpec, InProcessEngine
from repro.snapshot import restore, snapshot
from repro.userlib import Sender

from tests.snapshot._equiv import run_plain, run_snapshotted

_worlds = st.sampled_from([
    dict(nodes=1),
    dict(nodes=2),
    dict(nodes=2, reliability=True),
    dict(nodes=2, protection="captable"),
    dict(nodes=2, protection="handler"),
    dict(nodes=2, iommu=True),
])

_profiles = st.sampled_from(["default", "churn", "paging"])


@given(
    seed=st.integers(0, 2**16),
    steps=st.integers(8, 24),
    cut=st.integers(1, 23),
    world_kwargs=_worlds,
    profile=_profiles,
)
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_schedule_snapshot_restore_equivalence(
    seed, steps, cut, world_kwargs, profile
):
    """snapshot-at-k + restore + finish == never interrupted, always."""
    if world_kwargs.get("iommu"):
        profile = "paging"  # wire faults belong to the reliability tier
    actions = generate_schedule(seed, steps, profile=profile)
    k = min(cut, steps - 1)
    assert run_snapshotted(actions, k, **world_kwargs) == run_plain(
        actions, **world_kwargs
    )


@given(
    shards=st.sampled_from([1, 4]),
    messages=st.integers(1, 4),
    head_starts=st.integers(0, 3),
)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_sharded_engine_snapshot_restore_equivalence(
    shards, messages, head_starts
):
    """The conservative-PDES engine restores mid-flight at any shard count."""
    spec = ClusterSpec(num_nodes=16, messages_per_node=messages)
    reference = InProcessEngine(spec, num_shards=shards).run()

    engine = InProcessEngine(spec, num_shards=shards)
    for i in range(min(head_starts, len(engine.shards))):
        engine.shards[i].run_until_blocked()
    result = restore(snapshot(engine)).run()
    assert result.logs == reference.logs
    assert result.digests == reference.digests
    assert result.curated_counters() == reference.curated_counters()
    assert result.now == reference.now


@given(
    pooling=st.booleans(),
    rounds_before=st.integers(0, 3),
    rounds_after=st.integers(1, 3),
)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_pingpong_snapshot_equivalence_pooling_on_off(
    pooling, rounds_before, rounds_after
):
    """Recycled (pooled) and fresh event/packet objects restore alike."""
    msg = 1024

    def build():
        cluster = ShrimpCluster(
            config=ClusterConfig(
                num_nodes=2, mem_size=1 << 19, pooling=pooling
            )
        )
        procs = [cluster.node(i).create_process(f"p{i}") for i in range(2)]
        bufs = [
            cluster.node(i).kernel.syscalls.alloc(procs[i], msg)
            for i in range(2)
        ]
        ch01 = cluster.create_channel(0, 1, procs[1], bufs[1], msg)
        ch10 = cluster.create_channel(1, 0, procs[0], bufs[0], msg)
        senders = [
            Sender(cluster, procs[0], ch01),
            Sender(cluster, procs[1], ch10),
        ]
        for sender in senders:
            sender._ensure_current()
            sender.machine.cpu.write_bytes(sender.buffer, make_payload(msg))
        cluster.run_until_idle()
        return cluster, senders

    def rally(state, rounds):
        cluster, senders = state
        for _ in range(rounds):
            senders[0].send_buffer(msg)
            cluster.run_until_idle()
            senders[1].send_buffer(msg)
            cluster.run_until_idle()

    plain = build()
    rally(plain, rounds_before + rounds_after)

    snapped = build()
    rally(snapped, rounds_before)
    twin = restore(snapshot(snapped))
    rally(twin, rounds_after)

    assert twin[0].now == plain[0].now
    assert twin[0].clock.events_fired == plain[0].clock.events_fired
    for i in range(2):
        twin_ram, plain_ram = twin[0].node(i).physmem, plain[0].node(i).physmem
        assert twin_ram.read(0, twin_ram.size) == plain_ram.read(0, plain_ram.size)
    assert twin[0].obs.registry.snapshot() == plain[0].obs.registry.snapshot()
