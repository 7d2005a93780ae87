"""Traffic engine: delivery integrity, determinism, churn, flow control."""

import pytest

from repro.errors import ConfigurationError
from repro.traffic import TenantPlacement, TrafficEngine, make_pattern, run_scenario
from repro.config import ClusterConfig


def test_incast_delivers_every_message():
    result = run_scenario(
        "t", "incast", num_nodes=6, messages=300, msg_bytes=256, seed=4,
        gap_cycles=2000,
    )
    assert result.messages == 300
    assert result.delivered == 300
    assert result.pattern == "incast"


def test_all_to_all_delivers_every_message():
    result = run_scenario(
        "t", "all_to_all", num_nodes=5, messages=400, msg_bytes=128, seed=1,
        gap_cycles=1500,
    )
    assert result.messages == result.delivered == 400


def test_simulated_results_replay_bit_identically():
    kwargs = dict(
        pattern="uniform", num_nodes=8, messages=250, msg_bytes=512,
        seed=77, gap_cycles=1800, degree=3,
    )
    a = run_scenario("t", **kwargs).as_dict()
    b = run_scenario("t", **kwargs).as_dict()
    for key in ("sim_cycles", "events", "messages", "delivered", "retries",
                "xlat_hit_rate"):
        assert a[key] == b[key], key


def test_seed_changes_the_schedule():
    kwargs = dict(
        pattern="uniform", num_nodes=8, messages=200, msg_bytes=512,
        gap_cycles=1800, degree=3,
    )
    a = run_scenario("t", seed=1, **kwargs)
    b = run_scenario("t", seed=2, **kwargs)
    assert (a.sim_cycles, a.events) != (b.sim_cycles, b.events)


def test_multi_tenant_placement_delivers():
    result = run_scenario(
        "t", "uniform", num_nodes=4, tenants_per_node=3, messages=240,
        msg_bytes=256, seed=2, gap_cycles=2500, degree=2,
    )
    assert result.tenants_per_node == 3
    assert result.messages == result.delivered == 240


def test_churn_rebuilds_channels_and_still_delivers():
    result = run_scenario(
        "t", "incast", num_nodes=4, messages=120, msg_bytes=256, seed=3,
        gap_cycles=2500, churn_every=10,
    )
    assert result.churns > 0
    assert result.messages == result.delivered == 120


def test_tight_incast_backs_off_instead_of_overflowing():
    # 7 senders at a gap far below the sink's per-packet receive time:
    # without credit-style backpressure the sink FIFO would overflow.
    result = run_scenario(
        "t", "incast", num_nodes=8, messages=400, msg_bytes=512, seed=5,
        gap_cycles=300,
    )
    assert result.retries > 0
    assert result.messages == result.delivered == 400


def test_quota_splits_across_drivers():
    pattern = make_pattern("all_to_all", 4, seed=0)
    placement = TenantPlacement(pattern, tenants_per_node=2)
    from repro.cluster import ShrimpCluster

    cluster = ShrimpCluster(
                  config=ClusterConfig(
                      num_nodes=4,
                      mem_size=1 << 22,
                      nipt_entries=16,
                  ),
              )
    engine = TrafficEngine(cluster, placement, messages=21, msg_bytes=64)
    quotas = [d.quota for d in engine._drivers]
    assert sum(quotas) == 21
    assert max(quotas) - min(quotas) <= 1


def test_rejects_bad_parameters():
    pattern = make_pattern("incast", 4)
    placement = TenantPlacement(pattern)
    from repro.cluster import ShrimpCluster

    cluster = ShrimpCluster(
                  config=ClusterConfig(
                      num_nodes=4,
                      mem_size=1 << 22,
                      nipt_entries=16,
                  ),
              )
    with pytest.raises(ConfigurationError, match="messages"):
        TrafficEngine(cluster, placement, messages=0)
    with pytest.raises(ConfigurationError, match="multiple of 4"):
        TrafficEngine(cluster, placement, messages=10, msg_bytes=6)
    with pytest.raises(ConfigurationError, match="exceeds"):
        TrafficEngine(cluster, placement, messages=10, msg_bytes=8192)


def test_nipt_sized_to_demand_forces_reuse():
    # Channel churn must cycle NIPT entries through the free list: the
    # NIC page table is sized exactly to the pattern's demand, so churn
    # only works if released entries really are reusable.
    result = run_scenario(
        "t", "all_to_all", num_nodes=4, messages=90, msg_bytes=128, seed=6,
        gap_cycles=2500, churn_every=5,
    )
    assert result.churns >= 10
    assert result.messages == result.delivered == 90


def test_switched_churn_sends_take_the_fast_lane(monkeypatch):
    """Two tenants per sender node: most sends context-switch first.  The
    switch invalidates no translation, so a switched attempt still
    resolves its plan and mostly starts through ``_fast_send``.  A plan is
    built at most once per attempt, and a build that fails (cold
    translations) always leaves its attempt on the slow path."""
    from repro.userlib.messaging import Sender
    from repro.userlib.udma import UdmaUser

    counts = {"attempts": 0, "switched": 0, "switched_fast": 0, "fast": 0,
              "builds": 0, "failed_builds": 0}
    state = {"switching": False}
    try_send, build_plan = Sender.try_send, UdmaUser._build_plan
    fast_send = UdmaUser._fast_send

    def counted_try_send(self, *args, **kwargs):
        counts["attempts"] += 1
        state["switching"] = self.machine.kernel.current is not self.process
        counts["switched"] += state["switching"]
        return try_send(self, *args, **kwargs)

    def counted_fast_send(self, *args, **kwargs):
        ok = fast_send(self, *args, **kwargs)
        counts["fast"] += ok
        counts["switched_fast"] += ok and state["switching"]
        return ok

    def counted_build_plan(self, *args, **kwargs):
        counts["builds"] += 1
        plan = build_plan(self, *args, **kwargs)
        counts["failed_builds"] += plan is None
        return plan

    monkeypatch.setattr(Sender, "try_send", counted_try_send)
    monkeypatch.setattr(UdmaUser, "_fast_send", counted_fast_send)
    monkeypatch.setattr(UdmaUser, "_build_plan", counted_build_plan)
    result = run_scenario(
        "t", "incast", num_nodes=3, tenants_per_node=2, messages=80,
        msg_bytes=256, seed=3, gap_cycles=2500, churn_every=10,
    )
    assert result.churns > 0
    assert result.messages == result.delivered == 80
    assert counts["attempts"] >= 80
    assert counts["switched"] > counts["attempts"] // 2
    assert counts["switched_fast"] > counts["switched"] // 2
    assert counts["builds"] <= counts["attempts"]
    assert 0 < counts["failed_builds"] <= counts["attempts"] - counts["fast"]


def test_multi_tenant_fast_lane_matches_reference():
    """Context switches keep the fast lane on: the default run serves most
    translations from the cache and simulates exactly what the reference
    run (every host fast path off) does."""
    kwargs = dict(
        pattern="incast", num_nodes=4, tenants_per_node=2, messages=300,
        msg_bytes=256, seed=5, gap_cycles=2500, churn_every=10,
    )
    fast = run_scenario("t", **kwargs)
    ref = run_scenario("t", reference=True, **kwargs)
    fields = ("sim_cycles", "events", "delivered", "retries", "churns")
    assert fast.churns > 0
    assert {f: getattr(fast, f) for f in fields} == {
        f: getattr(ref, f) for f in fields
    }
    assert fast.xlat_hit_rate > 0.5
