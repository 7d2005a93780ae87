"""Property: reference mode never changes the simulation.

``reference=True`` turns off every host fast path -- the translation
cache, page-run bulk I/O, the event free list, the packet pool and
send-plan pipelining.  The contract is that every simulated artefact --
audit logs, per-node memory digests, curated counters, cycles -- is
bit-identical either way, for *any* seeded workload.  Translation-cache
hit/miss counts are host statistics and are not compared.  Two
generators stress that claim:

* sharded schedules through the chaos ``shards`` twin, whose reference
  variant is a 1-shard run in reference mode (audit logs + digests +
  counters, the same three surfaces CI's differential checks);
* single-clock traffic-engine scenarios across all four patterns,
  including multi-tenant placements and channel churn.
"""

import hashlib

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.chaos import run_chaos
from repro.cluster import ShrimpCluster
from repro.sharding import ClusterSpec
from repro.traffic import TenantPlacement, TrafficEngine, make_pattern
from repro.config import ClusterConfig


@given(
    num_nodes=st.sampled_from([4, 9, 16]),
    seed=st.integers(0, 1_000_000),
    messages=st.integers(1, 6),
    gap=st.sampled_from([200, 2000, 6000]),
    shards=st.sampled_from([1, 2, 4]),
)
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_sharded_reference_differential(num_nodes, seed, messages, gap, shards):
    """Reference-mode 1-shard and default K-shard runs are bit-identical
    on audit logs, memory digests and curated counters."""
    spec = ClusterSpec(
        num_nodes=num_nodes, topology="mesh2d", seed=seed,
        messages_per_node=messages, gap_cycles=gap,
    )
    report = run_chaos(oracles=("shards",), spec=spec, shards=shards)
    assert report.ok, report.summary()


def _run_traffic(pattern_name, num_nodes, tenants, messages, seed,
                 churn_every, reference):
    """One seeded traffic scenario; returns (result dict, digests)."""
    pattern = make_pattern(pattern_name, num_nodes, seed=seed)
    placement = TenantPlacement(pattern, tenants_per_node=tenants)
    pages = max(
        placement.required_pages(node) for node in range(num_nodes)
    )
    churn_pages = tenants * messages if churn_every else 0
    cluster = ShrimpCluster(
                  config=ClusterConfig(
                      num_nodes=num_nodes,
                      mem_size=(pages + churn_pages + 64) * 4096,
                      nipt_entries=max(
                                  8, max(placement.nipt_demand(n) for n in range(num_nodes))
                              ),
                      reference=reference,
                  ),
              )
    engine = TrafficEngine(
        cluster, placement, messages=messages, msg_bytes=256,
        gap_cycles=1500, churn_every=churn_every,
    )
    result = engine.run()
    digests = {}
    for i in range(num_nodes):
        machine = cluster.node(i)
        h = hashlib.blake2b(digest_size=16)
        h.update(machine.physmem.view(0, machine.physmem.size))
        digests[f"n{i}"] = h.hexdigest()
    counters = {}
    for i in range(num_nodes):
        cpu = cluster.node(i).cpu
        nic = cluster.nic(i)
        counters[f"n{i}.instructions"] = cpu.instructions
        counters[f"n{i}.loads"] = cpu.loads
        counters[f"n{i}.stores"] = cpu.stores
        counters[f"n{i}.rx"] = nic.packets_received
    counters["net.routed"] = cluster.interconnect.packets_routed
    counters["net.bytes"] = cluster.interconnect.bytes_routed
    sim = {
        k: v for k, v in result.as_dict().items()
        if k not in ("reference", "xlat_hit_rate", "host_seconds",
                     "messages_per_sec", "host_mb_per_sec")
    }
    return sim, digests, counters


@given(
    pattern_name=st.sampled_from(
        ["uniform", "hotspot", "incast", "all_to_all"]
    ),
    num_nodes=st.integers(3, 6),
    tenants=st.integers(1, 2),
    messages=st.integers(1, 40),
    seed=st.integers(0, 1_000_000),
    churn_every=st.sampled_from([0, 7]),
)
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_traffic_reference_differential(pattern_name, num_nodes, tenants,
                                        messages, seed, churn_every):
    """Seeded traffic (any pattern, tenants, churn) simulates identically
    in reference mode or not: same cycles, counters, deliveries and
    per-node memory digests."""
    fast = _run_traffic(pattern_name, num_nodes, tenants, messages, seed,
                        churn_every, reference=False)
    slow = _run_traffic(pattern_name, num_nodes, tenants, messages, seed,
                        churn_every, reference=True)
    assert fast[0] == slow[0], "simulated results diverged"
    assert fast[1] == slow[1], "memory digests diverged"
    assert fast[2] == slow[2], "curated counters diverged"
