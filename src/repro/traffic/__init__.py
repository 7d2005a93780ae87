"""Synthetic traffic models for the SHRIMP cluster.

The paper evaluates UDMA with microbenchmarks (Figures 7-9: latency and
bandwidth of back-to-back transfers).  This package scales that style of
measurement to *cluster workloads*: seeded traffic patterns (uniform,
hotspot, incast, all-to-all collective), multi-tenant process placement
that stresses NIPT capacity and channel eviction, and an event-driven
engine that pushes millions of messages through the per-message hot path
without ever coasting the clock from inside a callback.

Everything is deterministic: patterns draw from an explicit xorshift64*
stream (never the ``random`` module), so a scenario replays bit-identically
across runs, in or out of reference mode, and across hosts -- which is
what lets ``BENCH_scale.json`` gate host throughput on a fixed workload.
"""

from repro.traffic.engine import TrafficEngine, TrafficResult, run_scenario
from repro.traffic.generators import (
    AllToAllTraffic,
    HotspotTraffic,
    IncastTraffic,
    TrafficPattern,
    UniformTraffic,
    Xorshift,
    make_pattern,
)
from repro.traffic.tenants import TenantPlacement

__all__ = [
    "AllToAllTraffic",
    "HotspotTraffic",
    "IncastTraffic",
    "TenantPlacement",
    "TrafficEngine",
    "TrafficPattern",
    "TrafficResult",
    "UniformTraffic",
    "Xorshift",
    "make_pattern",
    "run_scenario",
]
