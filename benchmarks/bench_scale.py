"""Scale benchmarks: the traffic engine at 10^6 messages per run.

Each scenario drives :func:`repro.traffic.run_scenario` -- a seeded
pattern (incast, all-to-all, uniform, hotspot) over N nodes x M tenants
-- and records host-side messages/s and MB/s.  The gated scenarios also
run a *disabled* pass (reference mode: no host fast path) so the
committed baseline carries the measured fast-lane speedup, not a claimed
one.

Everything simulated (cycles, events, deliveries, counters) is a pure
function of the scenario parameters; only ``host_seconds`` and the rates
derived from it vary between machines.  ``run_bench.py --scale`` wraps
this module with the JSON/gate plumbing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.traffic import run_scenario


@dataclass
class ScaleResult:
    """One scenario's enabled run plus its optional disabled baseline."""

    enabled: dict
    disabled: Optional[dict] = None

    @property
    def speedup(self) -> Optional[float]:
        if self.disabled is None:
            return None
        slow = self.disabled["messages_per_sec"]
        return self.enabled["messages_per_sec"] / slow if slow else None

    def as_dict(self) -> dict:
        out = {"enabled": self.enabled}
        if self.disabled is not None:
            out["disabled"] = self.disabled
            out["speedup"] = self.speedup
        return out


@dataclass
class ScaleSpec:
    """A registered scale scenario: shared kwargs + full/quick overrides."""

    name: str
    kwargs: dict
    full: dict
    quick: dict
    baseline: bool = True  # also measure in reference mode
    tags: List[str] = field(default_factory=list)

    def build_kwargs(self, quick: bool) -> dict:
        merged = dict(self.kwargs)
        merged.update(self.quick if quick else self.full)
        return merged


SCALE_SCENARIOS: "Dict[str, ScaleSpec]" = {}


def _register(spec: ScaleSpec) -> None:
    SCALE_SCENARIOS[spec.name] = spec


# The two gated million-message collectives.  Single-tenant, because a
# second tenant forces a context switch per send, which invalidates the
# TLB and turns every message down the slow path -- realistic, but a
# different experiment (the multi-tenant scenarios below cover it).
_register(ScaleSpec(
    name="incast_64x1",
    kwargs={"pattern": "incast", "num_nodes": 64, "tenants_per_node": 1,
            "msg_bytes": 512, "seed": 7, "gap_cycles": 96_000},
    full={"messages": 1_000_000},
    quick={"messages": 20_000},
    tags=["gated", "million"],
))
_register(ScaleSpec(
    name="all_to_all_32x1",
    kwargs={"pattern": "all_to_all", "num_nodes": 32, "tenants_per_node": 1,
            "msg_bytes": 512, "seed": 7, "gap_cycles": 4_000},
    full={"messages": 1_000_000},
    quick={"messages": 20_000},
    tags=["gated", "million"],
))
# NIPT-pressure extras: multi-tenant placements with channel churn, so
# the NIC page table cycles through its free list under eviction.  Not
# baselined (the fast lane is mostly cold here by design) but recorded,
# so capacity/eviction behaviour has a committed trajectory too.
_register(ScaleSpec(
    name="uniform_16x4_churn",
    kwargs={"pattern": "uniform", "num_nodes": 16, "tenants_per_node": 4,
            "msg_bytes": 512, "seed": 11, "degree": 4, "gap_cycles": 8_000,
            "churn_every": 200},
    full={"messages": 120_000},
    quick={"messages": 6_000},
    baseline=False,
    tags=["tenants", "churn"],
))
_register(ScaleSpec(
    name="hotspot_32x2",
    kwargs={"pattern": "hotspot", "num_nodes": 32, "tenants_per_node": 2,
            "msg_bytes": 512, "seed": 13, "degree": 6, "hot_permille": 400,
            "gap_cycles": 24_000},
    full={"messages": 120_000},
    quick={"messages": 6_000},
    baseline=False,
    tags=["tenants"],
))


def run_scale_scenario(
    spec: ScaleSpec, quick: bool = False, baseline: Optional[bool] = None
) -> ScaleResult:
    """Run one spec (enabled, and its disabled baseline when requested)."""
    kwargs = spec.build_kwargs(quick)
    want_baseline = spec.baseline if baseline is None else baseline
    enabled = run_scenario(spec.name, **kwargs).as_dict()
    disabled = None
    if want_baseline:
        disabled = run_scenario(spec.name, reference=True, **kwargs).as_dict()
    return ScaleResult(enabled=enabled, disabled=disabled)


def run_scale(
    quick: bool = False,
    names: Optional[List[str]] = None,
    baseline: Optional[bool] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> "Dict[str, ScaleResult]":
    """Run the registered scale scenarios (all, or a named subset).

    No best-of-N here: a million-message pass is long enough that the
    rate is its own average, and re-running it triples an already long
    wall-clock.  The gate's tolerance absorbs the residual noise.
    """
    results: "Dict[str, ScaleResult]" = {}
    for name, spec in SCALE_SCENARIOS.items():
        if names is not None and name not in names:
            continue
        if progress is not None:
            progress(f"scale: {name} ...")
        t0 = time.perf_counter()
        results[name] = run_scale_scenario(spec, quick=quick, baseline=baseline)
        if progress is not None:
            progress(f"scale: {name} done in {time.perf_counter() - t0:.1f}s")
    return results


def check_identity(results: "Dict[str, ScaleResult]") -> List[str]:
    """Cross-check: enabled vs disabled simulated outcomes must match.

    The fast lane's contract is host-only speed; any divergence in
    simulated cycles, events or deliveries is a correctness bug, so the
    bench refuses to report a speedup over a different simulation.  The
    translation-cache hit rate is a host statistic (reference mode has no
    cache), so it is not compared.
    """
    failures = []
    keys = ("sim_cycles", "events", "messages", "delivered", "retries",
            "churns")
    for name, result in results.items():
        if result.disabled is None:
            continue
        for key in keys:
            a, b = result.enabled[key], result.disabled[key]
            if a != b:
                failures.append(
                    f"{name}: {key} diverged with fast lane off "
                    f"(enabled {a!r} != disabled {b!r})"
                )
    return failures


def format_scale(results: "Dict[str, ScaleResult]") -> str:
    header = (
        f"{'scenario':<20} {'nodes':>5} {'ten':>3} {'messages':>9} "
        f"{'retries':>8} {'xlat%':>6} {'msg/s':>10} {'MB/s':>8} {'speedup':>8}"
    )
    lines = [header, "-" * len(header)]
    for name, result in results.items():
        e = result.enabled
        speedup = result.speedup
        tail = f"{speedup:>7.2f}x" if speedup is not None else f"{'--':>8}"
        lines.append(
            f"{name:<20} {e['num_nodes']:>5} {e['tenants_per_node']:>3} "
            f"{e['messages']:>9} {e['retries']:>8} "
            f"{e['xlat_hit_rate'] * 100:>5.1f}% "
            f"{e['messages_per_sec']:>10.0f} {e['host_mb_per_sec']:>8.2f} "
            + tail
        )
    return "\n".join(lines)
