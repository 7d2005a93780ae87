"""Bench integration: the shards section's cluster_mesh_64 sweep."""

import copy
import dataclasses
import os
import sys

_BENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "benchmarks",
)
if _BENCH not in sys.path:  # the bench package is not installed
    sys.path.insert(0, _BENCH)

from bench_host_throughput import (  # noqa: E402
    SCENARIOS,
    bench_cluster_mesh_64,
    format_payload,
    run,
    shard_counts,
    to_payload,
)
from run_bench import check, gated_rows  # noqa: E402


def _tiny_sweep(max_shards):
    spec = SCENARIOS[("shards", "cluster_mesh_64")]
    tiny = dataclasses.replace(
        spec,
        quick={"messages": 2},
        variants={str(n): {"shards": n} for n in shard_counts(max_shards)},
    )
    return to_payload(run([tiny], quick=True, repeats=1), quick=True)


class TestClusterMeshScenario:
    def test_registered_with_quick_workload(self):
        spec = SCENARIOS[("shards", "cluster_mesh_64")]
        assert spec.quick["messages"] < spec.full["messages"]
        # The in-process mesh is gated as e2ebench's ring, not twice.
        assert ("core", "cluster_mesh_64") not in SCENARIOS
        assert SCENARIOS[("core", "ring_64x2shard")].quick["workload"] == "ring_64x2shard"

    def test_counts_events_and_bytes(self):
        result = bench_cluster_mesh_64(messages=2)
        assert result.sim["events_fired"] > 0
        assert result.events_per_s > 0
        assert result.sim["messages"] == 64 * 2
        assert result.sim["sim_bytes"] == 64 * 2 * 2048
        assert result.sim["sim_cycles"] > 0

    def test_worker_variant_times_execution_only(self):
        result = bench_cluster_mesh_64(messages=2, shards=2)
        assert result.sim["events_fired"] > 0
        assert result.host_seconds > 0


class TestScalingSweep:
    def test_sweep_covers_powers_of_two(self):
        assert shard_counts(1) == [1]
        assert shard_counts(2) == [1, 2]
        assert shard_counts(6) == [1, 2, 4, 6]
        variants = SCENARIOS[("shards", "cluster_mesh_64")].variants
        assert [int(v) for v in variants] == shard_counts(os.cpu_count() or 1)
        payload = _tiny_sweep(2)
        rows = payload["sections"]["shards"]["cluster_mesh_64"]["variants"]
        assert sorted(rows) == ["1", "2"]
        # Identical workload at every point: every simulated field
        # matches, and the check holds the sweep to it.
        assert rows["1"]["sim"] == rows["2"]["sim"]
        assert check(payload, None) == ([], [])

    def test_table_reports_speedup_column(self):
        table = format_payload(_tiny_sweep(2))
        assert "speedup" in table
        assert "1.00x" in table

    def test_shard_rates_are_never_gated(self):
        payload = _tiny_sweep(2)
        baseline = copy.deepcopy(payload)
        rows = baseline["sections"]["shards"]["cluster_mesh_64"]["variants"]
        for row in rows.values():
            row["messages_per_s"] *= 1000
        assert check(payload, baseline)[0] == []
        assert gated_rows(payload) == []
