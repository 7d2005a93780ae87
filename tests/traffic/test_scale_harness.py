"""The --scale bench harness: identity cross-check and baseline gate."""

import json
import os
import sys

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_BENCH = os.path.join(_ROOT, "benchmarks")
if _BENCH not in sys.path:
    sys.path.insert(0, _BENCH)

from bench_scale import (  # noqa: E402
    SCALE_SCENARIOS,
    ScaleResult,
    check_identity,
    format_scale,
    run_scale_scenario,
)
from run_bench import check_scale_against, scale_results_to_json  # noqa: E402


def _result(msg_s=1000.0, **overrides):
    enabled = {
        "scenario": "t", "pattern": "incast", "num_nodes": 4,
        "tenants_per_node": 1, "messages": 100, "msg_bytes": 512,
        "retries": 0, "churns": 0, "sim_cycles": 5000, "events": 400,
        "delivered": 100, "xlat_hit_rate": 0.9, "reference": False,
        "host_seconds": 0.1,
        "messages_per_sec": msg_s, "host_mb_per_sec": msg_s * 512 / 1e6,
    }
    enabled.update(overrides)
    disabled = dict(enabled)
    disabled.update(reference=True, xlat_hit_rate=0.0,
                    messages_per_sec=msg_s / 2)
    return ScaleResult(enabled=enabled, disabled=disabled)


class TestIdentity:
    def test_clean_results_pass(self):
        assert check_identity({"s": _result()}) == []

    def test_sim_divergence_is_flagged(self):
        result = _result()
        result.disabled["sim_cycles"] += 1
        failures = check_identity({"s": result})
        assert len(failures) == 1
        assert "sim_cycles" in failures[0]

    def test_missing_baseline_is_skipped(self):
        result = _result()
        result.disabled = None
        assert check_identity({"s": result}) == []


class TestSpeedup:
    def test_speedup_computed(self):
        assert _result(msg_s=2000.0).speedup == pytest.approx(2.0)

    def test_no_baseline_no_speedup(self):
        result = _result()
        result.disabled = None
        assert result.speedup is None
        assert "speedup" not in result.as_dict()


class TestGate:
    def _baseline(self, results, cpu_count=None):
        payload = scale_results_to_json(results, quick=False)
        payload = json.loads(json.dumps(payload))
        if cpu_count is not None:
            payload["cpu_count"] = cpu_count
        return payload

    def test_same_machine_rate_drop_fails(self):
        baseline = self._baseline({"s": _result(msg_s=1000.0)})
        failures, warnings = check_scale_against(
            {"s": _result(msg_s=500.0)}, baseline, tolerance=0.3
        )
        assert failures and "msg/s < floor" in failures[0]
        assert not warnings

    def test_rate_within_tolerance_passes(self):
        baseline = self._baseline({"s": _result(msg_s=1000.0)})
        failures, _ = check_scale_against(
            {"s": _result(msg_s=900.0)}, baseline, tolerance=0.3
        )
        assert failures == []

    def test_different_cpu_count_downgrades_to_warning(self):
        baseline = self._baseline(
            {"s": _result(msg_s=1000.0)}, cpu_count=(os.cpu_count() or 1) + 7
        )
        failures, warnings = check_scale_against(
            {"s": _result(msg_s=500.0)}, baseline, tolerance=0.3
        )
        assert failures == []
        assert any("cpu_count" in w for w in warnings)
        assert any("msg/s < floor" in w for w in warnings)

    def test_sim_divergence_fails_even_across_machines(self):
        baseline = self._baseline(
            {"s": _result(msg_s=1000.0)}, cpu_count=(os.cpu_count() or 1) + 7
        )
        result = _result(msg_s=1000.0)
        result.enabled["sim_cycles"] += 1
        failures, _ = check_scale_against({"s": result}, baseline, 0.3)
        assert failures and "determinism break" in failures[0]

    def test_workload_size_mismatch_skips_sim_check(self):
        baseline = self._baseline({"s": _result(msg_s=1000.0)})
        result = _result(msg_s=1000.0)
        result.enabled["messages"] = 20  # quick run vs full baseline
        result.enabled["sim_cycles"] = 1  # would fail an exact check
        failures, _ = check_scale_against({"s": result}, baseline, 0.3)
        assert failures == []

    def test_new_scenario_is_not_gated(self):
        baseline = self._baseline({"other": _result()})
        failures, _ = check_scale_against({"s": _result()}, baseline, 0.3)
        assert failures == []

    def test_json_payload_carries_cpu_count(self):
        payload = scale_results_to_json({"s": _result()}, quick=True)
        assert payload["cpu_count"] == os.cpu_count()
        assert payload["schema"] == "shrimp-bench-scale/1"
        assert payload["quick"] is True


class TestRegistry:
    def test_gated_scenarios_hit_a_million_messages(self):
        for name in ("incast_64x1", "all_to_all_32x1"):
            spec = SCALE_SCENARIOS[name]
            assert spec.build_kwargs(quick=False)["messages"] >= 1_000_000
            assert spec.baseline

    def test_quick_variants_are_ci_sized(self):
        for spec in SCALE_SCENARIOS.values():
            assert spec.build_kwargs(quick=True)["messages"] <= 50_000

    def test_format_scale_renders_speedup(self):
        out = format_scale({"s": _result(msg_s=2000.0)})
        assert "2.00x" in out
        assert "s" in out.splitlines()[2]


def test_tiny_scenario_end_to_end():
    spec = SCALE_SCENARIOS["all_to_all_32x1"]
    import dataclasses

    tiny = dataclasses.replace(
        spec,
        kwargs={**spec.kwargs, "num_nodes": 4},
        quick={"messages": 60},
    )
    result = run_scale_scenario(tiny, quick=True)
    assert result.enabled["delivered"] == 60
    assert check_identity({"tiny": result}) == []
    assert result.speedup is not None and result.speedup > 0
