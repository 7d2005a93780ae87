"""The scale section of the bench table: identity cross-check and gate."""

import copy
import dataclasses
import os
import sys

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_BENCH = os.path.join(_ROOT, "benchmarks")
if _BENCH not in sys.path:
    sys.path.insert(0, _BENCH)

from bench_host_throughput import (  # noqa: E402
    SCENARIOS,
    Result,
    format_payload,
    run,
    to_payload,
)
from run_bench import check, parent_check  # noqa: E402

GATED = ("incast_64x1", "all_to_all_32x1")


def _result(msg_s=1000.0, reference=False):
    """A scale-shaped result moving 100 messages at ``msg_s``."""
    sim = {"sim_cycles": 5000, "events_fired": 400, "messages": 100,
           "sim_bytes": 100 * 512, "delivered": 100, "retries": 0,
           "churns": 0}
    return Result(sim=sim, host_seconds=100 / msg_s,
                  xlat_rate=0.0 if reference else 0.9)


def _payload(msg_s=1000.0, reference=True, name="s"):
    """A one-scenario scale payload: default at ``msg_s``, reference at half."""
    spec = dataclasses.replace(SCENARIOS[("scale", "incast_64x1")], name=name)
    variants = {"default": _result(msg_s)}
    if reference:
        variants = {"reference": _result(msg_s / 2, reference=True),
                    **variants}
    spec = dataclasses.replace(spec, variants={v: {} for v in variants})
    return to_payload([(spec, variants)], quick=True)


def _variant(payload, variant="default", name="s"):
    return payload["sections"]["scale"][name]["variants"][variant]


class TestIdentity:
    def test_clean_results_pass(self):
        # The reference run has no translation cache: its hit rate
        # differs, and it is a host statistic, so it is not compared.
        assert check(_payload(), None) == ([], [])

    def test_sim_divergence_is_flagged(self):
        payload = _payload()
        _variant(payload, "reference")["sim"]["sim_cycles"] += 1
        failures, _ = check(payload, None)
        assert len(failures) == 1
        assert "sim_cycles" in failures[0]

    def test_missing_baseline_is_skipped(self):
        assert check(_payload(reference=False), None) == ([], [])


class TestSpeedup:
    def test_speedup_computed(self):
        assert _variant(_payload(msg_s=2000.0))["speedup"] == pytest.approx(2.0)

    def test_no_baseline_no_speedup(self):
        assert "speedup" not in _variant(_payload(reference=False))


class TestGate:
    def _baseline(self, payload, cpu_count=None):
        baseline = copy.deepcopy(payload)
        if cpu_count is not None:
            baseline["cpu_count"] = cpu_count
        return baseline

    @staticmethod
    def _paired(payload, parent_msg_s):
        """Pairs whose parent side reads ``parent_msg_s`` for every row."""
        def pairs_of(section, name, variant):
            row = payload["sections"][section][name]["variants"][variant]
            parent = {"msgs_per_s": parent_msg_s, "sim": row["sim"]}
            return [(parent, {"msgs_per_s": row["messages_per_s"],
                              "sim": row["sim"]})] * 5
        return pairs_of

    def _rows(self, payload):
        return [("scale", "s", v) for v in payload["sections"]["scale"]["s"]["variants"]]

    def test_same_machine_rate_drop_fails(self):
        payload = _payload(msg_s=500.0, reference=False)
        failures, _ = parent_check(self._rows(payload),
                                   self._paired(payload, 1000.0), set())
        assert failures and "median B/A 0.500" in failures[0]
        assert failures[0].startswith("scale/s [default]")

    def test_rate_within_tolerance_passes(self):
        payload = _payload(msg_s=950.0, reference=False)
        failures, lines = parent_check(self._rows(payload),
                                       self._paired(payload, 1000.0), set())
        assert failures == []
        assert "median B/A 0.950" in lines[0]

    def test_record_rates_and_cpu_count_are_not_compared(self):
        # The baseline's host rates are a record: a run at half of them on
        # a host with another core count passes, with no warning.
        baseline = self._baseline(
            _payload(msg_s=1000.0), cpu_count=(os.cpu_count() or 1) + 7
        )
        assert check(_payload(msg_s=500.0), baseline) == ([], [])

    def test_sim_divergence_fails_even_across_machines(self):
        baseline = self._baseline(
            _payload(msg_s=1000.0), cpu_count=(os.cpu_count() or 1) + 7
        )
        payload = _payload(msg_s=1000.0)
        for variant in ("default", "reference"):
            _variant(payload, variant)["sim"]["sim_cycles"] += 1
        failures, _ = check(payload, baseline)
        assert failures and "determinism break" in failures[0]

    def test_workload_size_mismatch_skips_sim_check(self):
        baseline = self._baseline(_payload(msg_s=1000.0))
        payload = _payload(msg_s=1000.0)
        payload["sections"]["scale"]["s"]["kwargs"]["messages"] = 20
        for variant in ("default", "reference"):
            _variant(payload, variant)["sim"]["sim_cycles"] = 1
        failures, warnings = check(payload, baseline)
        assert failures == []
        assert any("re-record" in w for w in warnings)

    def test_new_scenario_is_not_gated(self):
        baseline = self._baseline(_payload(name="other"))
        failures, _ = check(_payload(msg_s=1.0), baseline)
        assert failures == []

    def test_json_payload_carries_cpu_count(self):
        payload = _payload()
        assert payload["cpu_count"] == os.cpu_count()
        assert payload["schema"] == "shrimp-bench/2"
        assert payload["quick"] is True


class TestRegistry:
    def test_gated_scenarios_hit_a_million_messages(self):
        for name in GATED:
            spec = SCENARIOS[("scale", name)]
            assert spec.kwargs(quick=False)["messages"] >= 1_000_000
            assert spec.variants["reference"] == {"reference": True}
            assert spec.identical

    def test_quick_variants_are_ci_sized(self):
        for (section, _), spec in SCENARIOS.items():
            if section == "scale":
                assert spec.kwargs(quick=True)["messages"] <= 50_000

    def test_format_scale_renders_speedup(self):
        rows = format_payload(_payload(msg_s=2000.0)).splitlines()
        default = [r for r in rows if "default" in r]
        assert len(default) == 1
        assert default[0].startswith("scale/s ")
        assert "2.00x" in default[0]


def test_tiny_scenario_end_to_end():
    spec = SCENARIOS[("scale", "all_to_all_32x1")]
    tiny = dataclasses.replace(
        spec, quick={**spec.quick, "num_nodes": 4, "messages": 60}
    )
    payload = to_payload(run([tiny], quick=True, repeats=1), quick=True)
    entry = payload["sections"]["scale"]["all_to_all_32x1"]
    assert entry["variants"]["default"]["sim"]["delivered"] == 60
    assert check(payload, None) == ([], [])
    assert entry["variants"]["default"]["speedup"] > 0
