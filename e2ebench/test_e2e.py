"""Self-test of the end-to-end benchmark, at tiny sizes (well under 15 s).

    PYTHONPATH=src python3 -m pytest e2ebench/test_e2e.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = 0.005
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _spec(metrics):
    return [(m.name, m.unit, m.better) for m in metrics]


def test_benchmark_json_matches_the_registry():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert _spec(END_TO_END) == [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]
    ]
    assert _spec(PER_LAYER) == [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    ]


def _assert_report(report, registry):
    assert report["correct"], report["problems"]
    assert report["failed"] == 0 and report["attempted"] > 0
    assert list(report["metrics"]) == [m.name for m in registry]
    for metric in registry:
        entry = report["metrics"][metric.name]
        assert entry["unit"] == metric.unit
        assert isinstance(entry["value"], (int, float))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name):
    report = run.measure(name, seed=3, seconds=0, scale=TINY)
    _assert_report(report, END_TO_END)
    for metric in END_TO_END:
        assert report["metrics"][metric.name]["value"] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_matches_untraced_simulation(name, tmp_path):
    report = run.trace(name, seed=3, trace_dir=tmp_path, scale=TINY)
    _assert_report(report, PER_LAYER)
    document = json.loads((tmp_path / f"{name}.trace.json").read_text())
    assert document["missing_entry_points"] == []
    assert sum(layer["self_s"] for layer in document["layers"].values()) <= document["wall_s"]
    ids = {span[0] for span in document["spans"]}
    assert all(span[1] == 0 or span[1] in ids for span in document["spans"])


def test_judge_verdicts():
    same = [100.0, 101.0, 99.0]
    assert run.judge(same, [100.5, 99.5, 100.0], 0.1, "higher")[0] == "unchanged"
    assert run.judge(same, [80.0, 81.0, 79.0], 0.1, "higher")[0] == "worse"
    assert run.judge(same, [120.0, 121.0, 119.0], 0.1, "higher")[0] == "better"
    assert run.judge(same, [80.0, 81.0, 79.0], 0.1, "lower")[0] == "better"
    # A change within the bound is no change, even when every run differs.
    assert run.judge(same, [103.0, 104.0, 102.0], 0.1, "higher")[0] == "unchanged"
    # Runs spread wider than the bound cannot show a change...
    assert run.judge(same, [70.0, 100.0, 130.0], 0.1, "higher")[0] == "unresolved"
    # ...unless every run of B beats every run of A.
    assert run.judge(same, [130.0, 160.0, 200.0], 0.1, "higher")[0] == "better"
