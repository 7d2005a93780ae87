"""benchmarks/paired.py: the paired A/B harness, run A/A at a tiny scale."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "benchmarks", "paired.py")


def _run(*args):
    return subprocess.run(
        [sys.executable, SCRIPT, *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


def test_a_a_pairs_agree_and_report_ratio():
    proc = _run(ROOT, ROOT, "pingpong_mix", "--pairs", "3", "--scale", "0.002")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert [line.split()[2] for line in lines[:3]] == ["(A", "(B", "(A"]
    assert "median B/A" in lines[-1]
    assert lines[-1].endswith("/3 pairs")


def test_setup_metric_reads_seconds_and_lower_wins():
    proc = _run(ROOT, ROOT, "incast_64x1", "--pairs", "2", "--scale", "0.002",
                "--metric", "setup_s")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    readings = [float(line.split()[k]) for line in lines[:2] for k in (5, 7)]
    assert all(0 < r < 60 for r in readings)
    assert " s  B/A " in lines[0]
    assert "incast_64x1 seed 0 scale 0.002 setup_s: median B/A" in lines[-1]
    wins = sum(float(line.split()[-1]) < 1.0 for line in lines[:2])
    assert lines[-1].endswith(f"B won {wins}/2 pairs")


def test_sharded_workload_runs_paired():
    proc = _run(ROOT, ROOT, "ring_64x2shard", "--pairs", "1", "--scale", "0.02")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "ring_64x2shard seed 0" in proc.stdout


def test_not_a_checkout_is_a_usage_error(tmp_path):
    proc = _run(str(tmp_path), ROOT, "pingpong_mix")
    assert proc.returncode == 2
    assert "not a checkout" in proc.stderr
