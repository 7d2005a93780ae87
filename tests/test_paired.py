"""benchmarks/paired.py: the paired A/B harness, run A/A at a tiny scale."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "benchmarks", "paired.py")
if os.path.dirname(SCRIPT) not in sys.path:  # the bench package is not installed
    sys.path.insert(0, os.path.dirname(SCRIPT))

from paired import _ratio, run_pairs  # noqa: E402


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
    # Wins are counted on the printed ratio; a pair printing 1.000 is a tie.
    wins = sum(float(line.split()[-1]) < 1.0 for line in lines[:2])
    assert lines[-1].endswith(f"B won {wins}/2 pairs")
    assert _ratio(1.0, 0.9996) == 1.0 and _ratio(1.0, 0.9994) == 0.999


def test_sharded_workload_runs_paired():
    proc = _run(ROOT, ROOT, "ring_64x2shard", "--pairs", "1", "--scale", "0.02")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "ring_64x2shard seed 0" in proc.stdout


def test_not_a_checkout_is_a_usage_error(tmp_path):
    proc = _run(str(tmp_path), ROOT, "pingpong_mix")
    assert proc.returncode == 2
    assert "not a checkout" in proc.stderr


def test_every_pair_starts_fresh_workers():
    request = {"workload": "pingpong_mix", "seed": 0, "scale": 0.002}
    got = run_pairs(Path(ROOT), Path(ROOT), request, 2)
    pids = [reading["pid"] for pair in got for reading in pair]
    assert len(pids) == 4 and len(set(pids)) == 4
    assert all(a["sim"] == b["sim"] for a, b in got)


def test_a_table_row_runs_paired():
    # The rows run_bench.py --parent gates: this checkout's bench code,
    # each side's program.
    request = {"row": ["core", "stepping_dma"], "variant": "default",
               "quick": True}
    (a, b), = run_pairs(Path(ROOT), Path(ROOT), request, 1)
    assert a["sim"] == b["sim"] and a["sim"]["messages"] == 320
    assert a["msgs_per_s"] > 0 and a["pid"] != b["pid"]
