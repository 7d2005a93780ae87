"""benchmarks/reach.py: a consumer that displaces the profiler fails loudly."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "benchmarks", "reach.py")


def _record(tmp_path, body):
    script = tmp_path / "consumer.py"
    script.write_text(body)
    return subprocess.run(
        [sys.executable, SCRIPT, "--record", str(tmp_path / "keys.json"), str(script)],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )


def test_a_consumer_with_its_own_profiler_fails(tmp_path):
    proc = _record(tmp_path, "import cProfile\nPROF = cProfile.Profile()\nPROF.enable()\n")
    assert proc.returncode != 0
    assert "FAILED: profiler displaced" in proc.stdout + proc.stderr


def test_a_plain_consumer_passes(tmp_path):
    proc = _record(tmp_path, "print('plain')\n")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAILED" not in proc.stdout + proc.stderr
    assert (tmp_path / "keys.json").exists()
