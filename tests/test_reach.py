"""benchmarks/reach.py: a consumer that displaces the profiler fails loudly,
and every function has a verdict key of its own."""

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


def _reach_module():
    import importlib.util

    spec = importlib.util.spec_from_file_location("reach", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_property_setter_has_a_key_of_its_own():
    # The JSON verdicts are keyed by file and name: a setter sharing its
    # getter's name would hide whichever of the two is unreached.
    reach = _reach_module()
    found = reach.functions()
    names = [
        (os.path.relpath(path, reach.SRC.parent), name)
        for (path, _first), (name, _lines) in found.items()
    ]
    assert len(names) == len(set(names))
    shard = [name for file, name in names if file == os.path.join("repro", "sharding", "shard.py")]
    assert "ShardInterconnect.fault_injector" in shard
    assert "ShardInterconnect.fault_injector.setter" in shard
