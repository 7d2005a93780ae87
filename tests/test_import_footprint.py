"""A run loads only what it uses.

``e2ebench/workloads.py`` imports ``repro``, ``repro.bench.workloads``,
``repro.sharding``, ``repro.traffic`` and ``repro.userlib``.  None of its
worlds forks or takes a snapshot, so none of them should pay for
``multiprocessing`` or ``pickle`` (nor ``socket``, which
``multiprocessing`` brings along): only ``WorkerEngine`` forks, and only
``repro.snapshot``'s ``api``/``format`` pickle, and both load those
modules on first use.  This test imports exactly that set in a fresh
interpreter and fails, naming the module, if any of them is loaded.
It then checks that the deferred paths still work from that cold state:
a snapshot round trip and a worker engine's construction.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: what e2ebench/workloads.py imports from the package
RUN_IMPORTS = (
    "repro",
    "repro.bench.workloads",
    "repro.sharding",
    "repro.traffic",
    "repro.userlib",
)

#: stdlib modules only a forking engine or a snapshot uses
DEFERRED = ("multiprocessing", "pickle", "socket")

_SCRIPT = f"""
import json, sys
for name in {RUN_IMPORTS!r}:
    __import__(name)
loaded = sorted(m for m in {DEFERRED!r} if m in sys.modules)

from repro.mem.physmem import PhysicalMemory
from repro.snapshot import restore, snapshot
mem = PhysicalMemory(1 << 16)
mem.write(4096, b"footprint")
copy = restore(snapshot(mem))
round_trip = copy.read(4096, 9) == b"footprint" and copy.size == mem.size

from repro.sharding import ClusterSpec, WorkerEngine
engine = WorkerEngine(ClusterSpec(num_nodes=4), num_shards=2)
print(json.dumps({{
    "loaded": loaded,
    "round_trip": round_trip,
    "worker_shards": engine.num_shards,
    "after_first_use": sorted(m for m in {DEFERRED!r} if m in sys.modules),
}}))
"""


@pytest.fixture(scope="module")
def fresh_run() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_a_run_loads_no_fork_or_snapshot_modules(fresh_run):
    assert fresh_run["loaded"] == [], (
        "importing " + ", ".join(RUN_IMPORTS) + " loaded "
        + ", ".join(fresh_run["loaded"])
        + "; import it where it is used, not at module top level"
    )


def test_deferred_paths_work_from_a_cold_start(fresh_run):
    assert fresh_run["round_trip"] is True
    assert fresh_run["worker_shards"] == 2
    # The guard is live: first use does load what the run did not.
    assert fresh_run["after_first_use"] == sorted(DEFERRED)
