"""The default observability plane's cost, counted rather than timed.

Host timings of the default plane swing by more than its whole cost, so
these checks count work instead: Python-level calls per transfer (under
cProfile, builtins included) and ``Metric`` instances per built world.
Both counts are deterministic.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro import ClusterConfig, Machine, MachineConfig, ObsConfig, ShrimpCluster
from repro.devices import SinkDevice
from repro.obs import Metric
from repro.snapshot import fork, restore, snapshot
from repro.userlib import DeviceRef, MemoryRef, UdmaUser

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
MSG_BYTES = 512
TRANSFERS = 40


def _sink_rig(config: MachineConfig):
    """A machine with a sink device and a blocking 512 B ``send()``."""
    machine = Machine(config=config)
    machine.attach_device(SinkDevice("sink", size=1 << 16))
    process = machine.create_process("p")
    buf = machine.kernel.syscalls.alloc(process, MSG_BYTES)
    grant = machine.kernel.syscalls.grant_device_proxy(process, "sink")
    udma = UdmaUser(machine, process)
    machine.cpu.write_bytes(buf, b"\x5a" * MSG_BYTES)

    def send() -> None:
        udma.transfer(MemoryRef(buf), DeviceRef(grant), MSG_BYTES)
        machine.run_until_idle()

    return machine, send


def count_calls_per_transfer() -> None:
    """Print, as JSON, profiled calls per transfer with the plane off and
    at its default, and the default machine's latency histogram count."""
    import cProfile
    import pstats

    reading = {}
    for mode, obs in (("baseline", ObsConfig(metrics=False)), ("default", ObsConfig())):
        machine, send = _sink_rig(MachineConfig(mem_size=1 << 20, obs=obs))
        send()  # warm every cache outside the counted window
        profile = cProfile.Profile()
        profile.enable()
        for _ in range(TRANSFERS):
            send()
        profile.disable()
        reading[mode] = pstats.Stats(profile).total_calls / TRANSFERS
    reading["histogram_count"] = machine.metrics()["udma"]["transfer_cycles"]["count"]
    print(json.dumps(reading))


def test_default_plane_adds_at_most_one_call_per_transfer():
    # Counted in a fresh interpreter: the count needs a profiler of its
    # own, and must not displace one already profiling this process
    # (benchmarks/reach.py runs tier-1 under cProfile).
    child = ("from tests.obs.test_default_plane_cost import "
             "count_calls_per_transfer as count; count()")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", child], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    reading = json.loads(proc.stdout.splitlines()[-1])
    # The one call is the builtin dict.get of the inline latency count.
    assert reading["default"] - reading["baseline"] <= 1, reading
    # ... and the histogram still sees every transfer.
    assert reading["histogram_count"] == TRANSFERS + 1


def test_queued_device_counts_latency_without_a_call():
    machine, send = _sink_rig(MachineConfig(mem_size=1 << 20, queue_depth=4))
    hist = machine.obs.registry.get("udma.transfer_cycles")
    assert machine.udma._latency_samples is hist.samples
    for _ in range(3):
        send()
    assert hist.count == 3 and min(hist.samples) > 0


@pytest.mark.parametrize("duplicate", [
    lambda machine: restore(snapshot(machine)), fork,
], ids=["restore", "fork"])
def test_a_copy_counts_into_its_own_histogram(duplicate):
    machine, send = _sink_rig(MachineConfig(mem_size=1 << 20))
    send()
    twin = duplicate(machine)
    hist = twin.obs.registry.get("udma.transfer_cycles")
    assert twin.udma._latency_samples is hist.samples
    assert hist.samples is not machine.udma._latency_samples
    assert hist.samples == machine.udma._latency_samples


def test_a_64_node_world_builds_one_metric_per_node(monkeypatch):
    """A node's sampled names are table entries; its only Metric object
    is its recording histogram.  The cluster's own four backplane names
    are one-off instruments."""
    built = []
    original = Metric.__init__

    def counting_init(self, *args, **kwargs):
        built.append(type(self).__name__)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Metric, "__init__", counting_init)
    cluster = ShrimpCluster(config=ClusterConfig(num_nodes=64, mem_size=1 << 20))
    assert len(cluster.obs.registry) > 30 * 64
    assert len(built) <= 64 + 4, sorted(set(built))
