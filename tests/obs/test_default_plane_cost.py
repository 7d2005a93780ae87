"""The default observability plane's cost, counted rather than timed.

Host timings of the default plane swing by more than its whole cost, so
these checks count work instead: Python-level calls and executed
bytecodes per transfer, and ``Metric`` instances per built world.  Calls
(under cProfile, builtins included) catch C work hidden behind a
builtin; bytecodes (``sys.settrace`` opcode events) catch inline Python
work that makes no call.  Every count repeats exactly, so these are the
one judge of the default plane's cost; the bench check times nothing of
it.
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
#: the most bytecodes per transfer the default plane may add, as a share
#: of the plane-off baseline's
BYTECODE_BUDGET = 0.02


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


def _calls(send) -> int:
    """Python-level calls, builtins included, made by ``TRANSFERS`` sends."""
    import cProfile
    import pstats

    profile = cProfile.Profile()
    profile.enable()
    for _ in range(TRANSFERS):
        send()
    profile.disable()
    return pstats.Stats(profile).total_calls


def _bytecodes(send) -> int:
    """Bytecodes executed by ``TRANSFERS`` sends."""
    executed = 0

    def count(frame, event, arg):
        nonlocal executed
        if event == "opcode":
            executed += 1
        return count

    def trace(frame, event, arg):
        frame.f_trace_opcodes = True
        return count

    sys.settrace(trace)
    try:
        for _ in range(TRANSFERS):
            send()
    finally:
        sys.settrace(None)
    return executed


def count_per_transfer() -> None:
    """Print, as JSON, calls and bytecodes per transfer with the plane
    off and at its default, and the default machine's latency histogram
    count."""
    reading = {}
    for mode, obs in (("baseline", ObsConfig(metrics=False)), ("default", ObsConfig())):
        machine, send = _sink_rig(MachineConfig(mem_size=1 << 20, obs=obs))
        send()  # warm every cache outside the counted windows
        reading[mode] = {"calls": _calls(send) / TRANSFERS,
                         "bytecodes": _bytecodes(send) / TRANSFERS}
    reading["histogram_count"] = machine.metrics()["udma"]["transfer_cycles"]["count"]
    print(json.dumps(reading))


@pytest.fixture(scope="module")
def reading():
    # Counted in a fresh interpreter: the counts need a profiler and a
    # tracer of their own, and must not displace one already profiling
    # this process (benchmarks/reach.py runs tier-1 under cProfile).
    child = ("from tests.obs.test_default_plane_cost import "
             "count_per_transfer as count; count()")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", child], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_default_plane_adds_at_most_one_call_per_transfer(reading):
    # The one call is the builtin dict.get of the inline latency count.
    assert reading["default"]["calls"] - reading["baseline"]["calls"] <= 1, reading
    # ... and the histogram still sees every transfer (the warm-up, then
    # each counted window).
    assert reading["histogram_count"] == 2 * TRANSFERS + 1


def test_default_plane_adds_at_most_two_percent_bytecodes_per_transfer(reading):
    base, default = reading["baseline"]["bytecodes"], reading["default"]["bytecodes"]
    assert default <= base * (1 + BYTECODE_BUDGET), reading


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
