"""Planned DMA launch: a send plan's endpoints and duration.

A send plan resolves both DMA endpoints and the engine's transfer
duration once, when it is built.  A planned send must launch exactly the
transfer the slow path launches -- same duration, same SOURCE register,
same completion cycle -- on a single-clock cluster and on a shard.  The
reference-mode twin of each run takes the slow path on every send.
"""

from __future__ import annotations

import pytest

from repro import ClusterConfig, ShrimpCluster
from repro.core.controller import UdmaController
from repro.net.nic import ShrimpNic
from repro.sharding import ClusterSpec, InProcessEngine
from repro.userlib import Sender

PAGE = 4096
SIZES = (64, 512, 4096)


@pytest.fixture
def launches(monkeypatch):
    """Every DMA launch: (node, cycle, duration, SOURCE base, planned)."""
    seen = []
    real = UdmaController.start_transfer

    def spy(self, source, destination, count, duration=None):
        real(self, source, destination, count, duration)
        seen.append((
            self.name,
            self.clock.now,
            self._transfer_duration,
            self.engine.source_memory_base(),
            duration is not None,
        ))

    monkeypatch.setattr(UdmaController, "start_transfer", spy)
    return seen


def _cluster_run(nbytes: int, reference: bool, launches: list, sends: int = 4):
    """``sends`` messages on a 2-node cluster; launches and completions."""
    launches.clear()
    cluster = ShrimpCluster(
        config=ClusterConfig(num_nodes=2, mem_size=1 << 21, reference=reference)
    )
    rx = cluster.node(1).create_process("rx")
    buf = cluster.node(1).kernel.syscalls.alloc(rx, PAGE)
    channel = cluster.create_channel(0, 1, rx, buf, PAGE)
    sender = Sender(cluster, cluster.node(0).create_process("tx"), channel)
    done = []
    cluster.node(0).udma.engine.add_completion_listener(
        lambda: done.append(cluster.now)
    )
    for _ in range(sends):
        sender.send_buffer(nbytes, wait=False)
        cluster.run_until_idle()
    return list(launches), done, sender


def _shard_run(nbytes: int, reference: bool, launches: list):
    """A 4-node ring on one shard; launches and per-node completions."""
    launches.clear()
    spec = ClusterSpec(
        num_nodes=4, topology="linear", messages_per_node=4,
        msg_bytes=nbytes, reference=reference,
    )
    engine = InProcessEngine(spec, num_shards=1)
    done = []
    for rt in engine.shards[0].runtimes.values():
        rt.machine.udma.engine.add_completion_listener(
            (lambda rt: lambda: done.append((rt.node_id, rt.clock.now)))(rt)
        )
    engine.run()
    return list(launches), done


def _simulated(records):
    """A launch record without the host-side 'planned' flag."""
    return [record[:4] for record in records]


@pytest.mark.parametrize("nbytes", SIZES)
def test_cluster_planned_launch_matches_slow_path(nbytes, launches):
    planned, planned_done, sender = _cluster_run(nbytes, False, launches)
    slow, slow_done, _ = _cluster_run(nbytes, True, launches)
    # The default run's first send went the slow way and its last was
    # planned; reference mode planned none.
    assert not planned[0][4] and planned[-1][4]
    assert not any(r[4] for r in slow)
    assert _simulated(planned) == _simulated(slow)
    assert planned_done == slow_done
    plans = [p for p in sender.udma._plans.values() if p is not None]
    assert [p.duration for p in plans] == [planned[-1][2]]


@pytest.mark.parametrize("nbytes", SIZES)
def test_shard_planned_launch_matches_slow_path(nbytes, launches):
    planned, planned_done = _shard_run(nbytes, False, launches)
    slow, slow_done = _shard_run(nbytes, True, launches)
    assert any(r[4] for r in planned)
    assert not any(r[4] for r in slow)
    assert _simulated(planned) == _simulated(slow)
    assert planned_done == slow_done


def test_device_with_its_own_latency_gets_no_cached_duration(
    monkeypatch, launches
):
    """A device that adds latency (a disk's seek) is asked per launch."""
    asked = []

    def seeking(self, offset, nbytes):
        asked.append(offset)
        return 7 * len(asked)  # a different answer every time

    monkeypatch.setattr(ShrimpNic, "dma_extra_cycles", seeking, raising=False)
    planned, planned_done, sender = _cluster_run(512, False, launches)
    plans = [p for p in sender.udma._plans.values() if p is not None]
    assert plans and all(p.duration is None for p in plans)
    # Every launch, planned or not, asked the device exactly once.
    assert len(asked) == len(planned) == 4
    durations = [r[2] for r in planned]
    assert [b - a for a, b in zip(durations, durations[1:])] == [7, 7, 7]
    asked.clear()
    slow, slow_done, _ = _cluster_run(512, True, launches)
    assert _simulated(planned) == _simulated(slow)
    assert planned_done == slow_done
