"""Shared rigs for the paper-reproduction benches.

Every bench both (a) times the simulator under pytest-benchmark (host
wall-clock of the simulation code) and (b) prints a paper-vs-measured
table of *simulated* metrics -- cycles, microseconds, MB/s on the
simulated 60 MHz node -- which is what reproduces the paper's evaluation.
Run with ``pytest benchmarks/ --benchmark-only`` (add ``-s`` to see the
tables live; they are also asserted, so a silently wrong shape fails).
"""

from __future__ import annotations

import pytest

from repro import ClusterConfig, Machine, MachineConfig, ShrimpCluster
from repro.devices import SinkDevice
from repro.userlib import Receiver, Sender, UdmaUser

PAGE = 4096


class ClusterRig:
    """A 2-node cluster with one big channel, rebuilt per bench module."""

    def __init__(self, queue_depth=0, mem_size=1 << 21, channel_bytes=1 << 19):
        self.cluster = ShrimpCluster(
                           config=ClusterConfig(
                               num_nodes=2,
                               mem_size=mem_size,
                               queue_depth=queue_depth,
                           ),
                       )
        self.rx = self.cluster.node(1).create_process("rx")
        buf = self.cluster.node(1).kernel.syscalls.alloc(self.rx, channel_bytes)
        self.channel = self.cluster.create_channel(0, 1, self.rx, buf, channel_bytes)
        self.tx = self.cluster.node(0).create_process("tx")
        self.sender = Sender(self.cluster, self.tx, self.channel)
        self.receiver = Receiver(self.cluster, self.rx, self.channel)
        self.costs = self.cluster.costs


class SinkRig:
    """A single node with a sink device, buffer, grant and runtime."""

    def __init__(self, queue_depth=0, mem_size=1 << 21, sink_bytes=1 << 18,
                 costs=None, buffer_bytes=1 << 16, protection=None):
        self.machine = Machine(
                           config=MachineConfig(
                               costs=costs,
                               mem_size=mem_size,
                               queue_depth=queue_depth,
                               protection=protection,
                           ),
                       )
        self.sink = SinkDevice("sink", size=sink_bytes)
        self.machine.attach_device(self.sink)
        self.process = self.machine.create_process("app")
        self.buffer = self.machine.kernel.syscalls.alloc(self.process, buffer_bytes)
        self.grant = self.machine.kernel.syscalls.grant_device_proxy(
            self.process, "sink"
        )
        self.udma = UdmaUser(self.machine, self.process)
        self.costs = self.machine.costs


@pytest.fixture
def cluster_rig():
    return ClusterRig()


@pytest.fixture
def queued_cluster_rig():
    return ClusterRig(queue_depth=16)


@pytest.fixture
def sink_rig():
    return SinkRig()
