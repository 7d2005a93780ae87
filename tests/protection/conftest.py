"""Rig builders for the protection-backend conformance tier.

Unlike the top-level fixtures, these take the backend spec as a
parameter so every test in this tier can run the same workload under
``proxy``, ``captable`` and ``handler`` (or a planted-bug variant) and
compare the outcomes.
"""

from __future__ import annotations

import pytest

from repro import ClusterConfig, Machine, MachineConfig, ShrimpCluster
from repro.devices import SinkDevice
from repro.protection import BACKEND_NAMES
from repro.userlib import Receiver, Sender, UdmaUser

ALL_BACKENDS = BACKEND_NAMES


class ProtSinkRig:
    """Single node + sink, built for one protection backend."""

    def __init__(self, protection=None, alignment=0, queue_depth=0,
                 sink_size=1 << 16):
        self.machine = Machine(
                           config=MachineConfig(
                               mem_size=1 << 20,
                               protection=protection,
                               queue_depth=queue_depth,
                           ),
                       )
        self.sink = SinkDevice("sink", size=sink_size, alignment=alignment)
        self.machine.attach_device(self.sink)
        self.process = self.machine.create_process("app")
        self.buffer = self.machine.kernel.syscalls.alloc(self.process, 1 << 15)
        self.grant = self.machine.kernel.syscalls.grant_device_proxy(
            self.process, "sink"
        )
        self.udma = UdmaUser(self.machine, self.process)
        self.backend = self.machine.protection


class ProtChannelRig:
    """Two-node cluster + one ready channel, for one protection backend."""

    CHANNEL_BYTES = 1 << 16

    def __init__(self, protection=None):
        self.cluster = ShrimpCluster(
                           config=ClusterConfig(
                               num_nodes=2,
                               mem_size=1 << 21,
                               protection=protection,
                           ),
                       )
        self.rx = self.cluster.node(1).create_process("rx")
        self.rx_buf = self.cluster.node(1).kernel.syscalls.alloc(
            self.rx, self.CHANNEL_BYTES
        )
        self.channel = self.cluster.create_channel(
            0, 1, self.rx, self.rx_buf, self.CHANNEL_BYTES
        )
        self.tx = self.cluster.node(0).create_process("tx")
        self.sender = Sender(self.cluster, self.tx, self.channel)
        self.receiver = Receiver(self.cluster, self.rx, self.channel)
        self.backend = self.cluster.node(0).protection

    @property
    def tx_nic(self):
        return self.cluster.nic(0)


@pytest.fixture(params=ALL_BACKENDS)
def backend_name(request):
    """Parametrize a test over the three stock backends."""
    return request.param


@pytest.fixture
def prot_sink_rig(backend_name):
    return ProtSinkRig(protection=backend_name)


@pytest.fixture
def prot_channel_rig(backend_name):
    return ProtChannelRig(protection=backend_name)
