"""``reference=True`` really turns every host fast path off -- and the
default really turns them on.

The chaos ``fast-paths`` and ``shards`` twins diff a default run against
a reference-mode run.  That oracle is only worth something if the two
runs differ in how they execute: a reference run that quietly kept the
packet pool, or a default run that never reached the translation cache,
would make the diff compare a mode against itself.  Each entry point
that takes the switch runs a short workload in both modes, and every
machine, backplane and fast send it built is inspected afterwards:

* reference mode: no backplane owns a packet pool, no runtime even
  tries to build a send plan, no completion poll takes the
  controller's ``fast_poll`` lane, and no translation-cache hit is
  counted;
* default mode: each of those is active wherever the workload reaches
  it.  A lone machine has no NIC to plan sends to and no backplane.
  Chaos worlds trace spans, which keep packets out of the pool and sends
  off the planned path, so there the pool exists but recycles nothing.
  Only blocking transfers poll for completion, so the traffic engines
  and chaos worlds never reach ``fast_poll``.
"""

from __future__ import annotations

import pytest

from repro import ClusterConfig, Machine, MachineConfig, ShrimpCluster
from repro.chaos import ChaosWorld, generate_schedule
from repro.core.controller import UdmaController
from repro.devices import SinkDevice
from repro.net.interconnect import Interconnect
from repro.sharding import ClusterSpec, run_sharded
from repro.traffic import run_scenario
from repro.userlib import DeviceRef, MemoryRef, Receiver, Sender, UdmaUser
from repro.bench.workloads import make_payload


@pytest.fixture
def built(monkeypatch):
    """Every machine and backplane constructed, every attempt to build a
    send plan, every send that took one and every fast completion poll."""
    seen = {"machines": [], "interconnects": [], "plan_builds": 0,
            "fast_sends": 0, "fast_polls": 0}
    machine_init = Machine.__init__
    interconnect_init = Interconnect.__init__
    build_plan = UdmaUser._build_plan
    fast_send = UdmaUser._fast_send
    fast_poll = UdmaController.fast_poll

    def record_machine(self, *args, **kwargs):
        machine_init(self, *args, **kwargs)
        seen["machines"].append(self)

    def record_interconnect(self, *args, **kwargs):
        interconnect_init(self, *args, **kwargs)
        seen["interconnects"].append(self)

    def count_plan(self, *args):
        seen["plan_builds"] += 1
        return build_plan(self, *args)

    def count_fast_send(self, plan, stats):
        sent = fast_send(self, plan, stats)
        seen["fast_sends"] += sent
        return sent

    def count_fast_poll(self, paddr):
        seen["fast_polls"] += 1
        return fast_poll(self, paddr)

    monkeypatch.setattr(Machine, "__init__", record_machine)
    monkeypatch.setattr(Interconnect, "__init__", record_interconnect)
    monkeypatch.setattr(UdmaUser, "_build_plan", count_plan)
    monkeypatch.setattr(UdmaUser, "_fast_send", count_fast_send)
    monkeypatch.setattr(UdmaController, "fast_poll", count_fast_poll)
    return seen


def _machine(reference: bool) -> None:
    machine = Machine(config=MachineConfig(mem_size=1 << 20, reference=reference))
    machine.attach_device(SinkDevice("sink", size=1 << 16))
    process = machine.create_process("app")
    buf = machine.kernel.syscalls.alloc(process, 8192)
    grant = machine.kernel.syscalls.grant_device_proxy(process, "sink")
    udma = UdmaUser(machine, process)
    for seed in range(4):
        machine.cpu.write_bytes(buf, make_payload(512, seed=seed))
        udma.transfer(MemoryRef(buf), DeviceRef(grant), 512)
        machine.run_until_idle()


def _cluster(reference: bool) -> None:
    cluster = ShrimpCluster(
        config=ClusterConfig(num_nodes=2, mem_size=1 << 20, reference=reference)
    )
    tx = cluster.node(0).create_process("tx")
    rx = cluster.node(1).create_process("rx")
    buf = cluster.node(1).kernel.syscalls.alloc(rx, 4096)
    channel = cluster.create_channel(0, 1, rx, buf, 4096)
    sender = Sender(cluster, tx, channel)
    for seed in range(4):
        sender.send_bytes(make_payload(512, seed=seed))
        cluster.run_until_idle()
    assert Receiver(cluster, rx, channel).recv_bytes(512) == make_payload(512, seed=3)


def _sharded(reference: bool) -> None:
    spec = ClusterSpec(num_nodes=4, topology="linear", messages_per_node=4,
                       reference=reference)
    assert run_sharded(spec, num_shards=2).sent == 16


def _traffic(reference: bool) -> None:
    result = run_scenario("t", "incast", num_nodes=4, messages=40,
                          gap_cycles=20_000, reference=reference)
    assert result.reference is reference
    assert result.delivered == 40


def _chaos(reference: bool) -> None:
    world = ChaosWorld(nodes=2, reference=reference)
    for action in generate_schedule(3, 60):
        world.apply(action)
    world.settle()


#: subject -> (runner, does the default mode send on plans, does it
#: recycle packets -- None: there is no backplane, does it poll fast)
SUBJECTS = {
    "Machine": (_machine, False, None, True),
    "ShrimpCluster": (_cluster, True, True, True),
    "run_sharded": (_sharded, True, True, False),
    "run_scenario": (_traffic, True, True, False),
    "ChaosWorld": (_chaos, False, False, False),
}


def _backplanes(seen):
    # Topology and frame probes carry no traffic.
    return [ic for ic in seen["interconnects"] if ic.packets_routed]


@pytest.mark.parametrize("subject", list(SUBJECTS))
def test_reference_mode_turns_every_fast_path_off(subject, built):
    run = SUBJECTS[subject][0]
    run(True)
    assert built["machines"]
    assert all(m.cpu.xlat_hits == 0 for m in built["machines"])
    assert all(ic.packet_pool is None for ic in _backplanes(built))
    assert built["plan_builds"] == built["fast_sends"] == 0
    assert built["fast_polls"] == 0


@pytest.mark.parametrize("subject", list(SUBJECTS))
def test_default_mode_reaches_every_fast_path(subject, built):
    run, sends_on_plans, recycles_packets, polls_fast = SUBJECTS[subject]
    run(False)
    assert any(m.cpu.xlat_hits for m in built["machines"])
    assert (built["fast_sends"] > 0) is sends_on_plans
    assert (built["fast_polls"] > 0) is polls_fast
    backplanes = _backplanes(built)
    if recycles_packets is None:
        assert not backplanes
        return
    assert backplanes
    assert all(ic.packet_pool is not None for ic in backplanes)
    reuses = sum(ic.packet_pool.packet_reuses for ic in backplanes)
    assert (reuses > 0) is recycles_packets
