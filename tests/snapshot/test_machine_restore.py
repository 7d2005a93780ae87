"""Whole-system snapshot, restore and fork: Machine and ShrimpCluster.

The restore-equivalence contract at system level: interrupting a
workload with snapshot+restore (or fork) must not change a single
simulated number.  Directed cases pin down the hard mid-flight states:
a reliability plane with a retransmit timer armed, an IOMMU holding a
parked fault queue, a captable backend carrying minted capabilities.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import ClusterConfig, Machine, MachineConfig, ShrimpCluster
from repro.bench.workloads import make_payload
from repro.chaos import Action, ChaosWorld, generate_schedule
from repro.devices import SinkDevice
from repro.snapshot import fork, restore, snapshot
from repro.userlib import DeviceRef, MemoryRef, Sender, UdmaUser

from tests.snapshot._equiv import observe, run_plain, run_snapshotted

MSG = 2048


def _mem_digest(machine: Machine) -> str:
    return hashlib.sha256(machine.physmem.read(0, machine.physmem.size)).hexdigest()


def _udma_rig() -> tuple:
    """(machine, udma, buf, grant): all-repro graph, snapshot-safe."""
    machine = Machine(config=MachineConfig(mem_size=1 << 19))
    sink = SinkDevice("sink", size=1 << 16)
    machine.attach_device(sink)
    process = machine.create_process("app")
    buf = machine.kernel.syscalls.alloc(process, MSG)
    grant = machine.kernel.syscalls.grant_device_proxy(process, "sink")
    udma = UdmaUser(machine, process)
    machine.cpu.write_bytes(buf, make_payload(MSG))
    machine.run_until_idle()
    return machine, udma, buf, grant


def _send(rig: tuple, n: int) -> None:
    machine, udma, buf, grant = rig
    for _ in range(n):
        udma.transfer(MemoryRef(buf), DeviceRef(grant), MSG)
        machine.run_until_idle()


def test_machine_snapshot_mid_workload_restores_equivalently():
    plain = _udma_rig()
    _send(plain, 8)

    snapped = _udma_rig()
    _send(snapped, 3)
    twin = restore(snapshot(snapped))
    _send(twin, 5)

    assert twin[0].now == plain[0].now
    assert _mem_digest(twin[0]) == _mem_digest(plain[0])
    assert twin[0].clock.events_fired == plain[0].clock.events_fired


def test_machine_metrics_survive_restore():
    rig = _udma_rig()
    _send(rig, 4)
    twin = restore(snapshot(rig))
    assert twin[0].metrics() == rig[0].metrics()
    _send(twin, 1)  # sampled reads must be live again, not detached
    assert twin[0].metrics() != rig[0].metrics()


def test_machine_fork_is_independent():
    rig = _udma_rig()
    _send(rig, 2)
    branch = fork(rig)
    before = (_mem_digest(rig[0]), rig[0].now)
    _send(branch, 4)
    assert (_mem_digest(rig[0]), rig[0].now) == before
    assert branch[0].now > rig[0].now


def test_fork_scenario_branching_diverges_then_matches():
    """Two forks of one machine driven down different futures."""
    rig = _udma_rig()
    _send(rig, 1)
    branch_a = fork(rig)
    branch_b = fork(rig)
    _send(branch_a, 1)
    _send(branch_b, 3)
    assert branch_a[0].now != branch_b[0].now
    # Driving A the rest of the way must land exactly on B's state.
    _send(branch_a, 2)
    assert branch_a[0].now == branch_b[0].now
    assert _mem_digest(branch_a[0]) == _mem_digest(branch_b[0])


def _pingpong(reference: bool) -> tuple:
    cluster = ShrimpCluster(
        config=ClusterConfig(num_nodes=2, mem_size=1 << 19, reference=reference)
    )
    procs = [cluster.node(i).create_process(f"p{i}") for i in range(2)]
    bufs = [
        cluster.node(i).kernel.syscalls.alloc(procs[i], MSG) for i in range(2)
    ]
    ch01 = cluster.create_channel(0, 1, procs[1], bufs[1], MSG)
    ch10 = cluster.create_channel(1, 0, procs[0], bufs[0], MSG)
    senders = [Sender(cluster, procs[0], ch01), Sender(cluster, procs[1], ch10)]
    for sender in senders:
        sender._ensure_current()
        sender.machine.cpu.write_bytes(sender.buffer, make_payload(MSG))
    cluster.run_until_idle()
    return cluster, senders


def _rally(state: tuple, rounds: int) -> None:
    cluster, senders = state
    for _ in range(rounds):
        senders[0].send_buffer(MSG)
        cluster.run_until_idle()
        senders[1].send_buffer(MSG)
        cluster.run_until_idle()


@pytest.mark.parametrize("reference", [False, True], ids=["pooled", "unpooled"])
def test_cluster_snapshot_mid_pingpong(reference):
    plain = _pingpong(reference)
    _rally(plain, 6)

    snapped = _pingpong(reference)
    _rally(snapped, 2)
    twin = restore(snapshot(snapped))
    _rally(twin, 4)

    assert twin[0].now == plain[0].now
    for i in range(2):
        assert _mem_digest(twin[0].node(i)) == _mem_digest(plain[0].node(i))
    assert twin[0].obs.registry.snapshot() == plain[0].obs.registry.snapshot()


def test_cluster_fork_branches_do_not_share_state():
    state = _pingpong(True)
    _rally(state, 1)
    branch = fork(state)
    _rally(branch, 2)
    assert branch[0].now != state[0].now
    assert (
        branch[0].obs.registry.snapshot() != state[0].obs.registry.snapshot()
    )


# ----------------------------------------------------- directed mid-states
def test_reliability_retransmit_timer_pending_at_snapshot():
    """Snapshot taken while an unacked packet's retry timer is armed."""
    actions = generate_schedule(2, 40)

    world = ChaosWorld(nodes=2, reliability=True)
    log = []
    snap_at = None
    for i, action in enumerate(actions):
        log.append(world.apply(action))
        if world.cluster.reliability.in_flight() > 0:
            snap_at = i + 1
            break
    assert snap_at is not None, (
        "schedule must catch an unacked packet with its timer armed"
    )

    twin = restore(snapshot(world))
    assert (
        twin.cluster.reliability.in_flight()
        == world.cluster.reliability.in_flight()
        > 0
    )
    for action in actions[snap_at:]:
        log.append(twin.apply(action))
    twin.settle()
    got = observe(twin, log)

    assert got == run_plain(actions, nodes=2, reliability=True)
    assert twin.cluster.reliability.in_flight() == 0  # drained to acked


def test_iommu_parked_fault_queue_at_snapshot():
    """Snapshot taken while the IOMMU holds parked (faulted) transfers."""
    actions = generate_schedule(8, 60, profile="paging")

    def parked(world: ChaosWorld) -> int:
        return sum(m.iommu.parked_count for m in world.machines)

    world = ChaosWorld(nodes=2, iommu=True)
    log = []
    snap_at = None
    for i, action in enumerate(actions):
        log.append(world.apply(action))
        if parked(world) > 0:
            snap_at = i + 1
            break
    assert snap_at is not None, "schedule must park at least one transfer"

    twin = restore(snapshot(world))
    assert parked(twin) == parked(world) > 0
    for action in actions[snap_at:]:
        log.append(twin.apply(action))
    twin.settle()
    got = observe(twin, log)

    assert got == run_plain(actions, nodes=2, iommu=True)
    assert parked(twin) == 0  # restored faults were serviced to completion


def test_captable_minted_capabilities_at_snapshot():
    """Snapshot taken while the captable backend holds minted caps."""
    actions = generate_schedule(11, 30, profile="churn")
    k = 12

    world = ChaosWorld(nodes=2, protection="captable")
    log = [world.apply(a) for a in actions[:k]]
    caps = [m.protection._caps for m in world.machines]
    assert any(caps), "churn schedule must leave minted capabilities"

    twin = restore(snapshot(world))
    assert [m.protection._caps for m in twin.machines] == caps
    assert [m.protection.generation for m in twin.machines] == [
        m.protection.generation for m in world.machines
    ]
    for action in actions[k:]:
        log.append(twin.apply(action))
    twin.settle()
    assert observe(twin, log) == run_plain(
        actions, nodes=2, protection="captable"
    )


def test_run_snapshotted_helper_matches_plain():
    actions = generate_schedule(7, 25)
    assert run_snapshotted(actions, 10, nodes=2) == run_plain(actions, nodes=2)
