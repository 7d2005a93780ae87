"""The delivery twin's contract: faults absorbed, not counted.

With the ack/retransmit transport enabled, a chaos campaign is held to a
stronger standard than "no invariant broke": every wire fault the
schedule injects must be *absorbed* -- the faulted run ends with the
same memory image as its fault-free twin, every tracked message
delivered, zero retry budgets exhausted.  These tests cover the oracle
itself (twin construction, verdicts, non-vacuousness) and the reliable
campaign entry point, and pin that reliability-off campaigns are
untouched by any of it.
"""

import copy

import pytest

from repro.chaos import (
    TWINS,
    generate_schedule,
    run_chaos,
    strip_wire_faults,
)
from repro.net.faults import FAULT_OPS

RELIABLE = ("fast-paths", "delivery")


# ----------------------------------------------------- twin construction
def test_strip_wire_faults_removes_only_wire_faults():
    actions = generate_schedule(seed=9, steps=200)
    stripped = strip_wire_faults(actions)
    # A 200-step schedule at the default weights always draws some faults.
    assert len(stripped) < len(actions)
    assert all(a.kind not in FAULT_OPS for a in stripped)
    # Everything else survives, in original order.
    assert stripped == [a for a in actions if a.kind not in FAULT_OPS]


def test_strip_is_idempotent():
    actions = generate_schedule(seed=9, steps=100)
    once = strip_wire_faults(actions)
    assert strip_wire_faults(once) == once


# --------------------------------------------- stores racing a retransmit
#: Shrunk reproducers of seeds 12, 36 and 42 (``chaos --oracle delivery
#: --nodes 2``).  Each faults a send, then a CPU ``write`` lands on the rx
#: rig of the node that send targets.  The retransmitted delivery lands
#: after that store where the fault-free twin's delivery landed before
#: it, so the bytes under the store differ: an application race, not a
#: convergence failure.  Reliable worlds route writes to a DMA-free
#: scratch rig, as IOMMU worlds do.  A wire fault hits the next free
#: packet of its lane (``arg`` bit 1: the reverse lane), so each row's
#: fault names the send's own data lane; seed 36's fault is the campaign's
#: step-86 corruption, since its step-2 one lands on the ACK lane.
STORE_RACES = {
    12: [
        ("drop", 18, 4, 43, 1362, 6),
        ("send", 29, 3, 25, 1123, 1),
        ("touch", 23, 7, 39, 1878, 2),
        ("write", 26, 1, 30, 1068, 0),
    ],
    36: [
        ("send", 55, 5, 34, 319, 6),
        ("corrupt", 6, 6, 40, 1762, 3),
        ("send", 25, 2, 36, 1848, 6),
        ("write", 22, 1, 16, 1903, 4),
    ],
    42: [
        ("corrupt", 49, 0, 48, 1954, 0),
        ("send", 55, 7, 3, 1593, 5),
        ("write", 46, 7, 19, 1784, 2),
    ],
}


@pytest.mark.parametrize("seed", sorted(STORE_RACES))
def test_store_racing_a_retransmission_is_not_a_divergence(seed):
    from repro.chaos.actions import Action

    fields = ("kind", "node", "proc", "page", "size", "arg")
    actions = [Action(**dict(zip(fields, row))) for row in STORE_RACES[seed]]
    report = run_chaos(nodes=2, oracles=("delivery",), actions=actions)
    delivery = report.twin("delivery")
    assert delivery.ok, delivery.mismatches[:3]
    assert report.ok, report.failure_message
    # the fault really hit the racing send: the transport had to resend
    assert delivery.runs[0].counters["rel.retransmits"] > 0


# ------------------------------------------------------- reliable campaigns
@pytest.mark.parametrize("seed", [7, 11, 23])
def test_reliable_campaign_converges(seed):
    """Drop/dup/corrupt/reorder schedules with reliability on: the run is
    clean AND the delivery oracle proves convergence to the fault-free
    memory image with zero lost messages."""
    report = run_chaos(seed=seed, steps=100, nodes=2, oracles=RELIABLE)
    assert report.ok, report.failure_message
    delivery = report.twin("delivery")
    assert delivery.ok, delivery.mismatches[:3]
    faulted = delivery.runs[0]
    assert faulted is report.fast  # the audited run is the faulted twin
    assert faulted.counters.get("rel.delivery_failed", 0) == 0
    sent = faulted.counters.get("rel.messages_sent", 0)
    got = faulted.counters.get("rel.messages_delivered", 0)
    assert sent == got


def test_reliable_campaign_three_nodes():
    report = run_chaos(seed=7, steps=120, nodes=3, oracles=RELIABLE)
    assert report.ok, report.failure_message
    assert report.twin("delivery").ok


def test_reliable_campaign_is_deterministic():
    first = run_chaos(seed=11, steps=80, nodes=2, oracles=RELIABLE)
    second = run_chaos(seed=11, steps=80, nodes=2, oracles=RELIABLE)
    assert first.ok and second.ok
    assert first.fast.counters == second.fast.counters
    assert first.fast.mem_digest == second.fast.mem_digest
    # the reliability counters are part of the deterministic surface
    rel = {k for k in first.fast.counters if k.startswith("rel.")}
    assert "rel.messages_sent" in rel


# ----------------------------------------------------- off-mode unchanged
def test_reliability_off_campaign_has_no_delivery_verdict():
    """Default campaigns are byte-for-byte the historical harness: no
    delivery oracle, no ``rel.*`` counters in the observable surface."""
    report = run_chaos(seed=7, steps=80, nodes=2)
    assert report.ok
    assert [t.twin for t in report.twins] == ["fast-paths"]
    assert not any(k.startswith("rel.") for k in report.fast.counters)


# ------------------------------------------------------------- the twin
def test_oracle_requires_a_reliable_explorer():
    """The twin needs a cluster and switches the transport on itself."""
    assert TWINS["delivery"].requires == {"cluster", "reliability"}
    with pytest.raises(ValueError, match="cluster"):
        run_chaos(steps=10, nodes=1, oracles=("delivery",))
    report = run_chaos(seed=3, steps=30, oracles=("delivery",))
    assert report.nodes == 2
    assert "rel.messages_sent" in report.fast.counters


def test_oracle_flags_planted_loss():
    """Non-vacuousness: a faulted run whose transport counters admit a
    lost message, or whose memory diverges, must be rejected."""
    actions = generate_schedule(seed=13, steps=60)
    healthy = run_chaos(nodes=2, actions=actions, oracles=("delivery",))
    verdict = healthy.twin("delivery")
    assert verdict.ok, verdict.mismatches[:3]
    twin = TWINS["delivery"]

    def forged(mutate):
        faulted, clean = copy.deepcopy(verdict.runs)
        mutate(faulted)
        return twin.compare(verdict.labels, [faulted, clean])

    lost = forged(lambda run: run.counters.__setitem__(
        "rel.messages_delivered", run.counters["rel.messages_delivered"] - 1))
    assert any("lost messages" in m for m in lost)

    exhausted = forged(lambda run: run.counters.__setitem__(
        "rel.delivery_failed", 1))
    assert any("retry budget" in m for m in exhausted)

    diverged = forged(lambda run: setattr(run, "mem_digest", "not-the-real-digest"))
    assert any("memory digest" in m for m in diverged)
