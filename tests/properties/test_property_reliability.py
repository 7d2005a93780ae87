"""Property-based loss recovery: exactly-once, in-order delivery.

Hypothesis draws a fault plan -- ``(lane, ordinal, op)`` entries of a
:class:`~repro.net.faults.FaultPlan`, on the ring's data lanes and on
their reverse (ACK) lanes -- against a small cluster with the
ack/retransmit transport enabled, and asserts the transport's contract
end to end: every message sent on a channel is written to receiver
memory exactly once and in per-channel sequence order, with zero
delivery failures, and the plane quiesces with nothing left in flight.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import ClusterConfig, Receiver, Sender, ShrimpCluster
from repro.net.faults import FAULT_OPS, FaultPlan
from repro.net.reliable import ReliabilityConfig

PAGE = 4096
SLOT = 64  # one message slot in the receive buffer
MSG = 32  # message payload size

# The retry budget must exceed the worst case where every entry in the
# plan lands on the same packet's retransmissions.  A held packet is
# released behind its lane's next packet (a retransmission, if nothing
# else) or when the run settles, so it never costs more than one retry.
_PLAN_MAX = 25
_CONFIG = ReliabilityConfig(
    timeout_cycles=3_000,
    backoff=2,
    max_timeout_cycles=12_000,
    max_retries=_PLAN_MAX + 5,
)


def _payload(channel_idx: int, msg_idx: int) -> bytes:
    return bytes([0x10 + channel_idx, 0x40 + msg_idx]) * (MSG // 2)


@given(data=st.data())
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_seeded_faults_deliver_exactly_once_in_order(data):
    nodes = data.draw(st.integers(min_value=2, max_value=4), label="nodes")
    # A ring of directed channels: node i sends to node (i+1) % nodes.
    sends = data.draw(
        st.lists(st.integers(0, nodes - 1), min_size=1, max_size=8),
        label="sends",
    )
    # (sender, reverse lane?, ordinal on the lane, op, corrupted byte).
    # Ordinals span the whole plan, so every entry can sit on one lane's
    # consecutive packets; no two entries name the same packet.
    entries = data.draw(
        st.lists(
            st.tuples(st.integers(0, nodes - 1), st.booleans(),
                      st.integers(0, _PLAN_MAX - 1), st.sampled_from(FAULT_OPS),
                      st.integers(0, 255)),
            max_size=_PLAN_MAX,
            unique_by=lambda e: (_lane(nodes, e[0], e[1]), e[2]),
        ),
        label="plan",
    )
    _deliver_exactly_once_in_order(nodes, sends, entries)


def test_every_op_lands_on_data_and_ack_lanes():
    """A fixed plan the drawn ones may miss: each op on a data lane and
    on an ACK lane, every entry reached, and the same contract holds."""
    entries = [
        (0, reverse, n, op, 9)
        for reverse in (False, True)
        for n, op in enumerate(FAULT_OPS)
    ]
    plan = _deliver_exactly_once_in_order(2, [0] * 6, entries)
    assert plan.routed[(0, 1)] > len(FAULT_OPS)  # data lane
    assert plan.routed[(1, 0)] > len(FAULT_OPS)  # ACK lane


def _lane(nodes, node, reverse):
    """Node ``node``'s ring (data) lane, or its reverse (ACK) lane."""
    src, dst = node, (node + 1) % nodes
    return (dst, src) if reverse else (src, dst)


def _deliver_exactly_once_in_order(nodes, sends, entries):
    """Send ``sends`` (one message per listed channel) under the plan
    ``entries``; assert the transport's contract; return the plan."""
    cluster = ShrimpCluster(
                  config=ClusterConfig(
                      num_nodes=nodes,
                      mem_size=1 << 21,
                      reliability=_CONFIG,
                  ),
              )
    senders, receivers = [], []
    for i in range(nodes):
        dst = (i + 1) % nodes
        rx = cluster.node(dst).create_process(f"rx{i}")
        buf = cluster.node(dst).kernel.syscalls.alloc(rx, 4 * PAGE)
        channel = cluster.create_channel(i, dst, rx, buf, 4 * PAGE)
        tx = cluster.node(i).create_process(f"tx{i}")
        senders.append(Sender(cluster, tx, channel))
        receivers.append(Receiver(cluster, rx, channel))

    # Observe the packets the transport releases to the receive DMA.
    accepted = {i: [] for i in range(nodes)}

    def _tap(nic, dst):
        orig = nic._accept

        def wrapped(packet):
            accepted[dst].append((packet.src_node, packet.seq))
            orig(packet)

        nic._accept = wrapped

    for i, nic in enumerate(cluster.nics):
        _tap(nic, i)

    plan = FaultPlan(cluster.interconnect)
    for node, reverse, n, op, salt in entries:
        plan.add(*_lane(nodes, node, reverse), op, salt=salt, n=n)

    counts = [0] * nodes  # messages sent so far per channel
    expect = []  # (channel_idx, slot, payload)
    for channel_idx in sends:
        slot = counts[channel_idx] * SLOT
        payload = _payload(channel_idx, counts[channel_idx])
        counts[channel_idx] += 1
        senders[channel_idx].send_bytes(payload, channel_offset=slot)
        expect.append((channel_idx, slot, payload))
    plan.run_until_idle()

    plane = cluster.reliability
    # The transport converged: nothing lost, nothing still in flight.
    assert plane.delivery_failed == 0
    assert plane.in_flight() == 0
    assert plane.messages_sent == plane.messages_delivered == len(sends)

    # Exactly once, in order, per directed channel.
    for channel_idx in range(nodes):
        dst = (channel_idx + 1) % nodes
        seqs = [s for (src, s) in accepted[dst] if src == channel_idx]
        assert seqs == list(range(1, counts[channel_idx] + 1))

    # And the bytes actually landed where they were sent.
    for channel_idx, slot, payload in expect:
        got = receivers[channel_idx].recv_bytes(MSG, offset=slot)
        assert got == payload
    return plan
