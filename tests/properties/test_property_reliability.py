"""Property-based loss recovery: exactly-once, in-order delivery.

Hypothesis drives a seeded fault plan (per-wire drop / duplicate /
reorder decisions) against a small cluster with the ack/retransmit
transport enabled, and asserts the transport's contract end to end:
every message sent on a channel is written to receiver memory exactly
once and in per-channel sequence order, with zero delivery failures,
and the plane quiesces with nothing left in flight.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import ClusterConfig, Receiver, Sender, ShrimpCluster
from repro.net.reliable import ReliabilityConfig

PAGE = 4096
SLOT = 64  # one message slot in the receive buffer
MSG = 32  # message payload size

# The retry budget must exceed the worst case where every fault in the
# plan lands on the same packet's retransmissions (plus one packet held
# by the reorder arm at end-of-run, which is dropped and re-sent).
_PLAN_MAX = 25
_CONFIG = ReliabilityConfig(
    timeout_cycles=3_000,
    backoff=2,
    max_timeout_cycles=12_000,
    max_retries=_PLAN_MAX + 5,
)


class PlanInjector:
    """Replays a drawn fault plan, one decision per routed wire.

    ``hold`` keeps a packet back and releases it behind the *next wire
    of the same directed channel* (true reordering -- releasing behind
    traffic of another channel would misroute it, since the backplane
    delivers every injector output to the current route's destination).
    A packet still held when the run drains is effectively dropped;
    sender retransmission recovers it, so the run always converges.
    """

    def __init__(self, plan):
        self.plan = list(plan)
        self.held = {}  # (src, dst) -> held packet

    @staticmethod
    def _key(wire):
        return (wire.src_node, wire.dst_node)

    def __call__(self, wire):
        key = self._key(wire)
        held = self.held.pop(key, None)
        op = self.plan.pop(0) if self.plan else "ok"
        if op == "drop":
            out = [None]
        elif op == "dup":
            out = [wire, wire]
        elif op == "hold" and held is None:
            self.held[key] = wire
            return []
        else:  # "ok", or a hold that swaps with the already-held packet
            out = [wire]
        if held is not None:
            out = out + [held]  # release the held packet, reordered
        return out


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
    plan = data.draw(
        st.lists(st.sampled_from(["ok", "drop", "dup", "hold"]),
                 max_size=_PLAN_MAX),
        label="plan",
    )

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

    cluster.interconnect.fault_injector = PlanInjector(plan)

    counts = [0] * nodes  # messages sent so far per channel
    expect = []  # (channel_idx, slot, payload)
    for channel_idx in sends:
        slot = counts[channel_idx] * SLOT
        payload = _payload(channel_idx, counts[channel_idx])
        counts[channel_idx] += 1
        senders[channel_idx].send_bytes(payload, channel_offset=slot)
        expect.append((channel_idx, slot, payload))
    cluster.run_until_idle()

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
