"""Cross-shard packet handoff, the ring step, and the step log's records."""

from __future__ import annotations

import re

from repro.net.packet import Packet
from repro.sharding import ClusterSpec, InProcessEngine, WorkerEngine
from repro.sharding.engine import build_shards
from repro.sharding.shard import Shard
from repro.userlib.messaging import Sender


def _spec(**overrides) -> ClusterSpec:
    fields = dict(num_nodes=4, topology="linear", messages_per_node=3)
    fields.update(overrides)
    return ClusterSpec(**fields)


def test_in_process_arrival_is_a_private_packet(monkeypatch):
    arrivals = []
    real = Shard.ingest

    def spy(self, src, dst, arrival, chseq, wire):
        arrivals.append(wire)
        real(self, src, dst, arrival, chseq, wire)

    monkeypatch.setattr(Shard, "ingest", spy)
    engine = InProcessEngine(_spec(), num_shards=2)
    result = engine.run()
    assert arrivals, "the ring must cross the shard boundary"
    for wire in arrivals:
        # Not a pooled shell: the receiving shard never recycles it into
        # a pool it does not own, and the sender's recycling never
        # empties it.
        assert type(wire) is Packet
        assert not wire._pooled
        assert len(wire.payload) == _spec().msg_bytes
    # Every shell either pool lent came home: the sending shard took back
    # the ones whose packets crossed to the other shard.
    for shard in engine.shards:
        pool = shard.interconnect.packet_pool
        assert pool.releases == pool.packet_allocs + pool.packet_reuses > 0
    assert result.sent == 4 * 3


def test_worker_peers_exchange_private_packets():
    # Without an in-process peer a shard's cross-shard packets go to its
    # outbox (what the worker engine relays) as the same private,
    # non-pooled packets the in-process engine hands over.  Null messages
    # saying "no more traffic" let every node run to the end.
    spec = _spec()
    shards = build_shards(spec, 2)
    for shard in shards:
        for src, dst in spec.links():
            shard.set_chan_bound(src, dst, None)
        shard.run_until_blocked()
    outbox = [msg for shard in shards for msg in shard.outbox]
    assert outbox, "the ring must cross the shard boundary"
    for *_head, packet in outbox:
        assert type(packet) is Packet
        assert not packet._pooled
        assert len(packet.payload) == spec.msg_bytes
    # Relay the outboxes as a worker round does and drain the arrivals:
    # every shell either pool lent came home, the crossing ones included.
    owner = {node: shard for shard in shards for node in shard.shard_spec.nodes}
    for msg in outbox:
        owner[msg[1]].ingest(*msg)
    for shard in shards:
        shard.outbox = []
        shard.run_until_blocked()
        assert shard.idle()
        pool = shard.interconnect.packet_pool
        assert pool.releases == pool.packet_allocs + pool.packet_reuses > 0
    assert sum(
        rt.nic.packets_received for shard in shards for rt in shard.runtimes.values()
    ) == spec.num_nodes * spec.messages_per_node
    worker = WorkerEngine(spec, num_shards=2).run()
    in_process = InProcessEngine(spec, num_shards=2).run()
    assert worker.logs == in_process.logs
    assert worker.digests == in_process.digests


def test_step_records_format_the_historical_lines():
    result = InProcessEngine(_spec(), num_shards=2).run()
    node0 = [line for line in result.logs if line.startswith("n000 ")]
    assert len(node0) == 3 + 1
    for k, line in enumerate(node0[:-1], start=1):
        assert re.fullmatch(
            rf"n000 {k:04d} sent  m={k}/3 t=\d+ r=0", line
        ), line
    assert node0[-1].startswith("n000 done  sent=3 retries=0 rx=3 t=")
    # Records are (outcome, now) pairs; the formatted list is an ordinary
    # mutable list that keeps a reader's edit.
    _node_id, total, records, _summary = result.log_records[0]
    assert total == 3
    assert all(outcome == "sent" for outcome, _now in records)
    result.logs[0] = "edited"
    assert result.logs[0] == "edited"


def test_busy_steps_count_as_retries():
    # Back-to-back sends on a tiny gap find the device still busy.
    result = InProcessEngine(_spec(gap_cycles=10), num_shards=1).run()
    assert result.retries > 0
    busy = [line for line in result.logs if " busy " in line]
    assert len(busy) == result.retries
    last = {}
    for line in result.logs:
        match = re.match(r"n(\d{3}) (\d{4}) (sent|busy)  m=(\d+)/3 t=\d+ r=(\d+)", line)
        if match:
            node, step, _outcome, sent, retries = match.groups()
            assert int(step) == int(sent) + int(retries)
            last[node] = int(retries)
    assert sum(last.values()) == result.retries


def test_each_ring_step_is_one_sender_try_send(monkeypatch):
    # The ring sends through the library's own Sender: every step, sent
    # or busy, is exactly one try_send on the node's ring channel.
    calls = []
    real = Sender.try_send

    def spy(self, nbytes, *args, **kwargs):
        calls.append((self.channel.src_node, self.channel.dst_node, nbytes))
        return real(self, nbytes, *args, **kwargs)

    monkeypatch.setattr(Sender, "try_send", spy)
    spec = _spec(gap_cycles=50)
    result = InProcessEngine(spec, num_shards=2).run()
    assert result.retries > 0
    assert len(calls) == result.sent + result.retries
    assert set(calls) == {
        (src, dst, spec.msg_bytes) for src, dst in spec.links()
    }
