"""One shard of a partitioned SHRIMP cluster.

A :class:`Shard` owns a contiguous block of nodes, each built on its own
:class:`~repro.sim.clock.ShardClock`, plus a :class:`ShardInterconnect`
that intercepts the routing backplane: deliveries to local nodes are
scheduled as keyed arrival events, deliveries to remote nodes become
cross-shard handoffs (the *only* inter-shard channel).

Execution is conservative PDES.  A node's next **operation** is either
its earliest queued event or its next workload step; operations execute
strictly in canonical ``(time, key)`` order per node, and an operation
may only execute while it is provably safe: earlier than every in-link's
*bound* (the link source's promised next-operation time plus the link's
lookahead -- the minimum wire latency).  Bounds only ever gate
execution, never reorder it, which is the whole determinism argument:
the per-node operation sequence -- and hence every cycle count, counter
and memory image -- is a pure function of the
:class:`~repro.sharding.spec.ClusterSpec`, identical at any shard count
and under either engine.

Each node sends on its ring link as a program on a
:class:`~repro.cluster.ShrimpCluster` does: through a
:class:`~repro.userlib.messaging.Sender` on a
:class:`~repro.cluster.Channel`, with the :class:`Shard` as the sender's
cluster.

Workload steps are *atomic*: the node's CPU charges cycles without
firing events (:class:`~repro.sim.clock.ShardClock` defers them), so a
step is one indivisible operation.  A step is the message stamp plus one
:meth:`~repro.userlib.messaging.Sender.try_send` -- the paper's
two-instruction initiation and its alignment check, through the sender's
validated send plan, never ``wait=True`` polling: a bounded,
non-blocking step that cannot need to coast the clock.  The plan's
batched cycle charge is exact here because charging never fires an
event.

A packet bound for another shard's node crosses as a private, non-pooled
:class:`~repro.net.packet.Packet` under either engine (the worker engine
pickles it through its relay); wire bytes appear only where a fault
injector rewrote a packet, and sharded mode refuses injectors.
"""

from __future__ import annotations

import hashlib
from functools import partial
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.workloads import make_payload
from repro.cluster import (
    build_node,
    export_receive_buffer,
    install_channel,
    node_counters,
)
from repro.config import ClusterConfig
from repro.errors import ConfigurationError, DmaError
from repro.kernel.invariants import InvariantChecker
from repro.kernel.process import Process
from repro.machine import Machine
from repro.net.interconnect import Interconnect
from repro.net.nic import ShrimpNic
from repro.net.packet import Packet
from repro.net.pool import PacketPool
from repro.obs import Observability, ObsConfig
from repro.sharding.spec import RETRY_GAP_CYCLES, ClusterSpec, ShardSpec
from repro.sim.clock import Clock, ShardClock
from repro.userlib.messaging import Sender

#: canonical key class of a workload step: sorts after every hardware
#: event (empty key) and every network arrival ((1, src, seq)) at the
#: same cycle
STEP_KEY: Tuple = (2,)

#: "no bound" sentinel (an unreachable simulated time)
INFINITY = float("inf")


class ShardInterconnect(Interconnect):
    """The backplane as seen from inside one shard.

    Latency accounting (hops, per-hop cycles) is inherited; delivery is
    redirected to the owning shard's :meth:`Shard.handoff`, which either
    schedules a keyed arrival on a local node's clock or emits a
    cross-shard handoff.  Span tracking and fault injectors are not
    supported in sharded mode; assigning an injector raises.
    """

    def __init__(self, shard: "Shard", config: ClusterConfig) -> None:
        super().__init__(
            Clock(),  # never consulted: spans are off and delivery is keyed
            config.costs,
            topology=config.topology,
            mesh_width=config.mesh_width,
        )
        self.validate_topology(config.num_nodes)
        self._shard = shard
        if not config.reference:
            # One pool per shard: a packet leaving the shard is a
            # private, non-pooled copy, so no shell crosses a boundary.
            self.packet_pool = PacketPool()

    @property
    def fault_injector(self) -> None:
        return None

    @fault_injector.setter
    def fault_injector(self, injector) -> None:
        if injector is not None:
            raise ConfigurationError(
                "wire-fault injection is not supported in sharded mode "
                "(ROADMAP item 4: a FaultPlan keyed by each lane's chseq)"
            )

    def route(self, src_node: int, dst_node: int, wire: Packet) -> None:
        delay = self._delay_cache.get((src_node, dst_node))
        if delay is None:
            delay = self.route_delay(src_node, dst_node)
        self.packets_routed += 1
        self.bytes_routed += Packet.HEADER_BYTES + len(wire.payload)
        self._shard.handoff(src_node, dst_node, delay, wire)


@dataclass
class NodeRuntime:
    """One node's simulation state plus its self-driving send schedule.

    The schedule's shape (message size, gap, message count) is read from
    the shard's :class:`~repro.sharding.spec.ClusterSpec`; a runtime holds
    only what differs per node.
    """

    node_id: int
    machine: Machine
    nic: ShrimpNic
    clock: ShardClock
    #: the transmit side of the node's ring link
    sender: Sender
    next_step: Optional[int]
    #: the receive side: the process owning the buffer the ring writes
    rx_proc: Process
    rx_buf: int
    in_links: List[Tuple[int, int]] = field(default_factory=list)
    #: the node is one of its own in-link sources, so its own operations
    #: can lower its bound (see :meth:`Shard.run_until_blocked`)
    self_fed: bool = False
    sent: int = 0
    retries: int = 0
    #: one ``(outcome, now)`` record per step; :func:`format_log` turns
    #: them into the step log's lines
    log: List[Tuple[str, int]] = field(default_factory=list)


def format_log(
    node_id: int, messages_total: int, records: List[Tuple[str, int]]
) -> List[str]:
    """The step log lines of one node, from its ``(outcome, now)`` records.

    A step either sends (``"sent"``) or finds the device busy
    (``"busy"``), so the step number and the running sent and retry
    counts follow from a record's position and the outcomes before it.
    """
    lines = []
    sent = retries = 0
    for steps, (outcome, now) in enumerate(records, 1):
        if outcome == "sent":
            sent += 1
        else:
            retries += 1
        lines.append(
            f"n{node_id:03d} {steps:04d} {outcome:<5} "
            f"m={sent}/{messages_total} t={now} r={retries}"
        )
    return lines


def setup_node(shard: "Shard", node_id: int) -> NodeRuntime:
    """Run the per-node OS setup and return the workload runtime.

    Every node performs the identical sequence -- receive process and
    buffer, export, the ring link's NIPT install (naming the *canonical*
    frames), send process, the :class:`Sender`'s grant and buffer, buffer
    fill -- so construction is deterministic and the canonical-frame
    substitution is sound.  The check makes a divergence loud rather than
    a silent digest mismatch.
    """
    spec, canonical = shard.spec, tuple(shard.shard_spec.rx_frames)
    machine, nic = shard.node(node_id), shard.nic(node_id)
    npages = spec.channel_pages
    kernel = machine.kernel

    rx_proc = machine.create_process(f"rx{node_id}")
    rx_buf = kernel.syscalls.alloc(rx_proc, npages * machine.layout.page_size)
    # Virtual-address tier: the export registers the IOMMU windows and
    # leaves the buffer *cold* -- no residency, no pin, no frames -- so
    # the first delivery to each page parks, fault-services and replays.
    frames = export_receive_buffer(
        machine, rx_proc, rx_buf, npages, physical=not spec.iommu, warm=False
    )
    if canonical and frames != canonical:
        raise ConfigurationError(
            f"node {node_id} receive frames {frames} diverged from the "
            f"canonical {canonical}; deterministic construction is broken"
        )
    # The ring link node_id -> dst: identical construction makes this
    # node's own receive buffer (its canonical frames, or its asid and
    # vpages under the IOMMU tier) the destination's, so the NIPT entries
    # are knowable without touching the destination's shard.
    channel = install_channel(
        nic, spec.dst_of(node_id), rx_proc, rx_buf, npages, frames,
        physical=not spec.iommu,
    )
    tx_proc = machine.create_process(f"tx{node_id}")
    sender = Sender(shard, tx_proc, channel)
    kernel.scheduler.switch_to(tx_proc)
    machine.cpu.write_bytes(
        sender.buffer, make_payload(spec.msg_bytes, seed=1 + node_id % 251)
    )
    return NodeRuntime(
        node_id=node_id,
        machine=machine,
        nic=nic,
        clock=machine.clock,  # type: ignore[arg-type]
        sender=sender,
        rx_proc=rx_proc,
        rx_buf=rx_buf,
        # Setup itself charges the node's clock (identically on every
        # node); the schedule is relative to that end so the per-node
        # jitter survives whatever setup costs.
        next_step=machine.clock.now + spec.start_cycle + spec.start_offset(node_id),
    )


def probe_canonical_frames(spec: ClusterSpec) -> Tuple[int, ...]:
    """Build a throwaway one-node shard; return its ring link's frames.

    Empty under the IOMMU tier: virtual NIPT entries carry (asid, vpage)
    and frames are assigned at fault-service time.
    """
    template = Shard(spec, ShardSpec(index=0, num_shards=1, nodes=(0,)))
    return template.runtimes[0].sender.channel.dst_frames


class Shard:
    """A block of nodes plus the conservative execution machinery."""

    def __init__(
        self,
        spec: ClusterSpec,
        shard_spec: ShardSpec,
        audit: bool = False,
    ) -> None:
        self.spec = spec
        self.shard_spec = shard_spec
        #: the nodes' configuration, shared with ShrimpCluster's builder
        self.config = spec.cluster_config()
        #: per-shard observability plane; node metrics land as node{i}.*
        self.obs = Observability(ObsConfig(metrics=True))
        self.interconnect = ShardInterconnect(self, self.config)
        self.runtimes: Dict[int, NodeRuntime] = {}
        #: this shard's own nodes: node id -> (machine, NIC)
        self._nodes: Dict[int, Tuple[Machine, ShrimpNic]] = {}
        self.order: List[int] = list(shard_spec.nodes)
        self.ops_executed = 0
        self.audit_count = 0
        #: packets this shard has handed off (local or cross-shard); a
        #: change invalidates every cached safe bound
        self.handoffs = 0
        self._checkers: Dict[int, InvariantChecker] = {}
        self._audit = audit
        #: per-(src, dst) channel sequence numbers, assigned in source
        #: causal order -- the second component of every arrival key
        self._chseq: Dict[Tuple[int, int], int] = {}
        #: cross-shard messages awaiting relay: (src, dst, arrival,
        #: chseq, packet)
        self.outbox: List[Tuple[int, int, int, int, Packet]] = []
        #: absolute safe bounds for cross-shard in-links, from null
        #: messages: (src, dst) -> promised time + lookahead
        self.chan_bound: Dict[Tuple[int, int], float] = {}
        #: engine override: called for cross-shard deliveries instead of
        #: the outbox (the in-process engine delivers immediately)
        self.deliver_remote: Optional[Callable[..., None]] = None
        #: engine override: live bound for a cross-shard in-link (the
        #: in-process engine reads the peer shard's promise directly)
        self.remote_bound: Optional[Callable[[int, int, int], float]] = None

        lookaheads = spec.lookaheads()
        links = spec.links()
        local = set(shard_spec.nodes)
        in_links: Dict[int, List[Tuple[int, int]]] = {}
        for src, dst in links:
            if dst in local:
                in_links.setdefault(dst, []).append((src, lookaheads[(src, dst)]))
        for node_id in self.order:
            machine, nic = self._nodes[node_id] = build_node(
                self.config, node_id, ShardClock(),
                self.interconnect, self.obs,
            )
            rt = setup_node(self, node_id)
            rt.in_links = in_links.get(node_id, [])
            rt.self_fed = any(s == node_id for s, _ in rt.in_links)
            self.runtimes[node_id] = rt
            if audit:
                self._checkers[node_id] = InvariantChecker(machine.kernel)
        self._cross_out = [
            (s, d, lookaheads[(s, d)])
            for (s, d) in links
            if s in local and d not in local
        ]
        self._bind_metrics()

    def node(self, index: int) -> Machine:
        """One of this shard's own nodes, by node id."""
        return self._nodes[index][0]

    def nic(self, index: int) -> ShrimpNic:
        """The NIC of one of this shard's own nodes, by node id."""
        return self._nodes[index][1]

    def _bind_metrics(self) -> None:
        """Register the shard-level backplane and execution counters."""
        reg = self.obs.registry
        ic = self.interconnect
        p = f"shard{self.shard_spec.index}."
        reg.counter(p + "backplane.packets_routed", ic, "packets_routed")
        reg.counter(p + "backplane.bytes_routed", ic, "bytes_routed")
        reg.counter(p + "ops_executed", self, "ops_executed")

    # ----------------------------------------------------------- delivery
    def handoff(self, src: int, dst: int, delay: int, wire: Packet) -> None:
        """Deliver a routed packet: keyed local arrival or cross-shard.

        The arrival time is the sending node's *current* cycle plus the
        wire delay; the key ``(1, src, chseq)`` fixes the arrival's rank
        among same-cycle operations at the destination, independent of
        which shard -- or which worker process -- performed the delivery.
        Another shard's node is handed a private packet, directly by the
        in-process engine or through the outbox the worker engine relays.
        """
        self.handoffs += 1
        arrival = self.runtimes[src].clock.now + delay
        chseq = self._chseq.get((src, dst), 0)
        self._chseq[(src, dst)] = chseq + 1
        rt = self.runtimes.get(dst)
        if rt is not None:
            # partial (not a lambda): in-flight handoffs are snapshot
            # state and must pickle with the shard clock's event queue.
            rt.clock.schedule_keyed(
                arrival, (1, src, chseq), partial(rt.nic.deliver, wire)
            )
            return
        # The packet itself crosses, never encoded: sharded mode refuses
        # fault injectors, so the wire cannot have changed.  The arrival
        # gets a private, non-pooled copy sharing the immutable payload,
        # and the pooled shell goes straight back to this shard's pool.
        if wire._pooled:
            arriving = Packet(
                wire.src_node, wire.dst_node, wire.dst_paddr,
                wire.payload, wire.seq, wire.kind,
            )
            self.interconnect.packet_pool.release(wire)
            wire = arriving
        if self.deliver_remote is not None:
            self.deliver_remote(src, dst, arrival, chseq, wire)
        else:
            self.outbox.append((src, dst, arrival, chseq, wire))

    def ingest(
        self, src: int, dst: int, arrival: int, chseq: int, wire: Packet
    ) -> None:
        """Accept a cross-shard arrival: a private :class:`Packet`."""
        rt = self.runtimes[dst]
        rt.clock.schedule_keyed(
            arrival, (1, src, chseq), partial(rt.nic.deliver, wire)
        )

    def set_chan_bound(self, src: int, dst: int, bound: "float | None") -> None:
        """Apply a null message: link (src, dst) is safe strictly below
        ``bound`` (None = the source is finished; no further traffic)."""
        self.chan_bound[(src, dst)] = INFINITY if bound is None else bound

    # ---------------------------------------------------------- operations
    def promise(self, rt: NodeRuntime) -> Optional[int]:
        """Lower bound on the node's next operation time (None = done).

        The earlier of the node's earliest event and its next workload
        step.  A step that fell behind the node's own clock (a long
        event burst) runs at ``now``; both inputs are per-node
        deterministic.
        """
        head = rt.clock.head()
        step = rt.next_step
        if step is not None and step < rt.clock.now:
            step = rt.clock.now
        if head is not None and (step is None or head[0] <= step):
            return head[0]
        return step

    def next_op(self, rt: NodeRuntime) -> Optional[Tuple[int, Tuple, str]]:
        """The node's earliest potential operation: (time, key, kind).

        Every event key (``()`` or ``(1, src, chseq)``) sorts before
        :data:`STEP_KEY`, so an event due at the promised time goes
        first.
        """
        due = self.promise(rt)
        if due is None:
            return None
        head = rt.clock.head()
        if head is not None and head[0] == due:
            return (due, head[1], "event")
        return (due, STEP_KEY, "step")

    def bound_for(self, rt: NodeRuntime) -> float:
        """Conservative safe horizon: min over in-links of promise + L."""
        bound = INFINITY
        for src, lookahead in rt.in_links:
            peer = self.runtimes.get(src)
            if peer is not None:
                p = self.promise(peer)
                b = INFINITY if p is None else p + lookahead
            elif self.remote_bound is not None:
                b = self.remote_bound(src, rt.node_id, lookahead)
            else:
                b = self.chan_bound.get((src, rt.node_id), 0)
            if b < bound:
                bound = b
        return bound

    def _execute_step(self, rt: NodeRuntime) -> None:
        """One atomic workload step: mark the message, initiate the send.

        Exactly the paper's user-level critical path -- alignment check,
        STORE to the destination proxy, fence, LOAD of the status word --
        as one :meth:`Sender.try_send`, with a busy device folded into
        the schedule as a deterministic retry.  No polling, no coasting:
        the step is bounded CPU work.
        """
        assert rt.next_step is not None
        spec = self.spec
        step_t = max(rt.next_step, rt.clock.now)
        if rt.clock.now < step_t:
            rt.clock.advance(step_t - rt.clock.now)  # idle until the step
        sender = rt.sender
        rt.machine.cpu.store(sender.buffer, rt.sent + 1)  # the app stamps its message
        try:
            started = sender.try_send(spec.msg_bytes)
        except DmaError as exc:
            raise DmaError(f"node {rt.node_id}: {exc}") from exc
        if started:
            rt.sent += 1
            outcome = "sent"
            rt.next_step = (
                step_t + spec.gap_cycles
                if rt.sent < spec.messages_per_node
                else None
            )
        else:
            rt.retries += 1
            outcome = "busy"
            rt.next_step = step_t + RETRY_GAP_CYCLES
        # A record, not a line: lines are formatted only when a reader
        # asks for ShardRunResult.logs.
        rt.log.append((outcome, rt.clock.now))

    # ------------------------------------------------------------- running
    def run_until_blocked(self) -> bool:
        """Execute every provably-safe operation; True if any ran.

        Node-at-a-time batching: each node runs until it blocks, and the
        sweep over the shard's nodes repeats until none advances.

        A node's bound is computed once per visit and recomputed only
        after something could have lowered an in-link source's promise:
        a handoff by this shard (it may schedule an arrival on that
        source, local or remote) or, for a node that is its own in-link
        source, any of its own operations.  Nothing else touches another
        node's queue or schedule, so the cached bound equals the live
        one and the operation sequence -- hence ``rounds`` -- is exactly
        that of re-deriving the bound before every operation.

        Safety (docs/SHARDING.md): a local hardware event (empty key)
        may run at the bound itself; arrivals and steps need the strict
        inequality, since an in-flight arrival at exactly the bound could
        still sort before them.
        """
        progress = False
        advanced = True
        runtimes = self.runtimes
        checkers = self._checkers
        while advanced:
            advanced = False
            for node_id in self.order:
                rt = runtimes[node_id]
                clock = rt.clock
                seen = -1
                while True:
                    if seen != self.handoffs or rt.self_fed:
                        seen = self.handoffs
                        bound = self.bound_for(rt)
                    # promise(), inlined: the event goes first iff it is
                    # due no later than the step.
                    head = clock.head()
                    step = rt.next_step
                    if step is not None and step < clock.now:
                        step = clock.now
                    if head is not None and (step is None or head[0] <= step):
                        due = head[0]
                        if due > bound or (due == bound and head[1]):
                            break
                        clock.fire_next(head)
                    elif step is not None and step < bound:
                        self._execute_step(rt)
                    else:
                        break
                    self.ops_executed += 1
                    advanced = True
                    if checkers:
                        checkers[node_id].check_all()
                        self.audit_count += 1
            progress = progress or advanced
        return progress

    def idle(self) -> bool:
        """No operations remain on any node."""
        return all(
            rt.next_step is None and not rt.clock.pending()
            for rt in self.runtimes.values()
        )

    def out_promises(self) -> Dict[Tuple[int, int], "float | None"]:
        """Null-message payload: per cross-shard out-link safe bound."""
        promises: Dict[Tuple[int, int], "float | None"] = {}
        for src, dst, lookahead in self._cross_out:
            p = self.promise(self.runtimes[src])
            promises[(src, dst)] = None if p is None else p + lookahead
        return promises

    # ------------------------------------------------------------ observers
    def node_counters(self, rt: NodeRuntime) -> Dict[str, int]:
        """Curated per-node counters (the chaos oracle's set), plus the
        node's clock and translation-cache totals.

        With the IOMMU tier the park/replay ledger joins the determinism
        surface: a shard-count-dependent fault service would show up
        there before it corrupted a digest.
        """
        i, cpu = rt.node_id, rt.machine.cpu
        return {
            f"n{i}.now": rt.clock.now,
            **node_counters(i, rt.machine, rt.nic),
            f"n{i}.xlat_hits": cpu.xlat_hits,
            f"n{i}.xlat_misses": cpu.xlat_misses,
        }

    def report(self) -> dict:
        """Everything the engine needs to merge: logs, counters, digests.

        Keys are per-node, so merging across shards is a plain union and
        the merged artefacts are bit-identical at any shard count.  A
        node's log is ``(messages_total, step records, summary line)``;
        the engine's result formats the records on first read.
        """
        logs: Dict[int, Tuple[int, List[Tuple[str, int]], str]] = {}
        counters: Dict[str, int] = {}
        digests: Dict[str, str] = {}
        events = 0
        now = 0
        sent = retries = 0
        for node_id in self.order:
            rt = self.runtimes[node_id]
            summary = (
                f"n{node_id:03d} done  sent={rt.sent} retries={rt.retries} "
                f"rx={rt.nic.packets_received} t={rt.clock.now}"
            )
            logs[node_id] = (self.spec.messages_per_node, rt.log[:], summary)
            counters.update(self.node_counters(rt))
            h = hashlib.blake2b(digest_size=16)
            h.update(rt.machine.physmem.view(0, rt.machine.physmem.size))
            digests[f"n{node_id}"] = h.hexdigest()
            events += rt.clock.events_fired
            now = max(now, rt.clock.now)
            sent += rt.sent
            retries += rt.retries
        counters[f"shard{self.shard_spec.index}.net.routed"] = (
            self.interconnect.packets_routed
        )
        counters[f"shard{self.shard_spec.index}.net.bytes"] = (
            self.interconnect.bytes_routed
        )
        return {
            "shard": self.shard_spec.index,
            "logs": logs,
            "counters": counters,
            "digests": digests,
            "events_fired": events,
            "now": now,
            "sent": sent,
            "retries": retries,
            "ops": self.ops_executed,
            "audits": self.audit_count,
            "metrics": self.obs.registry.snapshot(),
        }
