"""The benchmark's four workloads.

Each workload is a class whose constructor builds the simulated world and
warms it up (the set-up phase), whose :meth:`run` performs the timed
window, and whose :meth:`outcome` reads back what the window produced:
the simulated results that must never move (``sim``), structural
correctness problems, and the raw counters the per-layer report divides.

Inputs are a pure function of ``seed``; ``scale`` shrinks the message
count (the self-test runs tiny windows) without changing the shape of
the workload.  A window is a tenth of a run's messages, so one window is
also the traced run.  Only public construction paths of ``repro`` are
used, so the worlds are exactly what a user of the library builds.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro import ClusterConfig, ShrimpCluster
from repro.bench.workloads import make_payload
from repro.sharding import ClusterSpec, InProcessEngine
from repro.traffic import TenantPlacement, TrafficEngine, Xorshift, make_pattern
from repro.userlib import Sender

MSG_BYTES = 512


@dataclass
class Outcome:
    """What one timed window produced."""

    #: messages the window attempted (the denominator of ``failed``)
    messages: int
    #: payload bytes delivered in the window
    payload_bytes: int
    #: simulated cycles the window took
    sim_cycles: int
    #: simulated results: a pure function of (workload, seed, scale)
    sim: Dict[str, object]
    #: messages lost, corrupted or refused by the receiver
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: raw counters behind the per-layer ratios
    counters: Dict[str, float] = field(default_factory=dict)


def _scaled(base: int, scale: float, floor: int) -> int:
    return max(floor, int(round(base * scale)))


def _digest(*parts: object) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part if isinstance(part, (bytes, bytearray)) else repr(part).encode())
    return h.hexdigest()


def _registry_sums(snapshot: Dict[str, object]) -> Dict[str, float]:
    """Per-node registry counters summed over every node."""
    suffixes = {
        "xlat_hits": ".cpu.xlat_hits",
        "xlat_misses": ".cpu.xlat_misses",
        "tlb_hits": ".tlb.hits",
        "tlb_misses": ".tlb.misses",
        "switches": ".scheduler.switches",
        "initiations": ".udma.initiations",
    }
    sums = dict.fromkeys(suffixes, 0)
    for key, value in snapshot.items():
        for name, suffix in suffixes.items():
            if key.endswith(suffix):
                sums[name] += value
    return sums


def _cluster_counters(cluster: ShrimpCluster, messages: int) -> Dict[str, float]:
    ic = cluster.interconnect
    pool = ic.packet_pool
    counters = _registry_sums(cluster.obs.registry.snapshot())
    counters.update(
        messages=messages,
        events_fired=cluster.clock.events_fired,
        event_reuses=cluster.clock.pool_reuses,
        packet_reuses=pool.packet_reuses if pool is not None else 0,
        packet_allocs=pool.packet_allocs if pool is not None else 0,
        packets_routed=ic.packets_routed,
        retransmits=(
            cluster.reliability.retransmits if cluster.reliability is not None else 0
        ),
        in_fifo_high_water=max(nic.incoming.high_water for nic in cluster.nics),
        flow_retries=0,
        rounds=0,
    )
    return counters


class PingpongMix:
    """Closed loop, one caller, two nodes: blocking sends, both directions."""

    name = "pingpong_mix"
    SIZES = (64, 512, 4096)

    def __init__(self, seed: int, scale: float) -> None:
        self.rounds = _scaled(10_000, scale, 20)
        warmup = _scaled(2_000, scale, 4)
        rng = Xorshift(seed)
        self.sizes = [
            self.SIZES[rng.below(len(self.SIZES))] for _ in range(2 * self.rounds)
        ]
        page = 4096
        cluster = ShrimpCluster(config=ClusterConfig(num_nodes=2, mem_size=1 << 21))
        procs = [cluster.node(i).create_process(f"p{i}") for i in range(2)]
        bufs = [
            cluster.node(i).kernel.syscalls.alloc(procs[i], page) for i in range(2)
        ]
        self.channels = [
            cluster.create_channel(0, 1, procs[1], bufs[1], page),
            cluster.create_channel(1, 0, procs[0], bufs[0], page),
        ]
        self.senders = [
            Sender(cluster, procs[0], self.channels[0]),
            Sender(cluster, procs[1], self.channels[1]),
        ]
        # Distinct payloads per direction, so a cross-wired channel shows.
        self.payloads = [make_payload(page, seed=1), make_payload(page, seed=2)]
        for sender, payload in zip(self.senders, self.payloads):
            sender.send_bytes(payload)
            cluster.run_until_idle()
        for i in range(warmup):
            size = self.SIZES[i % len(self.SIZES)]
            for sender in self.senders:
                sender.send_buffer(size)
                cluster.run_until_idle()
        self.cluster = cluster
        self.sent_before = 2 + 2 * warmup

    def run(self) -> Tuple[float, float]:
        cluster = self.cluster
        s0, s1 = self.senders
        sizes = self.sizes
        rt: List[int] = []
        start_cycles = cluster.now
        t0 = time.perf_counter()
        for i in range(self.rounds):
            before = cluster.now
            s0.send_buffer(sizes[2 * i])
            cluster.run_until_idle()
            s1.send_buffer(sizes[2 * i + 1])
            cluster.run_until_idle()
            rt.append(cluster.now - before)
        window = time.perf_counter() - t0
        self.rt = rt
        self.window_cycles = cluster.now - start_cycles
        return 0.0, window

    def outcome(self) -> Outcome:
        cluster = self.cluster
        messages = 2 * self.rounds
        problems: List[str] = []
        failed = 0
        received = [cluster.nic(i).packets_received for i in (1, 0)]
        for direction, got in enumerate(received):
            missing = self.sent_before // 2 + self.rounds - got
            if missing:
                problems.append(f"direction {direction}: {missing} messages not delivered")
                failed += abs(missing)
        rx_errors = sum(cluster.nic(i).rx_errors for i in range(2))
        failed += rx_errors
        if rx_errors:
            problems.append(f"{rx_errors} rx errors")
        buffers = []
        for direction, channel in enumerate(self.channels):
            last = self.sizes[-2 + direction]
            frame = channel.dst_frames[0]
            node = cluster.node(channel.dst_node)
            data = node.physmem.read(frame * channel.page_size, channel.page_size)
            buffers.append(data)
            if data[:last] != self.payloads[direction][:last]:
                problems.append(f"direction {direction}: receive buffer corrupt")
                failed += 1
        ordered = sorted(self.rt)
        n = len(ordered)
        costs = cluster.costs
        sim = {
            "sim_cycles": self.window_cycles,
            "events": cluster.clock.events_fired,
            "delivered": sum(received),
            "rt_p50_us": costs.cycles_to_us(ordered[(n - 1) // 2]),
            "rt_p99_us": costs.cycles_to_us(ordered[max(0, -(-99 * n // 100) - 1)]),
            "digest": _digest(*buffers),
        }
        return Outcome(
            messages=messages,
            payload_bytes=sum(self.sizes),
            sim_cycles=self.window_cycles,
            sim=sim,
            failed=failed,
            problems=problems,
            # The counters cover the world's whole life, warm-up included.
            counters=_cluster_counters(cluster, self.sent_before + messages),
        )


class _TrafficWorkload:
    """A ``repro.traffic`` scenario on a cluster this benchmark can inspect.

    The cluster is sized exactly as :func:`repro.traffic.run_scenario`
    sizes its own (frames for every export, send buffer and churn
    re-allocation; a NIPT just big enough for the busiest node), but is
    built here so reliability and a wire-fault injector can be attached
    and the receive buffers read back afterwards.
    """

    pattern = ""
    base_seed = 0
    num_nodes = 0
    tenants = 1
    base_messages = 0
    gap_cycles = 0
    churn_every = 0
    reliability = False
    drop_every = 0
    pattern_kwargs: Dict[str, int] = {}

    def __init__(self, seed: int, scale: float) -> None:
        messages = _scaled(self.base_messages, scale, 2 * self.num_nodes * self.tenants)
        pattern = make_pattern(
            self.pattern, self.num_nodes, seed=self.base_seed + seed,
            **self.pattern_kwargs,
        )
        placement = TenantPlacement(pattern, tenants_per_node=self.tenants)
        senders = sum(self.tenants for src in range(self.num_nodes) if pattern.peers(src))
        per_driver = -(-messages // senders)
        churns = per_driver // self.churn_every if self.churn_every else 0
        pages = 0
        nipt = 8
        for node in range(self.num_nodes):
            churn_pages = self.tenants * churns if pattern.peers(node) else 0
            pages = max(pages, placement.required_pages(node) + churn_pages)
            nipt = max(nipt, placement.nipt_demand(node))
        cluster = ShrimpCluster(
            config=ClusterConfig(
                num_nodes=self.num_nodes,
                mem_size=max((pages + 64) * 4096, 1 << 22),
                nipt_entries=nipt,
                reliability=self.reliability,
            ),
        )
        if self.drop_every:
            cluster.interconnect.fault_injector = _DropEveryNth(self.drop_every)
        self.cluster = cluster
        self.placement = placement
        self.engine = TrafficEngine(
            cluster,
            placement,
            messages=messages,
            msg_bytes=MSG_BYTES,
            gap_cycles=self.gap_cycles,
            churn_every=self.churn_every,
            scenario=self.name,
        )

    def run(self) -> Tuple[float, float]:
        # The engine builds the placement before it starts its own clock;
        # that build is set-up, so it is returned as pre-window time.
        t0 = time.perf_counter()
        self.result = self.engine.run()
        total = time.perf_counter() - t0
        return total - self.result.host_seconds, self.result.host_seconds

    def outcome(self) -> Outcome:
        cluster, result = self.cluster, self.result
        problems: List[str] = []
        failed = abs(result.messages - result.delivered)
        if failed:
            problems.append(f"{result.messages} sent but {result.delivered} delivered")
        rx_errors = sum(nic.rx_errors for nic in cluster.nics)
        lost = cluster.reliability.delivery_failed if cluster.reliability else 0
        if rx_errors or lost:
            problems.append(f"{rx_errors} rx errors, {lost} deliveries failed")
        failed += rx_errors + lost
        payload = self.engine.payload
        untouched = bytes(MSG_BYTES)
        buffers = []
        for key in sorted(self.placement.channels):
            channel = self.placement.channels[key]
            node = cluster.node(channel.dst_node)
            data = node.physmem.read(channel.dst_frames[0] * channel.page_size, MSG_BYTES)
            buffers.append(data)
            # A channel the seeded stream never picked is still zero.
            if data != payload and data != untouched:
                problems.append(f"channel {key}: receive buffer corrupt")
                failed += 1
        retransmits = cluster.reliability.retransmits if cluster.reliability else 0
        sim = {
            "sim_cycles": result.sim_cycles,
            "events": result.events,
            "delivered": result.delivered,
            "retries": result.retries,
            "churns": result.churns,
            "retransmits": retransmits,
            "digest": _digest(
                *buffers,
                [(n.packets_received, n.last_delivery_done) for n in cluster.nics],
            ),
        }
        counters = _cluster_counters(cluster, result.messages)
        counters["flow_retries"] = result.retries
        return Outcome(
            messages=result.messages,
            payload_bytes=result.delivered * MSG_BYTES,
            sim_cycles=result.sim_cycles,
            sim=sim,
            failed=failed,
            problems=problems,
            counters=counters,
        )


class _DropEveryNth:
    """Deterministic loss: the backplane drops every n-th routed packet."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.routed = 0

    def __call__(self, wire: bytes):
        self.routed += 1
        return None if self.routed % self.n == 0 else wire


class Incast(_TrafficWorkload):
    """64 nodes, one tenant each, all sending to one sink."""

    name = "incast_64x1"
    pattern = "incast"
    base_seed = 7
    num_nodes = 64
    base_messages = 25_200
    gap_cycles = 96_000


class ChurnLossy(_TrafficWorkload):
    """16 nodes x 4 tenants, uniform degree 4, churn, 1 % packet loss."""

    name = "churn_16x4_lossy"
    pattern = "uniform"
    pattern_kwargs = {"degree": 4}
    base_seed = 11
    num_nodes = 16
    tenants = 4
    base_messages = 6_400
    gap_cycles = 8_000
    churn_every = 100
    reliability = True
    drop_every = 100


class Ring:
    """The sharded engine's self-driving ring, two shards in one process.

    In-process on purpose: ``WorkerEngine`` rates depend on how the OS
    schedules its workers, not on the program.
    """

    name = "ring_64x2shard"

    def __init__(self, seed: int, scale: float) -> None:
        self.spec = ClusterSpec(
            num_nodes=64,
            messages_per_node=_scaled(160, scale, 2),
            seed=seed,
        )
        self.engine = InProcessEngine(self.spec, num_shards=2)

    def run(self) -> Tuple[float, float]:
        self.result = self.engine.run()
        return 0.0, self.engine.timed_seconds

    def outcome(self) -> Outcome:
        spec, result = self.spec, self.result
        nodes = range(spec.num_nodes)
        expected = spec.num_nodes * spec.messages_per_node
        delivered = sum(result.counters[f"nic{i}.rx"] for i in nodes)
        rx_errors = sum(result.counters[f"nic{i}.rx_err"] for i in nodes)
        problems: List[str] = []
        failed = abs(expected - result.sent) + abs(result.sent - delivered) + rx_errors
        if failed:
            problems.append(
                f"{expected} expected, {result.sent} sent, {delivered} delivered, "
                f"{rx_errors} rx errors"
            )
        # Every sender stamps its message number into word 0, so after the
        # run each receive buffer holds the last message's number.
        runtimes = [rt for shard in self.engine.shards for rt in shard.runtimes.values()]
        frame = self.engine.shards[0].shard_spec.rx_frames[0]
        for rt in runtimes:
            word = rt.machine.physmem.read_word(frame * rt.machine.layout.page_size)
            if word != spec.messages_per_node:
                problems.append(f"node {rt.node_id}: last message stamp {word}")
                failed += 1
        counters = _registry_sums(result.metrics)
        pools = [shard.interconnect.packet_pool for shard in self.engine.shards]
        counters.update(
            messages=result.sent,
            events_fired=result.events_fired,
            event_reuses=sum(rt.clock.pool_reuses for rt in runtimes),
            packet_reuses=sum(p.packet_reuses for p in pools),
            packet_allocs=sum(p.packet_allocs for p in pools),
            packets_routed=result.net_routed,
            retransmits=0,
            in_fifo_high_water=max(rt.nic.incoming.high_water for rt in runtimes),
            flow_retries=0,
            rounds=result.rounds,
        )
        sim = {
            "sim_cycles": result.now,
            "events": result.events_fired,
            "delivered": delivered,
            "retries": result.retries,
            "digest": _digest(sorted(result.digests.items())),
        }
        return Outcome(
            messages=result.sent,
            payload_bytes=delivered * spec.msg_bytes,
            sim_cycles=result.now,
            sim=sim,
            failed=failed,
            problems=problems,
            counters=counters,
        )


WORKLOADS = {cls.name: cls for cls in (PingpongMix, Incast, ChurnLossy, Ring)}
