"""Host-throughput benchmarks: how fast the *simulator itself* runs.

Every other bench in this directory measures **simulated** time (cycles on
the modelled 60 MHz node).  This module measures **host** time: simulated
messages, bytes and clock events per wall-clock second of the Python
process.  It is the instrument behind ``run_bench.py``, whose
``--check --parent`` gate pairs each rate-gated row against the parent
checkout (``paired.py``), and the committed ``BENCH_core.json`` /
``BENCH_scale.json`` records, whose simulated fields are exact goldens
and whose host rates are a record, not a bound (``docs/PERFORMANCE.md``).

One table, :data:`SCENARIOS`, holds every scenario.  Each belongs to a
section:

* ``core`` -- the hot paths the zero-copy data plane, the translation
  fast path and the sharded kernel optimise: single-node UDMA sends into
  a sink (``udma_send``), the word-stepping DMA engine
  (``stepping_dma``), a translation-cache stress loop
  (``translate_storm``), and two e2ebench worlds, imported from
  ``e2ebench/workloads.py`` so each world is built in one place: the
  2-node blocking round trip (``pingpong_mix``) and the 64-node ring on
  the conservative-PDES sharded kernel (``ring_64x2shard``);
* ``obs`` -- ``udma_send`` with the observability plane off, at its
  default (metrics) and fully on (spans);
* ``reliability`` -- ``cluster_pingpong`` with the ack/retransmit
  transport off, on, and on at 1% packet loss;
* ``scale`` -- the ``repro.traffic`` engine at up to 10^6 messages per
  run, the gated collectives also in reference mode (no host fast path);
* ``shards`` -- ``cluster_mesh_64`` on the multi-process worker engine at
  1, 2, 4, ... shards up to this host's CPU count.

A scenario runs one or more named *variants*; when ``identical`` is set
the variants must simulate identically (only host time may differ).

Every :class:`Result` separates the simulated outcome (``sim``: a pure
function of the workload, compared exactly) from host seconds and the
translation-cache counts, which are host statistics and never compared.
"""

from __future__ import annotations

import os
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro import (
    ClusterConfig,
    Machine,
    MachineConfig,
    ObsConfig,
    ShrimpCluster,
)
from repro.bench.workloads import make_payload
from repro.devices import SinkDevice
from repro.dma.engine import DmaEngine, MemoryEndpoint
from repro.userlib import DeviceRef, MemoryRef, Sender, UdmaUser

# The core section's two cluster worlds are e2ebench's, built by its own
# classes (appended, so e2ebench/ shadows no module found before it).
sys.path.append(os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "e2ebench"))
from workloads import WORKLOADS as E2E_WORKLOADS  # noqa: E402

#: The one schema of every bench JSON file (``BENCH_core.json``,
#: ``BENCH_scale.json``, ``--json`` reports).
SCHEMA = "shrimp-bench/2"

SECTIONS = ("core", "obs", "reliability", "scale", "shards")


@dataclass
class Result:
    """One timed run of one scenario variant."""

    #: simulated cycles, events, messages and bytes, plus delivered /
    #: retries / churns where a scenario has them; compared exactly
    sim: Dict[str, int]
    host_seconds: float
    xlat_hits: int = 0
    xlat_misses: int = 0
    #: hit rate for runs that report only a rate (``repro.traffic``)
    xlat_rate: Optional[float] = None

    def _per_s(self, amount: int) -> float:
        return amount / self.host_seconds if self.host_seconds else 0.0

    @property
    def messages_per_s(self) -> float:
        return self._per_s(self.sim["messages"])

    @property
    def mb_per_s(self) -> float:
        """Simulated payload bytes moved per host second, in MB/s."""
        return self._per_s(self.sim["sim_bytes"]) / 1e6

    @property
    def events_per_s(self) -> float:
        return self._per_s(self.sim["events_fired"])

    @property
    def xlat_hit_rate(self) -> float:
        """Translation fast-path hit rate over the timed window (0..1)."""
        if self.xlat_rate is not None:
            return self.xlat_rate
        total = self.xlat_hits + self.xlat_misses
        return self.xlat_hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "sim": dict(self.sim),
            "host_seconds": round(self.host_seconds, 6),
            "messages_per_s": round(self.messages_per_s, 1),
            "mb_per_s": round(self.mb_per_s, 3),
            "events_per_s": round(self.events_per_s, 1),
            "xlat_hits": self.xlat_hits,
            "xlat_misses": self.xlat_misses,
            "xlat_hit_rate": round(self.xlat_hit_rate, 4),
        }


def _xlat_counters(cpus) -> Tuple[int, int]:
    """Summed (hits, misses) of the CPUs' translation fast path."""
    return (sum(cpu.xlat_hits for cpu in cpus),
            sum(cpu.xlat_misses for cpu in cpus))


def _timed(clock, cpus, loop: Callable[[], None], messages: int,
           sim_bytes: int) -> Result:
    """Run ``loop`` as the timed window; measure it on ``clock``/``cpus``."""
    start_cycles, start_events = clock.now, clock.events_fired
    hits0, misses0 = _xlat_counters(cpus)
    t0 = time.perf_counter()
    loop()
    elapsed = time.perf_counter() - t0
    hits1, misses1 = _xlat_counters(cpus)
    return Result(
        sim={
            "sim_cycles": clock.now - start_cycles,
            "events_fired": clock.events_fired - start_events,
            "messages": messages,
            "sim_bytes": sim_bytes,
        },
        host_seconds=elapsed,
        xlat_hits=hits1 - hits0,
        xlat_misses=misses1 - misses0,
    )


# ------------------------------------------------------------- scenarios
def _udma_sink(msg_bytes: int, obs: Optional[ObsConfig] = None):
    """A node with a sink device, a filled send buffer and its grant."""
    machine = Machine(config=MachineConfig(mem_size=1 << 21, obs=obs))
    machine.attach_device(SinkDevice("sink", size=1 << 16))
    process = machine.create_process("bench")
    buf = machine.kernel.syscalls.alloc(process, msg_bytes)
    grant = machine.kernel.syscalls.grant_device_proxy(process, "sink")
    udma = UdmaUser(machine, process)
    machine.cpu.write_bytes(buf, make_payload(msg_bytes))
    machine.run_until_idle()

    def send(messages: int) -> None:
        for _ in range(messages):
            udma.transfer(MemoryRef(buf), DeviceRef(grant), msg_bytes)
            machine.run_until_idle()

    return machine, send


def bench_udma_send(
    messages: int = 400,
    msg_bytes: int = 4096,
    obs: Optional[ObsConfig] = None,
) -> Result:
    """Single-node UDMA sends of ``msg_bytes`` into a sink device.

    The send buffer is filled once outside the timed window; the loop is
    pure UDMA initiation + DMA + completion polling -- the critical path
    of the paper's section 8.  ``obs`` selects the observability plane
    configuration (the ``obs`` section's variants).
    """
    machine, send = _udma_sink(msg_bytes, obs)
    return _timed(machine.clock, [machine.cpu], lambda: send(messages),
                  messages, messages * msg_bytes)


def transfer_latency_profile(
    messages: int = 50, msg_bytes: int = 4096
) -> Dict[str, float]:
    """Per-transfer latency histogram from a small metered workload.

    Returns the ``udma.transfer_cycles`` histogram value dict
    (count/sum/min/max/p50/p99, in simulated cycles) after ``messages``
    sends on the ``udma_send`` rig -- the number ``docs/PERFORMANCE.md``
    quotes.
    """
    machine, send = _udma_sink(msg_bytes)
    send(messages)
    return machine.metrics()["udma"]["transfer_cycles"]


def bench_cluster_pingpong(
    rounds: int = 200,
    msg_bytes: int = 4096,
    reliability: bool = False,
    drop_every: int = 0,
) -> Result:
    """2-node deliberate-update ping-pong over the routing backplane.

    Each round is one message node0 -> node1 and one message back, each
    drained to remote-memory delivery (the full Figure 6 pipeline).  The
    payload buffers are filled once outside the timed window.

    ``reliability`` puts the ack/retransmit transport in the loop, and
    ``drop_every`` > 0 installs a deterministic counting injector that
    drops every Nth routed packet (data and ACKs alike -- both must
    heal), so timeouts and retransmissions are timed too;
    ``drop_every=100`` is the "1% loss" point.
    """
    cluster = ShrimpCluster(
        config=ClusterConfig(num_nodes=2, mem_size=1 << 21,
                             reliability=reliability),
    )
    if drop_every > 0:
        routed = {"n": 0}

        def drop_nth(wire):
            routed["n"] += 1
            return None if routed["n"] % drop_every == 0 else wire

        cluster.interconnect.fault_injector = drop_nth
    procs = [cluster.node(i).create_process(f"p{i}") for i in range(2)]
    bufs = [
        cluster.node(i).kernel.syscalls.alloc(procs[i], msg_bytes)
        for i in range(2)
    ]
    senders = [
        Sender(cluster, procs[0],
               cluster.create_channel(0, 1, procs[1], bufs[1], msg_bytes)),
        Sender(cluster, procs[1],
               cluster.create_channel(1, 0, procs[0], bufs[0], msg_bytes)),
    ]
    for sender in senders:
        sender._ensure_current()
        sender.machine.cpu.write_bytes(sender.buffer, make_payload(msg_bytes))
    cluster.run_until_idle()

    def loop() -> None:
        for _ in range(rounds):
            senders[0].send_buffer(msg_bytes)
            cluster.run_until_idle()
            senders[1].send_buffer(msg_bytes)
            cluster.run_until_idle()

    cpus = [cluster.node(i).cpu for i in range(2)]
    return _timed(cluster.clock, cpus, loop, 2 * rounds,
                  2 * rounds * msg_bytes)


def bench_stepping_dma(
    transfers: int = 40,
    nbytes: int = 1 << 16,
    burst_bytes: int = 64,
    bursts_per_event: int = 8,
) -> Result:
    """Word-stepping memory-to-memory DMA, where events are the cost."""
    machine = Machine(config=MachineConfig(mem_size=1 << 21))
    engine = DmaEngine(
        machine.clock,
        machine.costs,
        name="bench-step",
        burst_bytes=burst_bytes,
        bursts_per_event=bursts_per_event,
    )
    physmem = machine.physmem
    physmem.write(0, make_payload(nbytes))

    def loop() -> None:
        for _ in range(transfers):
            engine.start(MemoryEndpoint(physmem, 0),
                         MemoryEndpoint(physmem, nbytes), nbytes)
            machine.clock.run_until_idle()

    result = _timed(machine.clock, [], loop, transfers, transfers * nbytes)
    assert physmem.read(nbytes, nbytes) == physmem.read(0, nbytes)
    return result


def bench_translate_storm(iterations: int = 120, pages: int = 64) -> Result:
    """Translation-heavy CPU work: the software-TLB's stress case.

    Each iteration walks a ``pages``-page working set with one word LOAD
    per page (pure translation traffic), then streams the whole buffer
    through ``read_into`` and ``write_bytes`` (one translation per page
    run).  Every eighth iteration context-switches away and back, which
    invalidates no translation (the cache lives on the page table, and a
    switch edits none), and the set-up write already filled every page,
    so the quick run reads a 100.0% hit rate: this row prices the hit
    path and the switch, not re-walks.
    """
    machine = Machine(config=MachineConfig(mem_size=1 << 22))
    page_size = machine.costs.page_size
    nbytes = pages * page_size
    storm = machine.create_process("storm")
    other = machine.create_process("other")
    scheduler = machine.kernel.scheduler
    scheduler.switch_to(storm)
    buf = machine.kernel.syscalls.alloc(storm, nbytes)
    cpu = machine.cpu
    cpu.write_bytes(buf, make_payload(nbytes))
    machine.run_until_idle()
    scratch = bytearray(nbytes)

    def loop() -> None:
        for i in range(iterations):
            for offset in range(0, nbytes, page_size):
                cpu.load(buf + offset)
            cpu.read_into(buf, scratch)
            cpu.write_bytes(buf, scratch)
            if i % 8 == 7:
                scheduler.switch_to(other)
                scheduler.switch_to(storm)

    start_instructions = cpu.instructions
    result = _timed(machine.clock, [cpu], loop, iterations,
                    iterations * 2 * nbytes)
    # Pure CPU work never schedules a clock event, so the simulator's
    # unit of work here is the retired instruction.
    result.sim["events_fired"] += cpu.instructions - start_instructions
    return result


def bench_e2e(workload: str, scale: float) -> Result:
    """One timed window of an e2ebench workload at seed 0.

    The world is the one ``e2ebench/run.py`` measures, built by the same
    class; ``scale`` shrinks its message count.  ``sim`` holds the
    workload's own simulated results plus the table's message and byte
    counts.
    """
    world = E2E_WORKLOADS[workload](0, scale)
    _pre, window = world.run()
    outcome = world.outcome()
    if outcome.failed:
        raise RuntimeError(f"{workload}: {outcome.problems}")
    sim = dict(outcome.sim, messages=outcome.messages,
               sim_bytes=outcome.payload_bytes)
    sim["events_fired"] = sim.pop("events")
    return Result(sim=sim, host_seconds=window,
                  xlat_hits=int(outcome.counters["xlat_hits"]),
                  xlat_misses=int(outcome.counters["xlat_misses"]))


def bench_cluster_mesh_64(messages: int = 16, shards: int = 1) -> Result:
    """A 64-node 8x8 mesh of self-driving senders on ``shards`` workers.

    Every node streams ``messages`` deliberate-update sends around the
    node ring under the conservative-PDES engine (``repro.sharding``),
    each shard in its own worker process.  The timed window is the
    engine's own ``timed_seconds``: it starts once every shard is built
    and ends when the run drains, so it measures execution, not
    construction or process spawning.
    """
    from repro.sharding import ClusterSpec, WorkerEngine

    spec = ClusterSpec(num_nodes=64, messages_per_node=messages)
    runner = WorkerEngine(spec, num_shards=shards)
    result = runner.run()
    return Result(
        sim={
            "sim_cycles": result.now,
            "events_fired": result.events_fired,
            "messages": result.sent,
            "sim_bytes": result.sent * spec.msg_bytes,
        },
        host_seconds=runner.timed_seconds,
        xlat_hits=result.xlat_hits,
        xlat_misses=result.xlat_misses,
    )


def bench_traffic(reference: bool = False, **kwargs) -> Result:
    """One ``repro.traffic.run_scenario`` pass (its own timed window)."""
    from repro.traffic import run_scenario

    r = run_scenario(kwargs["pattern"], reference=reference, **kwargs)
    return Result(
        sim={
            "sim_cycles": r.sim_cycles,
            "events_fired": r.events,
            "messages": r.messages,
            "sim_bytes": r.messages * r.msg_bytes,
            "delivered": r.delivered,
            "retries": r.retries,
            "churns": r.churns,
        },
        host_seconds=r.host_seconds,
        xlat_rate=r.xlat_hit_rate,
    )


# ----------------------------------------------------------------- table
@dataclass(frozen=True)
class Scenario:
    """One row of :data:`SCENARIOS`."""

    section: str
    name: str
    fn: Callable[..., Result]
    #: workload kwargs of a full and a ``--quick`` run (recorded in JSON)
    full: Dict[str, object]
    quick: Dict[str, object]
    #: variant name -> extra kwargs; variants interleave within a repeat
    variants: Dict[str, Dict[str, object]] = field(
        default_factory=lambda: {"default": {}}
    )
    #: the variants must simulate identically
    identical: bool = True
    #: host msgs/s is gated in pairs against the parent checkout
    gate_rate: bool = True

    def kwargs(self, quick: bool) -> Dict[str, object]:
        return dict(self.quick if quick else self.full)


def shard_counts(limit: int) -> List[int]:
    """1, 2, 4, ... below ``limit``, then ``limit`` itself."""
    counts = [1]
    while counts[-1] * 2 <= limit:
        counts.append(counts[-1] * 2)
    if counts[-1] != limit:
        counts.append(limit)
    return counts


#: obs variants: ``baseline`` disables the whole plane, ``metrics`` is the
#: library default (registry bound, spans off), ``spans`` turns all on
OBS_VARIANTS = {
    "baseline": {"obs": ObsConfig(metrics=False, spans=False)},
    "metrics": {},
    "spans": {"obs": ObsConfig(metrics=True, spans=True)},
}


def _traffic(full: int, quick: int, **kwargs) -> Dict[str, dict]:
    """Full/quick kwargs of a traffic scenario sending ``full``/``quick``."""
    kwargs = {"msg_bytes": 512, "tenants_per_node": 1, **kwargs}
    return {"full": {**kwargs, "messages": full},
            "quick": {**kwargs, "messages": quick}}


_REFERENCE = {"reference": {"reference": True}, "default": {}}


# Quick workloads keep every timed window at or above 100 ms: 110-250 ms
# for each core scenario and obs variant, 140-400 ms per reliability
# variant and 0.4-1.4 s per scale pass on a 2-vCPU Xeon, CPython 3.11.7.
# That host's speed drifts by about +-25% within minutes, so host rates
# are judged only in pairs against the parent checkout (run_bench.py
# --parent); simulated fields are exact on every host.
_UDMA = {"full": {"messages": 10_000}, "quick": {"messages": 4_000}}
_TABLE = [
    Scenario("core", "udma_send", bench_udma_send, **_UDMA),
    # The two cluster worlds are e2ebench's own, at a smaller scale.
    Scenario("core", "pingpong_mix", bench_e2e,
             {"workload": "pingpong_mix", "scale": 1.0},
             {"workload": "pingpong_mix", "scale": 0.25}),
    Scenario("core", "stepping_dma", bench_stepping_dma,
             {"transfers": 800}, {"transfers": 320}),
    Scenario("core", "translate_storm", bench_translate_storm,
             {"iterations": 1_000}, {"iterations": 400}),
    Scenario("core", "ring_64x2shard", bench_e2e,
             {"workload": "ring_64x2shard", "scale": 1.0},
             {"workload": "ring_64x2shard", "scale": 0.5}),
    # The metrics registry samples live counters only at snapshot time
    # and the span tracker is never built when disabled.  The three
    # variants must simulate identically; what ``metrics`` costs over
    # ``baseline`` is counted, not timed, by
    # tests/obs/test_default_plane_cost.py.
    Scenario("obs", "udma_send", bench_udma_send, **_UDMA,
             variants=OBS_VARIANTS),
    # Reliability is opt-in and changes the simulation (ACK traffic,
    # retransmissions), so its variants differ by design.
    Scenario("reliability", "cluster_pingpong", bench_cluster_pingpong,
             {"rounds": 4_000}, {"rounds": 2_000},
             variants={
                 "off": {},
                 "on-0%": {"reliability": True},
                 "on-1%": {"reliability": True, "drop_every": 100},
             },
             identical=False),
    # The two million-message collectives, single-tenant: a second
    # tenant adds a context switch (one Inval store) per send -- a
    # different experiment, which the multi-tenant rows below cover.
    # Each also runs in reference mode, so the speedup column is measured.
    Scenario("scale", "incast_64x1", bench_traffic,
             **_traffic(1_000_000, 20_000, pattern="incast", num_nodes=64,
                        seed=7, gap_cycles=96_000),
             variants=_REFERENCE),
    Scenario("scale", "all_to_all_32x1", bench_traffic,
             **_traffic(1_000_000, 20_000, pattern="all_to_all",
                        num_nodes=32, seed=7, gap_cycles=4_000),
             variants=_REFERENCE),
    # NIPT pressure: multi-tenant placements with channel churn, so the
    # NIC page table cycles through its free list under eviction.
    Scenario("scale", "uniform_16x4_churn", bench_traffic,
             **_traffic(120_000, 6_000, pattern="uniform", num_nodes=16,
                        tenants_per_node=4, seed=11, degree=4,
                        gap_cycles=8_000, churn_every=200)),
    Scenario("scale", "hotspot_32x2", bench_traffic,
             **_traffic(120_000, 6_000, pattern="hotspot", num_nodes=32,
                        tenants_per_node=2, seed=13, degree=6,
                        hot_permille=400, gap_cycles=24_000)),
    # Worker rates depend on OS scheduling, so they are reported, never
    # gated; the simulated fields must still match at every shard count.
    Scenario("shards", "cluster_mesh_64", bench_cluster_mesh_64,
             {"messages": 128}, {"messages": 48},
             variants={
                 str(n): {"shards": n} for n in shard_counts(os.cpu_count() or 1)
             },
             gate_rate=False),
]

#: (section, name) -> scenario, in table order
SCENARIOS: Dict[Tuple[str, str], Scenario] = {
    (s.section, s.name): s for s in _TABLE
}


# --------------------------------------------------------------- running
def run(
    scenarios: List[Scenario],
    quick: bool = False,
    repeats: int = 3,
    call: Optional[Callable[..., Result]] = None,
) -> List[Tuple[Scenario, Dict[str, Result]]]:
    """Best-of-``repeats`` host time for every variant of every scenario.

    Variants interleave within each repeat, so host-scheduler drift hits
    them all equally.  ``call(fn, kwargs, label)`` runs one variant
    (default ``fn(**kwargs)``; ``run_bench.py --profile`` wraps it).
    """
    call = call or (lambda fn, kwargs, label: fn(**kwargs))
    out = []
    for spec in scenarios:
        best: Dict[str, Result] = {}
        for _ in range(max(1, repeats)):
            for variant, extra in spec.variants.items():
                result = call(spec.fn, {**spec.kwargs(quick), **extra},
                              f"{spec.section}/{spec.name} [{variant}]")
                if (variant not in best
                        or result.host_seconds < best[variant].host_seconds):
                    best[variant] = result
        out.append((spec, best))
    return out


def to_payload(
    results: List[Tuple[Scenario, Dict[str, Result]]], quick: bool
) -> dict:
    """The JSON document of a run: host facts plus one entry per scenario.

    A scenario with several variants also reports each variant's
    ``speedup``: its msgs/s over the first variant's.
    """
    sections: Dict[str, dict] = {}
    for spec, variants in results:
        first = next(iter(variants.values())).messages_per_s
        rows = {}
        for variant, result in variants.items():
            row = result.as_dict()
            if len(variants) > 1 and first:
                row["speedup"] = round(result.messages_per_s / first, 4)
            rows[variant] = row
        sections.setdefault(spec.section, {})[spec.name] = {
            "kwargs": spec.kwargs(quick),
            "identical": spec.identical,
            "gate_rate": spec.gate_rate,
            "variants": rows,
        }
    return {
        "schema": SCHEMA,
        "quick": quick,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "sections": sections,
    }


def format_payload(payload: dict) -> str:
    """One table row per scenario variant of a :func:`to_payload` doc."""
    lines = [
        f"{'scenario':<30} {'variant':<9} {'msgs/s':>10} {'MB/s':>9} "
        f"{'events/s':>11} {'host s':>8} {'xlat%':>6} {'speedup':>8}"
    ]
    for section, scenarios in payload["sections"].items():
        for name, entry in scenarios.items():
            for variant, row in entry["variants"].items():
                xlat = (f"{100.0 * row['xlat_hit_rate']:>5.1f}%"
                        if row["xlat_hit_rate"] else f"{'-':>6}")
                speedup = (f"{row['speedup']:>7.2f}x" if "speedup" in row
                           else f"{'-':>8}")
                lines.append(
                    f"{section + '/' + name:<30} {variant:<9} "
                    f"{row['messages_per_s']:>10.1f} {row['mb_per_s']:>9.2f} "
                    f"{row['events_per_s']:>11.0f} "
                    f"{row['host_seconds']:>8.3f} {xlat} {speedup}"
                )
    return "\n".join(lines)
