"""Engines that drive a partitioned cluster to completion.

Two engines, one contract: run every shard's conservative schedule until
the workload drains, then merge the per-shard reports into a single
:class:`ShardRunResult` whose node-keyed artefacts (logs, digests,
curated counters) are **bit-identical at any shard count**.

Both hand a cross-shard packet over as one thing: a private, non-pooled
:class:`~repro.net.packet.Packet` (never encoded; see
:meth:`~repro.sharding.shard.Shard.handoff`).

* :class:`InProcessEngine` -- all shards in this process.  Cross-shard
  bounds are read live (a shard asks its peer's promise directly) and
  cross-shard packets are ingested immediately, so there is no round
  protocol and no staleness: this is the deterministic reference and
  the debugging vehicle.

* :class:`WorkerEngine` -- one OS process per shard, exchanging packets
  and null-message promises through the parent in lock-step rounds (a
  star relay: worker -> parent -> owning worker).  The parent forwards a
  round's packets *and* promises together, so every packet that a
  promise could unblock is ingested before the promise applies.

Either engine produces the same simulation: bounds only gate execution
(never reorder it), so staleness costs rounds, not determinism.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, SimulationLimitError
from repro.net.packet import Packet
from repro.sharding.shard import (
    INFINITY,
    Shard,
    format_log,
    probe_canonical_frames,
)
from repro.sharding.spec import ClusterSpec, ShardSpec, partition

#: consecutive no-progress, no-traffic, promises-unchanged rounds the
#: worker engine tolerates before declaring the protocol wedged
STALE_ROUND_LIMIT = 3


@dataclass
class ShardRunResult:
    """A completed run, merged across shards.

    ``logs``, ``digests`` and the node-keyed ``counters`` are the
    determinism surface: equal specs must yield equal values regardless
    of shard count or engine.  Shard-keyed counters (``shard{j}.*``) and
    ``rounds`` describe the *execution*, which legitimately differs.
    """

    engine: str
    num_shards: int
    #: per node, in node order: (node id, messages_total, packed step
    #: log, summary line); :attr:`logs` formats them
    log_records: List[tuple] = field(default_factory=list, repr=False)
    counters: Dict[str, int] = field(default_factory=dict)
    digests: Dict[str, str] = field(default_factory=dict)
    metrics: Dict[str, object] = field(default_factory=dict)
    events_fired: int = 0
    ops_executed: int = 0
    audits: int = 0
    now: int = 0
    sent: int = 0
    retries: int = 0
    net_routed: int = 0
    net_bytes: int = 0
    rounds: int = 0
    #: translation-cache totals aggregated across every node (the bench
    #: report used to show 0.0 here because per-shard stats were dropped)
    xlat_hits: int = 0
    xlat_misses: int = 0
    _logs: Optional[List[str]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def logs(self) -> List[str]:
        """Every node's step log lines and then its summary, in node order.

        Formatted from :attr:`log_records` on first read and kept, so the
        list is an ordinary mutable one: an edit shows on the next read.
        """
        if self._logs is None:
            lines: List[str] = []
            for node_id, total, log, summary in self.log_records:
                lines += format_log(node_id, total, log)
                lines.append(summary)
            self._logs = lines
        return self._logs

    def curated_counters(self) -> Dict[str, int]:
        """The shard-count-invariant counter subset (plus net totals).

        Translation-cache hits and misses are host statistics (reference
        mode has no cache), so they stay in ``counters`` only.
        """
        curated = {
            k: v for k, v in self.counters.items()
            if not k.startswith("shard")
            and not k.endswith((".xlat_hits", ".xlat_misses"))
        }
        curated["net.routed"] = self.net_routed
        curated["net.bytes"] = self.net_bytes
        return curated


def _merge(engine: str, num_shards: int, reports: List[dict], rounds: int) -> ShardRunResult:
    result = ShardRunResult(engine=engine, num_shards=num_shards, rounds=rounds)
    logs: Dict[int, tuple] = {}
    for report in reports:
        logs.update(report["logs"])
        result.counters.update(report["counters"])
        result.digests.update(report["digests"])
        result.metrics.update(report["metrics"])
        result.events_fired += report["events_fired"]
        result.ops_executed += report["ops"]
        result.audits += report["audits"]
        result.sent += report["sent"]
        result.retries += report["retries"]
        result.now = max(result.now, report["now"])
        index = report["shard"]
        result.net_routed += report["counters"][f"shard{index}.net.routed"]
        result.net_bytes += report["counters"][f"shard{index}.net.bytes"]
    result.log_records = [(node_id, *logs[node_id]) for node_id in sorted(logs)]
    for key, value in result.counters.items():
        if key.endswith(".xlat_hits"):
            result.xlat_hits += value
        elif key.endswith(".xlat_misses"):
            result.xlat_misses += value
    return result


def shard_specs(spec: ClusterSpec, num_shards: int) -> List[ShardSpec]:
    """Probe the canonical frames once; one :class:`ShardSpec` per block."""
    frames = probe_canonical_frames(spec)
    return [
        ShardSpec(index=j, num_shards=num_shards, nodes=block, rx_frames=frames)
        for j, block in enumerate(partition(spec.num_nodes, num_shards))
    ]


def build_shards(
    spec: ClusterSpec, num_shards: int, audit: bool = False
) -> List[Shard]:
    """Construct every shard of ``spec`` in this process."""
    return [
        Shard(spec, shard_spec, audit=audit)
        for shard_spec in shard_specs(spec, num_shards)
    ]


class InProcessEngine:
    """Every shard in this process: live bounds, immediate delivery."""

    def __init__(
        self,
        spec: ClusterSpec,
        num_shards: int = 1,
        audit: bool = False,
    ) -> None:
        self.spec = spec
        self.num_shards = num_shards
        #: host seconds spent inside :meth:`run` (construction happens
        #: in ``__init__``, so the run window is pure execution)
        self.timed_seconds: Optional[float] = None
        self.shards = build_shards(spec, num_shards, audit=audit)
        owner: Dict[int, Shard] = {}
        for shard in self.shards:
            for node_id in shard.shard_spec.nodes:
                owner[node_id] = shard
        self._owner = owner
        for shard in self.shards:
            shard.deliver_remote = self._deliver
            shard.remote_bound = self._bound

    def _deliver(
        self, src: int, dst: int, arrival: int, chseq: int, wire: Packet
    ) -> None:
        self._owner[dst].ingest(src, dst, arrival, chseq, wire)

    def _bound(self, src: int, dst: int, lookahead: int) -> float:
        shard = self._owner[src]
        promise = shard.promise(shard.runtimes[src])
        return INFINITY if promise is None else promise + lookahead

    def run(self, max_rounds: int = 1_000_000) -> ShardRunResult:
        t0 = time.perf_counter()
        rounds = 0
        while True:
            rounds += 1
            if rounds > max_rounds:
                raise SimulationLimitError(
                    limit=max_rounds,
                    fired=sum(s.ops_executed for s in self.shards),
                    pending=sum(
                        0 if s.idle() else 1 for s in self.shards
                    ),
                    now=max(
                        rt.clock.now
                        for s in self.shards
                        for rt in s.runtimes.values()
                    ),
                    next_event_time=-1,
                )
            progress = [shard.run_until_blocked() for shard in self.shards]
            if any(progress):
                continue
            if all(shard.idle() for shard in self.shards):
                break
            # Conservative-PDES liveness: the globally minimal operation
            # is always executable under live bounds, so a quiescent,
            # non-idle state is a protocol bug, not a workload property.
            raise ConfigurationError(
                "sharded run wedged with pending operations: "
                + "; ".join(
                    f"shard{s.shard_spec.index} next="
                    + str(min(
                        (s.next_op(rt) for rt in s.runtimes.values()
                         if s.next_op(rt) is not None),
                        default=None,
                    ))
                    for s in self.shards
                    if not s.idle()
                )
            )
        self.timed_seconds = time.perf_counter() - t0
        return _merge(
            "in-process",
            self.num_shards,
            [shard.report() for shard in self.shards],
            rounds,
        )


# --------------------------------------------------------------- workers
def _worker_main(conn, spec: ClusterSpec, shard_spec: ShardSpec, audit: bool) -> None:
    """One shard in its own OS process; lock-step rounds with the parent.

    Per round: execute everything locally safe, then send the freshly
    generated cross-shard packets, the per-out-link promises, and an
    idle/progress flag.  The parent relays packets and promises and the
    round repeats until it sends ``finish`` (whereupon the final report
    ships back) or ``abort``.
    """
    try:
        shard = Shard(spec, shard_spec, audit=audit)
        conn.send({"ready": True})
        while True:
            progress = shard.run_until_blocked()
            msgs = shard.outbox
            shard.outbox = []
            conn.send({
                "msgs": msgs,
                "promises": shard.out_promises(),
                "idle": shard.idle(),
                "progress": progress or bool(msgs),
            })
            command = conn.recv()
            if command.get("cmd") == "finish":
                conn.send({"report": shard.report()})
                return
            if command.get("cmd") == "abort":
                return
            for src, dst, arrival, chseq, packet in command.get("msgs", ()):
                shard.ingest(src, dst, arrival, chseq, packet)
            for (src, dst), bound in command.get("bounds", {}).items():
                shard.set_chan_bound(src, dst, bound)
    except Exception as exc:  # ship the failure; never hang the parent
        try:
            conn.send({"error": f"{type(exc).__name__}: {exc}"})
        except Exception:
            pass
        raise


class WorkerEngine:
    """One worker process per shard, packets and promises star-relayed.

    ``fork`` is preferred (cheap, inherits the import state); ``spawn``
    is the fallback where fork is unavailable.  Worker count equals
    shard count -- the engine is about *parallelism*, so there is no
    oversubscription knob.
    """

    def __init__(
        self,
        spec: ClusterSpec,
        num_shards: int,
        audit: bool = False,
    ) -> None:
        if num_shards < 1:
            raise ConfigurationError("WorkerEngine needs >= 1 shard")
        self.spec = spec
        self.num_shards = num_shards
        self.audit = audit
        #: host seconds from "every worker built its shard" to "relay
        #: drained" -- the benchmark's timed window (construction and
        #: final-report pickling excluded)
        self.timed_seconds: Optional[float] = None
        # Only this engine forks, so only it pays for multiprocessing
        # (and the pickle and socket modules under it).
        import multiprocessing as mp

        methods = mp.get_all_start_methods()
        self._ctx = mp.get_context("fork" if "fork" in methods else methods[0])

    def run(self, max_rounds: int = 1_000_000) -> ShardRunResult:
        specs = shard_specs(self.spec, self.num_shards)
        owner: Dict[int, int] = {
            node_id: shard_spec.index
            for shard_spec in specs
            for node_id in shard_spec.nodes
        }
        conns = []
        workers = []
        for shard_spec in specs:
            parent_conn, child_conn = self._ctx.Pipe()
            worker = self._ctx.Process(
                target=_worker_main,
                args=(child_conn, self.spec, shard_spec, self.audit),
                daemon=True,
            )
            worker.start()
            child_conn.close()
            conns.append(parent_conn)
            workers.append(worker)
        try:
            for conn in conns:
                ready = conn.recv()
                if "error" in ready:
                    raise ConfigurationError(
                        f"shard worker failed to build: {ready['error']}"
                    )
            t0 = time.perf_counter()
            rounds = self._relay(conns, owner, max_rounds)
            self.timed_seconds = time.perf_counter() - t0
            reports = []
            for conn in conns:
                conn.send({"cmd": "finish"})
            for conn in conns:
                final = conn.recv()
                if "error" in final:
                    raise ConfigurationError(
                        f"shard worker failed: {final['error']}"
                    )
                reports.append(final["report"])
        except BaseException:
            for conn in conns:
                try:
                    conn.send({"cmd": "abort"})
                except Exception:
                    pass
            raise
        finally:
            for worker in workers:
                worker.join(timeout=30)
                if worker.is_alive():  # pragma: no cover - defensive
                    worker.terminate()
        return _merge("worker", self.num_shards, reports, rounds)

    def _relay(self, conns, owner: Dict[int, int], max_rounds: int) -> int:
        """Drive lock-step rounds until every shard is idle and quiet."""
        rounds = 0
        stale = 0
        last_promises: Optional[dict] = None
        while True:
            rounds += 1
            if rounds > max_rounds:
                raise SimulationLimitError(
                    limit=max_rounds, fired=rounds, pending=self.num_shards,
                    now=-1, next_event_time=-1,
                )
            states = [conn.recv() for conn in conns]
            for state in states:
                if "error" in state:
                    raise ConfigurationError(
                        f"shard worker failed: {state['error']}"
                    )
            outgoing_msgs: List[List[tuple]] = [[] for _ in conns]
            outgoing_bounds: List[dict] = [{} for _ in conns]
            traffic = False
            all_promises = {}
            for state in states:
                for msg in state["msgs"]:
                    outgoing_msgs[owner[msg[1]]].append(msg)
                    traffic = True
                for (src, dst), bound in state["promises"].items():
                    outgoing_bounds[owner[dst]][(src, dst)] = bound
                    all_promises[(src, dst)] = bound
            if not traffic and all(s["idle"] for s in states):
                return rounds
            progressed = any(s["progress"] for s in states)
            if not progressed and not traffic and all_promises == last_promises:
                stale += 1
                if stale >= STALE_ROUND_LIMIT:
                    raise ConfigurationError(
                        "worker-engine relay wedged: no progress, no "
                        f"traffic, promises unchanged for {stale} rounds "
                        f"(promises: {all_promises})"
                    )
            else:
                stale = 0
            last_promises = all_promises
            for conn, msgs, bounds in zip(conns, outgoing_msgs, outgoing_bounds):
                conn.send({"msgs": msgs, "bounds": bounds})


def run_sharded(
    spec: ClusterSpec,
    num_shards: int = 1,
    engine: str = "in-process",
    audit: bool = False,
) -> ShardRunResult:
    """Convenience front door used by the CLI, chaos oracle and bench."""
    if engine == "in-process":
        return InProcessEngine(spec, num_shards, audit=audit).run()
    if engine == "worker":
        return WorkerEngine(spec, num_shards, audit=audit).run()
    raise ConfigurationError(
        f"unknown sharding engine {engine!r} (use 'in-process' or 'worker')"
    )
