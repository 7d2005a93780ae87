"""Schedule execution: one deterministic run of an adversarial schedule.

:class:`ScheduleExplorer` owns the replay loop: build a fresh
:class:`~repro.chaos.world.ChaosWorld`, install the
:class:`~repro.chaos.auditor.InvariantAuditor`, apply the actions one by
one with a strict audit at every boundary, then settle all hardware and
audit once more.  The product is a :class:`RunResult`: an audit log (one
line per action, folding in outcome, cycle time and key counters), the
final curated counters and memory digest, and -- if anything went wrong
-- a :class:`Failure` pinpointing the action index.

Audit logs double as the determinism witness (two runs of the same seed
must produce byte-identical logs) and as the differential oracle's
line-by-line comparison medium.

**Checkpoint bisection** (``checkpoint_every=N``): the explorer snapshots
the live (world, auditor, partial log) capsule every N actions, keyed by
the exact action prefix that produced it.  A later run whose schedule
shares a checkpointed prefix restores the capsule and replays only the
tail -- which turns ddmin shrinking from quadratic re-execution into
suffix replay, since every shrink candidate shares a long prefix with
the original schedule.  Restore-equivalence (``tests/snapshot/``)
guarantees a restored run is bit-identical to an uninterrupted one, so
checkpointing never changes a run's outcome, log, or shrunk reproducer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chaos.actions import Action
from repro.chaos.auditor import InvariantAuditor
from repro.chaos.world import ChaosWorld
from repro.errors import InvariantViolation
from repro.snapshot import restore, snapshot

#: retained checkpoint capsules per explorer; oldest evicted first.  Deep
#: enough for ddmin (which probes prefixes of one schedule), bounded so a
#: long campaign cannot hold hundreds of captured worlds.
_CHECKPOINT_CACHE_CAP = 64


@dataclass
class Failure:
    """What stopped a run, and where."""

    index: int          # schedule index of the offending action (-1: settle)
    kind: str           # "invariant" | "crash"
    message: str
    #: causal transfer spans in flight when the run stopped (repro.obs);
    #: diagnostic context only -- NOT part of the failure identity, so
    #: shrinking and the differential oracle stay stable
    span_context: str = ""

    def identity(self) -> str:
        """Comparison key: same failure <=> same kind and message."""
        return f"{self.kind}@{self.index}: {self.message}"


@dataclass
class RunResult:
    """Everything observable about one schedule run."""

    reference: bool
    audit_log: List[str] = field(default_factory=list)
    failure: Optional[Failure] = None
    counters: Dict[str, int] = field(default_factory=dict)
    mem_digest: str = ""
    #: digest of logical (per-address-space) memory; the IOMMU
    #: convergence oracle's comparison medium -- physical images cannot
    #: converge once paging actions are stripped from a schedule
    vm_digest: str = ""
    event_audits: int = 0
    boundary_audits: int = 0
    #: raw per-action outcome labels, in schedule order (the audit log
    #: folds these into timing-bearing lines; the conformance oracle
    #: compares their timing-free *classes* across protection backends)
    outcomes: List[str] = field(default_factory=list)
    #: canonical protection fault ledger (world.protection_faults())
    protection_faults: List[str] = field(default_factory=list)
    #: final per-NIC NIPT snapshot (world.nipt_state())
    nipt_state: Tuple[tuple, ...] = ()

    @property
    def ok(self) -> bool:
        return self.failure is None


class ScheduleExplorer:
    """Runs schedules against fresh worlds, with always-on auditing.

    ``world`` holds the :class:`ChaosWorld` keywords every run builds its
    world with (``reference`` is chosen per run).
    """

    def __init__(self, checkpoint_every: Optional[int] = None, **world) -> None:
        if checkpoint_every is not None and checkpoint_every <= 0:
            raise ValueError(
                f"checkpoint_every must be positive, got {checkpoint_every}"
            )
        self.world = world
        self.checkpoint_every = checkpoint_every
        #: (reference, action prefix) -> capsule snapshot; insertion order
        #: doubles as the eviction order (oldest first)
        self._checkpoints: Dict[Tuple[bool, Tuple[Action, ...]], bytes] = {}
        #: observability: runs resumed from a capsule / capsules written
        self.checkpoint_hits = 0
        self.checkpoints_stored = 0

    def run(self, actions: Sequence[Action], reference: bool = False) -> RunResult:
        """Replay ``actions`` on a fresh world; never raises for findings."""
        actions = list(actions)
        world = auditor = None
        result = RunResult(reference=reference)
        start = 0
        if self.checkpoint_every:
            resumed = self._resume(actions, reference, result)
            if resumed is not None:
                world, auditor, start = resumed
        if world is None:
            world = ChaosWorld(reference=reference, **self.world)
            auditor = InvariantAuditor(world)
        auditor.install()
        every = self.checkpoint_every
        try:
            for i in range(start, len(actions)):
                action = actions[i]
                try:
                    outcome = world.apply(action)
                    auditor.check_boundary()
                except InvariantViolation as exc:
                    result.failure = Failure(i, "invariant", str(exc))
                    break
                except Exception as exc:  # unexpected: a harness/kernel crash
                    result.failure = Failure(
                        i, "crash", f"{type(exc).__name__}: {exc}"
                    )
                    break
                result.outcomes.append(outcome)
                result.audit_log.append(self._log_line(i, action, outcome, world))
                if every and (i + 1) % every == 0 and i + 1 < len(actions):
                    self._store(actions[: i + 1], reference, world, auditor, result)
            if result.failure is None:
                try:
                    world.settle()
                    auditor.check_boundary()
                except InvariantViolation as exc:
                    result.failure = Failure(-1, "invariant", str(exc))
                except Exception as exc:
                    result.failure = Failure(
                        -1, "crash", f"{type(exc).__name__}: {exc}"
                    )
        finally:
            auditor.uninstall()
        if result.failure is not None:
            result.failure.span_context = world.span_context()
        result.counters = world.counters()
        result.mem_digest = world.mem_digest()
        result.vm_digest = world.vm_digest()
        result.protection_faults = world.protection_faults()
        result.nipt_state = world.nipt_state()
        result.event_audits = auditor.event_audits
        result.boundary_audits = auditor.boundary_audits
        return result

    # ---------------------------------------------------------- checkpoints
    def _store(
        self,
        prefix: List[Action],
        reference: bool,
        world: ChaosWorld,
        auditor: InvariantAuditor,
        result: RunResult,
    ) -> None:
        """Capture a capsule for ``prefix`` (the actions applied so far).

        World, auditor and the partial log are captured as one graph, so the
        auditor's checkers keep pointing at the capsule world's kernels.
        Capture must not perturb the run -- guaranteed by the
        restore-equivalence tier, which diffs checkpointed runs against
        uninterrupted ones line by line.
        """
        key = (reference, tuple(prefix))
        if key in self._checkpoints:
            return
        capsule = (world, auditor, result.audit_log, result.outcomes)
        self._checkpoints[key] = snapshot(capsule)
        self.checkpoints_stored += 1
        while len(self._checkpoints) > _CHECKPOINT_CACHE_CAP:
            self._checkpoints.pop(next(iter(self._checkpoints)))

    def _resume(
        self, actions: List[Action], reference: bool, result: RunResult
    ) -> Optional[Tuple[ChaosWorld, InvariantAuditor, int]]:
        """Restore the longest checkpointed prefix of ``actions``, if any.

        Returns ``(world, auditor, k)`` positioned after action ``k - 1``
        with the partial log already copied into ``result``, or ``None``
        when no stored prefix matches.  Every load is a fresh restore,
        so a capsule can seed any number of future runs.
        """
        every = self.checkpoint_every
        k = (len(actions) // every) * every
        while k > 0:
            blob = self._checkpoints.get((reference, tuple(actions[:k])))
            if blob is not None:
                world, auditor, log, outcomes = restore(blob)
                result.audit_log.extend(log)
                result.outcomes.extend(outcomes)
                self.checkpoint_hits += 1
                return world, auditor, k
            k -= every
        return None

    @staticmethod
    def _log_line(i: int, action: Action, outcome: str, world: ChaosWorld) -> str:
        faults = sum(m.kernel.vm.faults_handled for m in world.machines)
        switches = sum(m.kernel.scheduler.switches for m in world.machines)
        packets = (
            world.cluster.interconnect.packets_routed
            if world.cluster is not None
            else (world.sink.writes + world.sink.reads if world.sink else 0)
        )
        return (
            f"{i:04d} {action.brief():<36} {outcome:<18} "
            f"t={world.clock.now} f={faults} s={switches} p={packets}"
        )
