"""One table of twin runs: every differential oracle of the chaos harness.

Each oracle has the same shape: run one *subject* (an adversarial action
schedule, or a sharded :class:`~repro.sharding.ClusterSpec`) as two or
more *variants*, project every run onto the surfaces its contract
covers, and diff each projection against the first variant's.  A
:class:`Twin` is one row of that table:

* ``variants`` -- what differs between the runs (reference mode on/off,
  wire faults stripped, one protection backend per run, shard count...);
* ``project`` -- the contract: the named surfaces that must be equal;
* ``check`` -- the rare rule that is not equality (the IOMMU twin's
  abort bound, the delivery twin's quiesced-transport counters);
* ``requires`` -- world features the twin switches on (``reliability``,
  ``iommu``) or needs (``cluster``: two or more nodes).

:data:`TWINS` is the registry ``python -m repro chaos --oracle NAME``
selects from; :func:`repro.chaos.run_chaos` drives any selection, shrinks
diverging schedules with ddmin and serialises one artifact schema.
Variants that describe the same run are executed once per subject, and
the invariant-audited run is always one of the twins' own runs (see
:func:`audited_variant`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.chaos.actions import Action
from repro.chaos.explorer import RunResult, ScheduleExplorer
from repro.net.faults import FAULT_OPS
from repro.protection import BACKEND_NAMES
from repro.sharding import ClusterSpec, run_sharded

#: the stock protection backends the ``backends`` twin covers by default
PROTECTION_BACKENDS = BACKEND_NAMES

#: action kinds that perturb paging (the faults the IOMMU's
#: park-and-resume path must absorb): forced evictions are what make a
#: receive-buffer page non-resident under an incoming virtual transfer
PAGING_FAULT_KINDS = ("pageout",)

#: cluster shapes a seed expands to for spec twins (``--profile``)
SPEC_PROFILES: Dict[str, Dict[str, object]] = {
    "mesh": {},
    # gap far below the transfer time: every node takes the busy-device
    # retry path
    "contention": {"gap_cycles": 200},
    "torus": {"topology": "torus2d"},
}


def strip_wire_faults(actions: Sequence[Action]) -> List[Action]:
    """The fault-free twin of a schedule: same workload, no wire faults."""
    return [a for a in actions if a.kind not in FAULT_OPS]


def strip_paging_faults(actions: Sequence[Action]) -> List[Action]:
    """The paging-free twin: same workload, no forced evictions."""
    return [a for a in actions if a.kind not in PAGING_FAULT_KINDS]


def drain_before_writes(actions: Sequence[Action]) -> List[Action]:
    """The race-free twin: a ``drain`` before every CPU ``write``.

    A store racing an unwaited delivery into (or a source read of) the
    same bytes lands before or after it depending on timing, which
    twins that legally shift timing must not mistake for a divergence.
    """
    out: List[Action] = []
    for action in actions:
        if action.kind == "write":
            out.append(Action("drain"))
        out.append(action)
    return out


def outcome_class(outcome: str) -> str:
    """Timing-free projection of a world.apply() outcome label.

    Outcomes are ``"class"`` or ``"class:detail"`` where the detail may
    carry piece/retry counts that legally vary across protection
    backends (extra initiation cycles shift device-busy windows).
    """
    return outcome.split(":", 1)[0]


@dataclass(frozen=True)
class Setup:
    """The world every variant of one campaign starts from."""

    nodes: int = 1
    break_mode: Optional[str] = None
    reliability: bool = False
    iommu: bool = False
    #: the first entry is the reference every non-``backends`` twin runs on
    backends: Tuple[str, ...] = ("proxy",)
    checkpoint_every: Optional[int] = None
    audit: bool = True
    shards: Optional[int] = None
    engine: str = "in-process"


@dataclass
class Variant:
    """One run of a subject: config overrides plus a subject transform.

    Schedule variants override :class:`ScheduleExplorer` arguments (and
    ``reference``); spec variants set ``num_shards``/``engine`` and
    override :class:`ClusterSpec` fields.  ``replica`` > 0 forces a fresh
    run of a config that would otherwise be shared, on an explorer of its
    own (so it never resumes from another run's checkpoints).
    """

    label: str
    config: Dict[str, object] = field(default_factory=dict)
    transform: Callable[[Sequence[Action]], Sequence[Action]] = list
    replica: int = 0

    @property
    def untouched(self) -> bool:
        """Runs the subject as given, in the campaign's own world."""
        return not self.config and self.transform is list and not self.replica


@dataclass
class TwinReport:
    """The verdict of one twin on one subject."""

    twin: str
    labels: List[str]
    runs: list
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        if self.ok:
            return f"{self.twin}: {' / '.join(self.labels)} agree"
        more = len(self.mismatches) - 1
        return f"{self.twin}: {self.mismatches[0]}" + (
            f" (+{more} more)" if more else ""
        )


@dataclass(frozen=True)
class Twin:
    """One row of the oracle table (see the module docstring)."""

    name: str
    subject: str  # "schedule" | "spec"
    doc: str
    variants: Callable[[Setup], List[Variant]]
    project: Callable[[object], Dict[str, object]]
    check: Optional[Callable[[List[str], list], List[str]]] = None
    requires: frozenset = frozenset()
    #: default ``--profile`` for subjects this twin generates
    profile: Optional[str] = None

    def judge(self, subject, runner: "TwinRunner") -> TwinReport:
        """Run every variant of ``subject`` and diff them."""
        variants = self.variants(runner.setup)
        report = TwinReport(self.name, [v.label for v in variants], [])
        for variant in variants:
            try:
                report.runs.append(runner.run(subject, variant))
            except Exception as exc:
                report.runs.append(None)
                report.mismatches.append(
                    f"variant {variant.label} failed to run: "
                    f"{type(exc).__name__}: {exc}"
                )
        if report.ok:
            report.mismatches = self.compare(report.labels, report.runs)
        return report

    def compare(self, labels: List[str], runs: list) -> List[str]:
        """The contract: the extra check, then projections vs the first."""
        out = list(self.check(labels, runs)) if self.check else []
        ref = self.project(runs[0])
        for label, run in zip(labels[1:], runs[1:]):
            view = self.project(run)
            for surface in list(ref) + [k for k in view if k not in ref]:
                out += _diff(surface, ref.get(surface), view.get(surface),
                             labels[0], label)
        return out


def _diff(surface: str, a, b, la: str, lb: str) -> List[str]:
    if a == b:
        return []
    if isinstance(a, dict) and isinstance(b, dict):
        return [
            f"{surface} {key}: {la}={a.get(key)} vs {lb}={b.get(key)}"
            for key in sorted(set(a) | set(b))
            if a.get(key) != b.get(key)
        ]
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                return [f"{surface} diverges at line {i}: {la}={x!r} vs {lb}={y!r}"]
        return [f"{surface} length diverges: {la}={len(a)} vs {lb}={len(b)}"]
    return [f"{surface} diverges: {la}={a!r} vs {lb}={b!r}"]


class TwinRunner:
    """Executes variants for one campaign, sharing identical runs.

    Explorers persist for the runner's lifetime (their checkpoint
    capsules serve every shrink candidate); memoised runs are dropped by
    :meth:`forget` between subjects.
    """

    def __init__(self, setup: Setup) -> None:
        self.setup = setup
        self._explorers: Dict[tuple, ScheduleExplorer] = {}
        self._runs: Dict[tuple, object] = {}

    def forget(self) -> None:
        self._runs.clear()

    def run(self, subject, variant: Variant):
        config = dict(variant.config)
        if isinstance(subject, ClusterSpec):
            key = (tuple(sorted(config.items())), variant.replica)
            if key not in self._runs:
                shards = config.pop("num_shards")
                engine = config.pop("engine", "in-process")
                self._runs[key] = run_sharded(
                    dataclasses.replace(subject, **config),
                    num_shards=shards, engine=engine, audit=self.setup.audit,
                )
            return self._runs[key]
        reference = config.pop("reference", False)
        explorer = self._explorer(config, variant.replica)
        actions = list(variant.transform(subject))
        key = (id(explorer), reference, tuple(actions))
        if key not in self._runs:
            self._runs[key] = explorer.run(actions, reference=reference)
        return self._runs[key]

    def _explorer(
        self, overrides: Dict[str, object], replica: int
    ) -> ScheduleExplorer:
        """The explorer for the campaign's world with ``overrides`` applied;
        each replica gets its own, checkpoints included."""
        s = self.setup
        world = dict(
            nodes=s.nodes, break_mode=s.break_mode, audit=s.audit,
            reliability=s.reliability, protection=s.backends[0],
            iommu=s.iommu, checkpoint_every=s.checkpoint_every,
        )
        world.update(overrides)
        key = (tuple(sorted(world.items())), replica)
        if key not in self._explorers:
            self._explorers[key] = ScheduleExplorer(**world)
        return self._explorers[key]


# ------------------------------------------------------------ projections
def _failure(run: RunResult) -> str:
    return run.failure.identity() if run.failure else "none"


def _exact(run: RunResult) -> Dict[str, object]:
    """Everything observable: the bit-identity contract."""
    return {
        "failure": _failure(run),
        "audit log": run.audit_log,
        "counter": run.counters,
        "memory digest": run.mem_digest,
    }


def _protection(run: RunResult) -> Dict[str, object]:
    """Timing-free: backends may shift cycles, never decisions."""
    return {
        # kind and index only: failure messages may embed timestamps
        "failure": f"{run.failure.kind}@{run.failure.index}" if run.failure else "none",
        "outcome class": [outcome_class(o) for o in run.outcomes],
        "protection fault ledger": run.protection_faults,
        "NIPT state": run.nipt_state,
        "memory digest": run.mem_digest,
    }


def _sharded(run) -> Dict[str, object]:
    return {
        "audit log": run.logs,
        "memory digest": run.digests,
        "counter": run.curated_counters(),
    }


def _clean(labels: List[str], runs: List[RunResult]) -> List[str]:
    return [
        f"{label} run failed: {run.failure.identity()}"
        for label, run in zip(labels, runs)
        if run.failure is not None
    ]


def _delivery_check(labels: List[str], runs: List[RunResult]) -> List[str]:
    """The transport quiesced: every tracked message delivered."""
    out = _clean(labels, runs)
    counters = runs[0].counters
    sent = counters.get("rel.messages_sent", 0)
    delivered = counters.get("rel.messages_delivered", 0)
    failed = counters.get("rel.delivery_failed", 0)
    if failed:
        out.append(f"{failed} message(s) exhausted the retry budget")
    if sent != delivered:
        out.append(
            f"lost messages: transport tracked {sent} but delivered {delivered}"
        )
    return out


def _ledger(run: RunResult) -> Tuple[int, int, List[str]]:
    """Sum the per-node IOMMU ledgers: (delivered, aborted, problems)."""
    delivered = aborted = node = 0
    problems: List[str] = []
    c = run.counters
    while f"io{node}.translations" in c:
        p = f"io{node}."
        total = c[p + "delivered_direct"] + c[p + "delivered_replayed"]
        if total + c[p + "aborted"] != c[p + "translations"]:
            problems.append(
                f"node {node} ledger is inexact: {c[p + 'translations']} "
                f"translations vs {total} delivered + {c[p + 'aborted']} aborted"
            )
        if c[p + "parked_now"]:
            problems.append(
                f"{c[p + 'parked_now']} transfer(s) left parked on node {node}"
            )
        delivered += total
        aborted += c[p + "aborted"]
        node += 1
    return delivered, aborted, problems


def _iommu_check(labels: List[str], runs: List[RunResult]) -> List[str]:
    """Exact ledgers, nothing parked, and paging never adds aborts."""
    out = _clean(labels, runs)
    ledgers = [_ledger(run) for run in runs]
    for label, (_, _, problems) in zip(labels, ledgers):
        out += [f"{label} run's {p}" for p in problems]
    faulted, free = ledgers[0][1], ledgers[1][1]
    if faulted > free:
        out.append(
            f"paging degraded {faulted - free} transfer(s) to the abort "
            f"outcome ({labels[0]}={faulted} vs {labels[1]}={free})"
        )
    return out


def _spec_engines(setup: Setup) -> List[str]:
    if setup.engine == "both":
        return ["in-process", "worker"]
    return [setup.engine]


# ------------------------------------------------------------ the table
TWINS: Dict[str, Twin] = {
    twin.name: twin
    for twin in (
        Twin(
            "fast-paths", "schedule",
            "default / reference=True (no translation cache, bulk I/O, "
            "packet pool or send plans): failure, audit log, "
            "counters, memory",
            lambda s: [Variant("fast"), Variant("reference", {"reference": True})],
            _exact,
        ),
        Twin(
            "delivery", "schedule",
            "as is / wire faults stripped: clean runs, nothing lost, memory",
            lambda s: [Variant("faulted"), Variant("fault-free", transform=strip_wire_faults)],
            lambda run: {"memory digest": run.mem_digest},
            check=_delivery_check,
            requires=frozenset({"cluster", "reliability"}),
        ),
        Twin(
            # A wire fault's lane ordinal does not move when pageouts go,
            # so both sides keep the schedule's wire faults.
            "iommu", "schedule",
            "paging as is / stripped: clean, exact ledgers, no extra "
            "aborts, deliveries, logical memory",
            lambda s: [
                Variant("faulted"),
                Variant("paging-free", transform=strip_paging_faults),
            ],
            lambda run: {"delivered count": _ledger(run)[0], "logical memory": run.vm_digest},
            check=_iommu_check,
            requires=frozenset({"cluster", "iommu"}),
            profile="paging",
        ),
        Twin(
            # Backends legally shift timing: settle before every write so
            # a store cannot race an in-flight delivery.
            "backends", "schedule",
            "one run per --backend (writes settled): "
            "failure kind@index, outcome classes, fault ledger, NIPT, "
            "memory",
            lambda s: [
                Variant(spec, {"protection": spec}, drain_before_writes)
                for spec in s.backends
            ],
            _protection,
            profile="churn",
        ),
        Twin(
            "determinism", "schedule",
            "the same config twice: failure, audit log, counters, memory",
            lambda s: [Variant("first"), Variant("second", replica=1)],
            _exact,
        ),
        Twin(
            "shards", "spec",
            "1 shard in reference mode (no host fast path, packet pool "
            "included) / K shards (default 2) on each --engine: logs, "
            "per-node digests, counters",
            lambda s: [
                Variant("reference", {"num_shards": 1, "reference": True})
            ] + [
                Variant(f"{s.shards or 2}-shard {engine}",
                        {"num_shards": s.shards or 2, "engine": engine})
                for engine in _spec_engines(s)
            ],
            _sharded,
        ),
    )
}


def get_twins(names: Sequence[str]) -> List[Twin]:
    """Registry lookup; raises ``ValueError`` naming the choices."""
    unknown = [n for n in names if n not in TWINS]
    if unknown or not names:
        raise ValueError(
            f"unknown --oracle {','.join(unknown) or '(empty)'}; "
            f"choose from {', '.join(TWINS)}"
        )
    return [TWINS[n] for n in names]


def audited_variant(twins: Sequence[Twin], setup: Setup) -> Variant:
    """The schedule run whose invariant failures fail the campaign.

    The untouched subject when any selected twin runs it, else the first
    twin's first variant (the ``backends`` twin settles writes), so
    auditing never costs a run of its own.
    """
    variants = [v for twin in twins for v in twin.variants(setup)]
    return next((v for v in variants if v.untouched),
                variants[0] if variants else Variant("base"))
