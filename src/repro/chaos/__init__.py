"""Chaos harness for the UDMA fast paths.

Deterministic adversarial schedules (seeded RNG), always-on invariant
auditing hooked into the event loop, one table of differential twins
(:mod:`repro.chaos.twins`) replaying every subject under the variants
its contract compares, and a ddmin shrinker that reduces any failing
schedule to a paste-ready minimal reproducer.

Entry points::

    from repro.chaos import run_chaos
    report = run_chaos(seed=7, steps=200, nodes=2, oracles=("fast-paths",))
    assert report.ok

or, from a shell::

    python -m repro chaos --oracle fast-paths --seed 7 --steps 200 --nodes 2
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.chaos.actions import (
    ACTION_WEIGHTS,
    CHURN_WEIGHTS,
    PAGING_WEIGHTS,
    SCHEDULE_PROFILES,
    Action,
    actions_from_json,
    actions_to_json,
    generate_schedule,
)
from repro.chaos.auditor import InvariantAuditor
from repro.chaos.explorer import Failure, RunResult, ScheduleExplorer
from repro.chaos.shrinker import ShrinkResult, format_repro, shrink
from repro.chaos.twins import (
    PAGING_FAULT_KINDS,
    PROTECTION_BACKENDS,
    SPEC_PROFILES,
    TWINS,
    Setup,
    Twin,
    TwinReport,
    TwinRunner,
    Variant,
    audited_variant,
    get_twins,
    outcome_class,
    strip_paging_faults,
    strip_wire_faults,
)
from repro.chaos.world import BREAK_MODES, ChaosWorld
from repro.errors import ConfigurationError
from repro.protection import make_backend
from repro.sharding import ClusterSpec

__all__ = [
    "ACTION_WEIGHTS",
    "CHURN_WEIGHTS",
    "PAGING_WEIGHTS",
    "SCHEDULE_PROFILES",
    "SPEC_PROFILES",
    "Action",
    "ChaosReport",
    "ChaosWorld",
    "PROTECTION_BACKENDS",
    "PAGING_FAULT_KINDS",
    "Failure",
    "InvariantAuditor",
    "RunResult",
    "ScheduleExplorer",
    "ShrinkResult",
    "TWINS",
    "Twin",
    "TwinReport",
    "Variant",
    "actions_from_json",
    "actions_to_json",
    "format_repro",
    "generate_schedule",
    "outcome_class",
    "run_chaos",
    "shrink",
    "strip_paging_faults",
    "strip_wire_faults",
]

#: the artifact schema tag every twin's failure file carries
ARTIFACT_KIND = "chaos-twins"


@dataclass
class ChaosReport:
    """Everything one chaos campaign produced, for either subject kind."""

    seed: int
    nodes: int
    #: the campaign as CLI settings (``--oracle``, ``--nodes``, ...);
    #: artifacts carry them so ``--replay`` reruns the same campaign
    settings: Dict[str, object]
    twins: List[TwinReport] = field(default_factory=list)
    actions: List[Action] = field(default_factory=list)
    #: the invariant-audited run of a schedule subject (None for specs):
    #: the untouched schedule when a selected twin runs it, else the
    #: first twin's first variant (see ``twins.audited_variant``)
    fast: Optional[RunResult] = None
    spec: Optional[ClusterSpec] = None
    shrunk: Optional[ShrinkResult] = None
    repro: str = ""

    @property
    def mismatches(self) -> List[str]:
        return [m for twin in self.twins for m in twin.mismatches]

    @property
    def ok(self) -> bool:
        return (self.fast is None or self.fast.ok) and not self.mismatches

    def twin(self, name: str) -> TwinReport:
        """The verdict of the named twin."""
        return next(t for t in self.twins if t.twin == name)

    @property
    def failure_message(self) -> str:
        if self.fast is not None and self.fast.failure is not None:
            return self.fast.failure.identity()
        return self.mismatches[0] if self.mismatches else ""

    def summary(self) -> str:
        if self.fast is not None:
            log = self.fast.audit_log
            lines = [
                f"chaos: seed={self.seed} nodes={self.nodes} "
                f"actions={len(self.actions)} applied={len(log)}",
                f"audits: {self.fast.event_audits} event-hook, "
                f"{self.fast.boundary_audits} boundary",
                f"final: t={self.fast.counters.get('now', 0)} "
                f"mem={self.fast.mem_digest}",
            ]
        else:
            spec = self.spec
            lines = [
                f"chaos: seed={spec.seed} nodes={spec.num_nodes} "
                f"{spec.topology} gap={spec.gap_cycles} iommu={spec.iommu}"
            ]
        lines += [twin.summary() for twin in self.twins]
        if self.ok:
            lines.append("result: PASS")
        else:
            lines.append(f"result: FAIL -- {self.failure_message}")
            failure = self.fast.failure if self.fast is not None else None
            if failure is not None and failure.span_context:
                lines.append(f"spans : {failure.span_context}")
            if self.shrunk is not None:
                lines.append(
                    f"shrunk: {len(self.actions)} -> "
                    f"{len(self.shrunk.actions)} actions "
                    f"({self.shrunk.evaluations} replays)"
                )
        return "\n".join(lines)

    def artifact(self) -> dict:
        """The one JSON artifact schema: replays with ``chaos --replay``.

        ``actions`` is the shrunk schedule when shrinking ran; spec
        subjects carry the whole :class:`ClusterSpec` instead.
        """
        data: Dict[str, object] = {
            "kind": ARTIFACT_KIND,
            "settings": dict(self.settings, seed=self.seed),
            "ok": self.ok,
            "mismatches": self.mismatches[:50],
        }
        if self.spec is not None:
            data["spec"] = self.spec.as_dict()
        else:
            shrunk = self.shrunk.actions if self.shrunk else self.actions
            data["actions"] = actions_to_json(shrunk)
        return data


def _replay_flags(settings: Dict[str, object]) -> str:
    """The CLI flags that rerun a campaign with these settings."""
    flags = []
    for key, value in settings.items():
        flag = "--break" if key == "break_mode" else "--" + key.replace("_", "-")
        if value is True:
            flags.append(flag)
        elif value not in (None, False):
            flags.append(f"{flag} {value}")
    return " ".join(flags)


def run_chaos(
    seed: int = 0,
    steps: int = 100,
    nodes: Optional[int] = None,
    break_mode: Optional[str] = None,
    oracles: Sequence[str] = ("fast-paths",),
    actions: Optional[Sequence[Action]] = None,
    max_shrink_evals: int = 200,
    iommu: bool = False,
    profile: Optional[str] = None,
    checkpoint_every: Optional[int] = None,
    backends: Optional[Sequence[str]] = None,
    shards: Optional[int] = None,
    engine: str = "in-process",
    audit: bool = True,
    spec: Optional[ClusterSpec] = None,
) -> ChaosReport:
    """Run one chaos campaign: build the subject, judge every twin, shrink.

    Args:
        seed: subject seed (ignored when ``actions``/``spec`` is given).
        steps: schedule length.
        nodes: 1 builds a single node + sink device; >= 2 a cluster ring.
            Defaults to 16 for spec twins, 2 when a twin needs a cluster
            (or ``iommu`` is on), 1 otherwise.
        break_mode: plant a deliberate kernel bug (``"no-inval"`` or
            ``"stale-xlat"``) -- the acceptance check that the harness
            actually catches broken kernels.
        oracles: names from :data:`~repro.chaos.twins.TWINS`; all must
            take the same subject kind.  Empty: the audited run alone.
        actions: replay this explicit schedule instead of generating one.
        max_shrink_evals: ddmin replay budget when a failure needs shrinking.
        iommu: enable the virtual-address RDMA tier in every variant (the
            ``iommu`` twin switches it on itself; the ``delivery`` twin
            likewise switches on the reliable transport).
        profile: schedule profile (see SCHEDULE_PROFILES) or, for spec
            twins, cluster shape (SPEC_PROFILES); defaults to the first
            twin's own, then ``"paging"`` under iommu.
        checkpoint_every: snapshot the live world every N actions
            (``repro.snapshot``) so shrink candidates sharing a prefix
            resume from the checkpoint instead of replaying from t=0.
            Exact: the report -- including the shrunk reproducer -- is
            bit-identical with checkpointing on or off.
        backends: protection backend specs; the ``backends`` twin runs
            one variant per entry (default: every stock backend), every
            other twin runs on a single one (default ``proxy``).
        shards, engine, audit: spec twins' shard count (twin default when
            None), sharded engine (``"both"`` checks both) and
            per-operation invariant auditing.
        spec: replay this explicit cluster spec (spec twins).

    Raises:
        ValueError: the selection cannot run as asked (one-line reason);
            raised before anything is simulated.
    """
    twins = get_twins(oracles) if oracles else []
    needs = set().union(*(t.requires for t in twins))
    kinds = {t.subject for t in twins}
    if len(kinds) > 1:
        raise ValueError(
            "schedule and spec twins cannot share a run: "
            + ", ".join(f"{t.name} ({t.subject})" for t in twins)
        )
    multi = any(t.name == "backends" for t in twins)
    if backends is None:
        backends = PROTECTION_BACKENDS if multi else ("proxy",)
    backends = tuple(backends)
    settings: Dict[str, object] = {"oracle": ",".join(oracles) or None}
    if kinds == {"spec"}:
        nodes = 16 if nodes is None else nodes
        profile = profile or "mesh"
        if profile not in SPEC_PROFILES:
            raise ValueError(
                f"unknown spec profile {profile!r}; choose from "
                f"{', '.join(SPEC_PROFILES)}"
            )
        if spec is None:
            try:
                spec = ClusterSpec(
                    num_nodes=nodes, seed=seed, iommu=iommu,
                    **SPEC_PROFILES[profile],
                )
                spec.lookaheads()  # validates the topology
            except ConfigurationError as exc:
                raise ValueError(f"--nodes {nodes}: {exc}") from None
        if shards is not None and not 1 <= shards <= spec.num_nodes:
            raise ValueError(
                f"--shards {shards} must be in [1, {spec.num_nodes}]"
            )
        setup = Setup(nodes=spec.num_nodes, iommu=spec.iommu, audit=audit,
                      shards=shards, engine=engine)
        settings.update(nodes=spec.num_nodes, iommu=spec.iommu, shards=shards,
                        engine=engine if engine != "in-process" else None)
        runner = TwinRunner(setup)
        return ChaosReport(
            seed=spec.seed, nodes=spec.num_nodes, settings=settings, spec=spec,
            twins=[twin.judge(spec, runner) for twin in twins],
        )

    user_iommu, iommu = iommu, iommu or "iommu" in needs
    if nodes is None:
        nodes = 2 if iommu or "cluster" in needs else 1
    problem = _schedule_problem(twins, nodes, iommu, break_mode, backends,
                                checkpoint_every, multi)
    if problem:
        raise ValueError(problem)
    if profile is None:
        profile = next((t.profile for t in twins if t.profile),
                       "paging" if iommu else "default")
    schedule = (
        list(actions) if actions is not None
        else generate_schedule(seed, steps, profile=profile)
    )
    setup = Setup(
        nodes=nodes, break_mode=break_mode, iommu=iommu, backends=backends,
        reliability="reliability" in needs,
        checkpoint_every=checkpoint_every, audit=audit,
    )
    settings.update(nodes=nodes, break_mode=break_mode, iommu=user_iommu,
                    backend=",".join(backends) if backends != ("proxy",) else None)
    runner = TwinRunner(setup)
    audited = audited_variant(twins, setup)
    report = ChaosReport(
        seed=seed, nodes=nodes, settings=settings, actions=schedule,
        fast=runner.run(schedule, audited),
        twins=[twin.judge(schedule, runner) for twin in twins],
    )
    if report.ok:
        return report

    def still_fails(candidate: List[Action]) -> bool:
        runner.forget()
        if runner.run(candidate, audited).failure is not None:
            return True
        return any(not twin.judge(candidate, runner).ok for twin in twins)

    report.shrunk = shrink(schedule, still_fails, max_evals=max_shrink_evals)
    fast = report.fast
    report.repro = format_repro(
        report.shrunk.actions,
        seed=seed,
        flags=_replay_flags(settings),
        failure_message=report.failure_message,
        span_context=fast.failure.span_context if fast.failure else "",
    )
    return report


def _schedule_problem(
    twins: List[Twin],
    nodes: int,
    iommu: bool,
    break_mode: Optional[str],
    backends: Sequence[str],
    checkpoint_every: Optional[int],
    multi: bool,
) -> Optional[str]:
    """Why a schedule campaign cannot run as asked, or None."""
    if nodes < 2:
        for twin in twins:
            if "cluster" in twin.requires:
                return f"the {twin.name} twin needs a cluster (--nodes 2 or more)"
        if iommu:
            return "--iommu needs a cluster (--nodes 2 or more)"
    if break_mode not in BREAK_MODES:
        return (f"unknown --break mode {break_mode!r}; choose from "
                f"{', '.join(m for m in BREAK_MODES if m)}")
    if checkpoint_every is not None and checkpoint_every <= 0:
        return "--checkpoint-every needs a positive action count"
    if multi and len(backends) < 2:
        return "the backends twin needs at least two --backend entries"
    if not multi and len(backends) > 1:
        return "only the backends twin runs more than one --backend"
    try:
        for name in backends:
            make_backend(name)
    except ConfigurationError as exc:
        return f"bad --backend spec: {exc}"
    return None
