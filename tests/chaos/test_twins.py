"""The twin table itself: every entry runs, replays, and fails loudly.

Each row of :data:`repro.chaos.TWINS` must run clean on a small
subject, serialise to the one artifact schema, and replay through
``chaos --replay`` -- clean when nothing changed, exit 1 once a
divergence is forged into its projection.  The CLI derives flag
validity from the table, so flag combinations that cannot run as asked
exit 2 with a one-line reason instead of silently running something
else.
"""

import dataclasses
import itertools
import json

import pytest

from repro.chaos import PROTECTION_BACKENDS, TWINS, ScheduleExplorer, run_chaos
from repro.chaos.twins import drain_before_writes
from repro.cli import main
from repro.net.faults import FAULT_OPS
from repro.sharding import ClusterSpec

SMALL = {
    "schedule": dict(seed=3, steps=20, nodes=2),
    "spec": dict(
        spec=ClusterSpec(num_nodes=4, topology="linear", messages_per_node=3),
        audit=False,
    ),
}


@pytest.mark.parametrize("name", list(TWINS))
def test_every_twin_runs_clean_and_replays(name, tmp_path, monkeypatch, capsys):
    twin = TWINS[name]
    kwargs = dict(SMALL[twin.subject])
    if name == "backends":
        kwargs["backends"] = PROTECTION_BACKENDS
    report = run_chaos(oracles=(name,), **kwargs)
    assert report.ok, report.summary()
    verdict = report.twin(name)
    assert len(verdict.runs) >= 2 and None not in verdict.runs

    path = tmp_path / "artifact.json"
    path.write_text(json.dumps(report.artifact()))
    argv = ["chaos", "--replay", str(path)]
    if twin.subject == "spec":
        argv.append("--no-audit")
    assert main(argv) == 0
    assert f"{name}: " in capsys.readouterr().out

    # Forge a divergence: every projection now differs from the last.
    calls = itertools.count()

    def forged(run):
        return dict(twin.project(run), forged=next(calls))

    monkeypatch.setitem(TWINS, name, dataclasses.replace(twin, project=forged))
    assert main(argv) == 1
    assert "forged diverges" in capsys.readouterr().out


def test_help_epilog_lists_every_twin(capsys):
    with pytest.raises(SystemExit):
        main(["chaos", "--help"])
    text = capsys.readouterr().out
    for name in TWINS:
        assert f"  {name} " in text
    assert "--engine\n" in text  # scoped to the shards twin alone


def test_reference_variants_run_in_reference_mode():
    """The fast-paths twin diffs a default run against a reference-mode
    run, and the shards twin's first variant runs in reference mode."""
    fast, reference = run_chaos(**SMALL["schedule"]).twin("fast-paths").runs
    assert (fast.reference, reference.reference) == (False, True)
    shards = run_chaos(oracles=("shards",), **SMALL["spec"]).twin("shards")
    assert shards.runs[0].xlat_hits == 0 < shards.runs[1].xlat_hits


def test_twin_requirements_switch_the_world_on():
    report = run_chaos(seed=1, steps=10, oracles=("iommu",))
    assert report.nodes == 2  # the twin needs a cluster
    assert any(k.startswith("io0.") for k in report.fast.counters)


@pytest.fixture
def explorer_runs(monkeypatch):
    """Every schedule simulation a campaign makes: (explorer, actions)."""
    calls = []
    real = ScheduleExplorer.run

    def counted(self, actions, reference=False):
        calls.append((self, len(actions)))
        return real(self, actions, reference=reference)

    monkeypatch.setattr(ScheduleExplorer, "run", counted)
    return calls


def test_determinism_replica_never_resumes_from_the_first_run(explorer_runs):
    """With checkpoints on, the second run executes the whole schedule on
    an explorer of its own instead of resuming from the first run's
    capsules (which would compare only the tail after the last one)."""
    report = run_chaos(seed=3, steps=20, nodes=2, oracles=("determinism",),
                       checkpoint_every=5)
    assert report.ok, report.summary()
    (first, _), (replica, _) = explorer_runs
    assert first is not replica
    assert replica.checkpoints_stored > 0 and replica.checkpoint_hits == 0


def test_backends_audits_its_own_reference_run(explorer_runs):
    """Without a twin that runs the raw schedule, the audited run is the
    first backend's (write-drained) run: one simulation per backend,
    none extra."""
    report = run_chaos(seed=2, steps=40, nodes=2, oracles=("backends",),
                       backends=PROTECTION_BACKENDS)
    assert report.ok, report.summary()
    assert report.fast is report.twin("backends").runs[0]
    assert len(explorer_runs) == len(PROTECTION_BACKENDS)
    # churn schedules carry wire faults, which every backend run keeps
    assert any(a.kind in FAULT_OPS for a in report.actions)
    assert explorer_runs[0][1] == len(drain_before_writes(report.actions))


# ---------------------------------------------------- flags fail loudly
def _refused(argv, capsys):
    code = main(["chaos", *argv])
    err = capsys.readouterr().err
    assert err.count("\n") == (1 if code == 2 else 0)
    return code, err


def test_shards_with_too_few_nodes_is_refused(capsys):
    """The sharded spec is exactly --nodes: a non-square mesh exits 2
    instead of silently running a 16-node cluster."""
    code, err = _refused(["--oracle", "shards", "--shards", "2", "--nodes", "2"], capsys)
    assert code == 2
    assert "--nodes 2" in err and "square node count" in err


def test_single_backend_is_refused_by_the_backends_twin(capsys):
    """``--backend proxy`` never widens to all three backends."""
    code, err = _refused(["--oracle", "backends", "--backend", "proxy"], capsys)
    assert code == 2
    assert "at least two --backend entries" in err


def test_pooling_oracle_is_refused_naming_the_choices(capsys):
    """The pooling twin folded into ``shards``: asking for it exits 2 with
    the remaining choices, and ``--engine both`` is still never silently
    narrowed by a twin that runs no engine."""
    code, err = _refused(["--oracle", "pooling"], capsys)
    assert code == 2
    assert "unknown --oracle pooling; choose from " + ", ".join(TWINS) in err
    assert len(TWINS) == 6
    code, err = _refused(["--oracle", "fast-paths", "--engine", "both"], capsys)
    assert code == 2
    assert "--engine does not apply to the fast-paths twin" in err


def test_single_backend_runs_exactly_that_backend(capsys):
    code = main(["chaos", "--oracle", "determinism", "--backend", "handler",
                 "--steps", "10", "--nodes", "2"])
    assert code == 0
    report = run_chaos(steps=10, nodes=2, oracles=("determinism",),
                       backends=("handler",))
    assert report.fast is report.twin("determinism").runs[0]
    assert report.settings["backend"] == "handler"


@pytest.mark.parametrize("argv, reason", [
    (["--oracle", "fast-paths", "--backend", "all"],
     "only the backends twin runs more than one --backend"),
    (["--oracle", "nope"], "unknown --oracle nope"),
    (["--oracle", "delivery", "--nodes", "1"], "needs a cluster"),
    (["--break", "nope"], "unknown --break mode"),
    (["--profile", "nope"], "unknown schedule profile"),
    (["--oracle", "backends", "--backend", "proxy,nope"], "bad --backend spec"),
    (["--replay", "x.json", "--schedules", "2"], "drop --schedules"),
])
def test_schedule_flags_fail_loudly(argv, reason, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.json").write_text("[]")
    code, err = _refused(argv, capsys)
    assert code == 2
    assert reason in err
