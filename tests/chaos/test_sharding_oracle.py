"""The sharded spec twin (``shards``) and its CLI."""

import copy
import json

import pytest

from repro.chaos import SPEC_PROFILES, TWINS, run_chaos
from repro.chaos import twins as twins_mod
from repro.cli import main
from repro.sharding import ClusterSpec


def small_spec(**overrides):
    params = dict(num_nodes=4, topology="linear", messages_per_node=3)
    params.update(overrides)
    return ClusterSpec(**params)


def judge(oracle="shards", **kwargs):
    kwargs.setdefault("spec", small_spec())
    kwargs.setdefault("audit", False)
    return run_chaos(oracles=(oracle,), **kwargs)


class TestShardingOracle:
    def test_clean_comparison(self):
        report = judge(shards=2)
        assert report.ok
        assert "shards: reference / 2-shard in-process agree" in report.summary()

    def test_audited_comparison_counts_audits(self):
        report = judge(shards=2, audit=True)
        assert report.ok
        sharded = report.twin("shards").runs[1]
        assert sharded.audits == sharded.ops_executed

    def test_reference_is_reusable(self, monkeypatch):
        """Both engines diff against one reference run."""
        calls = []
        real = twins_mod.run_sharded

        def counting(spec, **kwargs):
            calls.append(kwargs["engine"])
            return real(spec, **kwargs)

        monkeypatch.setattr(twins_mod, "run_sharded", counting)
        report = judge(shards=2, engine="both")
        assert report.ok
        assert report.twin("shards").labels == [
            "reference", "2-shard in-process", "2-shard worker"
        ]
        assert calls == ["in-process", "in-process", "worker"]

    def test_divergence_is_reported_per_surface(self):
        verdict = judge(shards=2).twin("shards")
        reference, sharded = copy.deepcopy(verdict.runs)
        # Forge a divergence on every surface.
        sharded.logs[0] = "forged"
        sharded.digests["n0"] = "beef"
        sharded.counters["n0.now"] += 1
        mismatches = TWINS["shards"].compare(verdict.labels, [reference, sharded])
        kinds = " ".join(mismatches)
        assert "audit log diverges" in kinds
        assert "memory digest n0" in kinds
        assert "counter n0.now" in kinds

    def test_run_error_is_captured_not_raised(self):
        report = judge(shards=2, engine="no-such-engine")
        assert not report.ok
        assert "failed to run: ConfigurationError" in report.summary()

    def test_artifact_round_trips(self):
        report = judge(spec=small_spec(seed=9), shards=2, engine="worker")
        artifact = json.loads(json.dumps(report.artifact()))
        assert artifact["kind"] == "chaos-twins"
        assert ClusterSpec.from_dict(artifact["spec"]).seed == 9
        assert artifact["settings"]["shards"] == 2
        assert artifact["settings"]["engine"] == "worker"


class TestSuite:
    def test_suite_covers_contention_and_torus(self):
        specs = {
            profile: judge(spec=None, nodes=9, profile=profile).spec
            for profile in SPEC_PROFILES
        }
        assert specs["contention"].gap_cycles < 1000
        assert specs["torus"].topology == "torus2d"
        assert specs["mesh"].topology == "mesh2d"

    def test_suite_runs_clean(self):
        for profile in SPEC_PROFILES:
            report = judge(spec=None, nodes=4, profile=profile, shards=2)
            assert report.ok, report.summary()


class TestChaosShardsCli:
    def test_clean_run_exits_zero(self, capsys):
        code = main([
            "chaos", "--oracle", "shards", "--shards", "2", "--nodes", "4",
            "--no-audit",
        ])
        assert code == 0
        assert "agree" in capsys.readouterr().out

    def test_failure_writes_artifact(self, tmp_path, monkeypatch, capsys):
        # Sabotage the sharded engine so the differential trips.
        real = twins_mod.run_sharded

        def sabotage(spec, num_shards=1, engine="in-process", audit=False):
            result = real(spec, num_shards=num_shards, engine=engine,
                          audit=audit)
            if num_shards > 1:
                result.logs[0] = "forged divergence"
            return result

        monkeypatch.setattr(twins_mod, "run_sharded", sabotage)
        artifact = tmp_path / "failure.json"
        code = main([
            "chaos", "--oracle", "shards", "--shards", "2", "--nodes", "4",
            "--no-audit", "--repro-file", str(artifact),
        ])
        assert code == 1
        data = json.loads(artifact.read_text())
        assert data["kind"] == "chaos-twins"
        assert data["settings"]["oracle"] == "shards"
        assert "audit log diverges" in capsys.readouterr().out

    def test_replay_spec_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "replay.json"
        artifact.write_text(json.dumps({
            "kind": "chaos-twins",
            "settings": {"oracle": "shards", "shards": 2},
            "spec": small_spec().as_dict(),
        }))
        code = main(["chaos", "--no-audit", "--replay", str(artifact)])
        assert code == 0
        out = capsys.readouterr().out
        assert "shards: reference / 2-shard in-process agree" in out


class TestPoolingOracle:
    """The pool differential: the shards twin's reference variant runs
    without a packet pool (or any other host fast path), so at
    ``--shards 1`` it is exactly the old pooling-off / pooled check."""

    def test_clean_pooling_comparison(self):
        report = judge(shards=1)
        assert report.ok
        assert report.twin("shards").labels == [
            "reference", "1-shard in-process"
        ]
        # The reference run really ran without the translation cache.
        reference, pooled = report.twin("shards").runs
        assert reference.xlat_hits == 0 < pooled.xlat_hits
        assert "shards: reference / 1-shard in-process agree" in (
            report.summary()
        )

    def test_pooling_comparison_at_multiple_shards(self):
        assert judge(shards=2).ok

    def test_pooling_artifact_kind(self):
        data = judge(shards=1).artifact()
        assert data["kind"] == "chaos-twins"
        assert data["settings"]["oracle"] == "shards"
        assert data["settings"]["shards"] == 1

    def test_cli_no_pool_mode(self, capsys):
        code = main(["chaos", "--oracle", "shards", "--shards", "1",
                     "--nodes", "4", "--no-audit"])
        assert code == 0
        out = capsys.readouterr().out
        assert "shards: reference / 1-shard in-process agree" in out

    def test_cli_no_pool_with_shards(self, capsys):
        code = main([
            "chaos", "--oracle", "shards", "--shards", "2", "--nodes", "4",
            "--no-audit",
        ])
        assert code == 0
        assert "2-shard in-process" in capsys.readouterr().out

    def test_cli_no_pool_suite(self, capsys):
        code = main([
            "chaos", "--oracle", "shards", "--shards", "1", "--schedules",
            "3", "--nodes", "4", "--no-audit",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "seed 0: PASS" in out and "seed 1: PASS" in out
        assert "3/3 subjects pass" in out


@pytest.mark.parametrize("argv, reason", [
    (["--oracle", "shards", "--nodes", "4", "--shards", "5"], "--shards 5"),
    (["--oracle", "fast-paths", "--shards", "2"],
     "--shards does not apply to the fast-paths twin"),
    (["--oracle", "shards,fast-paths"], "cannot share a run"),
])
def test_spec_flags_fail_loudly(argv, reason, capsys):
    assert main(["chaos", *argv]) == 2
    err = capsys.readouterr().err
    assert reason in err
    assert err.count("\n") == 1  # one-line reason
