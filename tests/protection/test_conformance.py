"""The headline suite: backends are outcome-equivalent under chaos.

Stock backends must conform on seeded churn schedules under the
``backends`` twin; a planted bug in any one backend must be caught,
shrunk, and serialised to a replayable JSON artifact.
"""

import json

import pytest

from repro.chaos import (
    PROTECTION_BACKENDS,
    actions_from_json,
    generate_schedule,
    outcome_class,
    run_chaos,
)

#: seeds x steps for the stock-conformance sweep; CI adds more via the
#: CLI campaign (see .github/workflows/ci.yml)
STOCK_SEEDS = range(6)
STEPS = 35


def conformance(backends=PROTECTION_BACKENDS, nodes=2, **kwargs):
    return run_chaos(
        oracles=("backends",), backends=backends, nodes=nodes, **kwargs
    )


def suite(seeds, **kwargs):
    """Consecutive seeds, stopping at (and shrinking) the first failure."""
    reports = []
    for seed in seeds:
        reports.append(conformance(seed=seed, steps=STEPS, **kwargs))
        if not reports[-1].ok:
            break
    return reports


class TestOutcomeClass:
    def test_strips_detail(self):
        assert outcome_class("ok:3p0r") == "ok"
        assert outcome_class("DmaError") == "DmaError"
        assert outcome_class("ok:park0") == "ok"


class TestOracleShape:
    def test_needs_two_backends(self):
        with pytest.raises(ValueError, match="two --backend"):
            conformance(backends=("proxy",))

    def test_report_runs_keyed_by_spec(self):
        report = conformance(
            backends=("proxy", "handler"), nodes=1,
            actions=generate_schedule(0, 10, profile="churn"),
        )
        assert report.twin("backends").labels == ["proxy", "handler"]
        assert report.ok


class TestStockBackendsConform:
    def test_cluster_suite(self):
        reports = suite(STOCK_SEEDS, nodes=2)
        assert all(r.ok for r in reports), reports[-1].summary()
        assert len(reports) == len(STOCK_SEEDS)

    def test_single_node_suite(self):
        reports = suite(STOCK_SEEDS, nodes=1)
        assert all(r.ok for r in reports), reports[-1].summary()

    def test_within_backend_determinism(self):
        actions = generate_schedule(7, STEPS, profile="churn")
        for backend in PROTECTION_BACKENDS:
            report = run_chaos(
                oracles=("determinism",), backends=(backend,), nodes=2,
                actions=actions,
            )
            assert report.ok, report.summary()

    def test_default_profile_also_conforms(self):
        report = conformance(actions=generate_schedule(3, STEPS))
        assert report.ok, report.summary()


class TestPlantedBugsAreCaught:
    """The acceptance check: the suite detects a broken backend."""

    @staticmethod
    def _hunt(backends, nodes=2, seeds=range(30)):
        reports = suite(seeds, backends=backends, nodes=nodes,
                        max_shrink_evals=80)
        return None if reports[-1].ok else reports[-1]

    def test_stale_cap_caught_and_shrunk(self):
        failure = self._hunt(("proxy", "captable:stale-cap"))
        assert failure is not None, "stale-cap bug escaped the suite"
        assert failure.mismatches
        assert failure.shrunk is not None
        assert len(failure.shrunk.actions) < len(failure.actions)
        # detection power is pinned: first failing seed, ddmin result
        assert failure.seed == 2
        assert (len(failure.shrunk.actions), failure.shrunk.evaluations) == (3, 36)

    def test_skip_align_caught(self):
        failure = self._hunt(("proxy", "handler:skip-align"))
        assert failure is not None, "skip-align bug escaped the suite"
        assert failure.shrunk is not None
        assert failure.seed == 1
        assert (len(failure.shrunk.actions), failure.shrunk.evaluations) == (1, 9)

    def test_artifact_round_trips(self, tmp_path):
        failure = self._hunt(("proxy", "captable:stale-cap"))
        assert failure is not None
        path = tmp_path / "protection-failure.json"
        path.write_text(json.dumps(failure.artifact()))
        payload = json.loads(path.read_text())
        assert payload["kind"] == "chaos-twins"
        settings = payload["settings"]
        assert settings["oracle"] == "backends"
        assert settings["backend"] == "proxy,captable:stale-cap"
        assert payload["mismatches"]
        # The stored (shrunk) schedule still splits the backends.
        actions = actions_from_json(payload["actions"])
        replay = conformance(
            backends=settings["backend"].split(","), nodes=settings["nodes"],
            actions=actions,
        )
        assert not replay.ok

    def test_shrunk_schedule_still_diverges(self):
        failure = self._hunt(("proxy", "captable:stale-cap"))
        assert failure is not None and failure.shrunk is not None
        replay = conformance(
            backends=("proxy", "captable:stale-cap"),
            actions=failure.shrunk.actions,
        )
        assert not replay.ok
