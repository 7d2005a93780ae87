"""The chaos harness's own contract: determinism, oracles, bug-finding.

Four properties make the harness trustworthy:

1. **Determinism** -- the same seed yields byte-identical audit logs,
   counters and memory digests across independent runs (including the
   acceptance workload: seed 7, 200 steps, 2 nodes).
2. **Oracle equivalence** -- on a *healthy* kernel, the ``fast-paths``
   twin (the schedule replayed with the fast paths disabled) is
   bit-identical: same logs, same cycles, same memory.  Several seeds,
   both world shapes.
3. **Bug-finding** -- a kernel with the I1 Inval removed is caught by
   the always-on auditor; a kernel that skips the translation-cache
   generation bumps (invisible to the invariant checkers) is caught by
   the auditor or the differential oracle.  Both yield minimal shrunk
   reproducers (<= 20 actions) that still fail when replayed.
4. **Schedule/shrinker mechanics** -- generation is seed-stable, and
   ddmin only ever returns a subsequence that fails.
"""

import pytest

from repro.chaos import TWINS, generate_schedule, run_chaos, shrink
from repro.chaos.explorer import ScheduleExplorer


# ------------------------------------------------------------ determinism
def test_schedule_generation_is_seed_stable():
    a = generate_schedule(seed=42, steps=50)
    b = generate_schedule(seed=42, steps=50)
    c = generate_schedule(seed=43, steps=50)
    assert a == b
    assert a != c


def test_acceptance_run_is_deterministic_and_clean():
    """The headline acceptance check: seed 7, 200 steps, 2 nodes runs
    clean, and two independent campaigns agree on every observable."""
    first = run_chaos(seed=7, steps=200, nodes=2)
    second = run_chaos(seed=7, steps=200, nodes=2)
    assert first.ok, first.failure_message
    assert second.ok
    assert first.fast.audit_log == second.fast.audit_log
    assert first.fast.counters == second.fast.counters
    assert first.fast.mem_digest == second.fast.mem_digest
    # auditing really ran, continuously
    assert first.fast.boundary_audits == 201  # one per action + settle
    assert first.fast.event_audits > 0


# ------------------------------------------------------ oracle equivalence
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("nodes", [1, 2])
def test_fast_and_reference_runs_are_bit_identical(seed, nodes):
    report = run_chaos(seed=seed, steps=80, nodes=nodes)
    assert report.fast.ok, report.failure_message
    twin = report.twin("fast-paths")
    assert twin.labels == ["fast", "reference"]
    assert twin.ok, twin.mismatches[:3]


def test_oracle_flags_a_seeded_divergence():
    """Sanity-check the oracle itself: two worlds that really differ must
    not compare equal (guards against a vacuous comparator)."""
    actions = generate_schedule(seed=5, steps=40)
    explorer = ScheduleExplorer(nodes=1)
    fast = explorer.run(actions)
    slow = explorer.run(actions, reference=True)
    twin = TWINS["fast-paths"]
    labels = ["fast", "reference"]
    # A different schedule is healthy in itself...
    assert run_chaos(seed=6, steps=40, nodes=1).twin("fast-paths").ok
    assert twin.compare(labels, [fast, slow]) == []
    # ...and so is the other schedule's reference run, yet the two differ.
    other = ScheduleExplorer(nodes=1).run(generate_schedule(seed=6, steps=40))
    assert twin.compare(labels, [fast, other])
    fast.audit_log[0] = "tampered"
    assert any("audit log" in m for m in twin.compare(labels, [fast, slow]))


# ------------------------------------------------------------- bug finding
@pytest.mark.parametrize("nodes", [1, 2])
def test_missing_inval_is_caught_and_shrunk(nodes):
    """Scheduler forgets the I1 Inval: the always-on auditor must catch
    it, and ddmin must hand back a tiny reproducer that still fails."""
    report = run_chaos(
        seed=7, steps=200, nodes=nodes, break_mode="no-inval", oracles=()
    )
    assert not report.ok
    assert report.fast.failure is not None
    assert report.fast.failure.kind == "invariant"
    assert "I1" in report.fast.failure.message
    assert report.shrunk is not None
    assert 1 <= len(report.shrunk.actions) <= 20
    # the shrunk schedule is a genuine reproducer
    replay = run_chaos(
        nodes=nodes, break_mode="no-inval", oracles=(),
        actions=report.shrunk.actions,
    )
    assert not replay.ok
    assert "I1" in replay.failure_message


@pytest.mark.parametrize("nodes", [1, 2])
def test_stale_translation_cache_is_caught_and_shrunk(nodes):
    """Page-table edits skip their eviction from the CPU translation
    cache: page tables stay self-consistent, so only downstream damage
    (invariant fallout in the fast run) or the differential oracle can
    expose it."""
    report = run_chaos(seed=7, steps=200, nodes=nodes, break_mode="stale-xlat")
    assert not report.ok
    assert report.shrunk is not None
    assert 1 <= len(report.shrunk.actions) <= 20
    replay = run_chaos(
        nodes=nodes, break_mode="stale-xlat",
        actions=report.shrunk.actions,
    )
    assert not replay.ok
    assert report.repro  # paste-ready reproducer text was produced
    assert "--replay" in report.repro
    # ...naming the twin selection and world that produced it
    assert f"--oracle fast-paths --nodes {nodes} --break stale-xlat" in report.repro


# --------------------------------------------------------------- shrinker
def test_shrinker_returns_minimal_failing_subsequence():
    """ddmin on a synthetic predicate: fails iff both sentinel actions
    survive -- the shrinker must isolate exactly those two."""
    actions = generate_schedule(seed=11, steps=64)
    sentinels = {actions[10], actions[40]}

    def still_fails(candidate):
        return sentinels <= set(candidate)

    result = shrink(actions, still_fails, max_evals=500)
    assert set(result.actions) == sentinels
    assert not result.exhausted_budget


def test_shrinker_respects_evaluation_budget():
    actions = generate_schedule(seed=12, steps=64)

    def still_fails(candidate):
        return len(candidate) >= 1

    result = shrink(actions, still_fails, max_evals=5)
    assert result.evaluations <= 5
