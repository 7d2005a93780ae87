"""Checkpoint bisection in the chaos explorer and shrinker.

The contract: ``checkpoint_every=N`` is a pure execution optimisation.
Every run result, audit log, oracle verdict, and -- critically -- the
ddmin-shrunk reproducer must be bit-identical with checkpointing on or
off.  The shrinker's candidates share long prefixes with the original
schedule, so resumed replays are where the speedup lives; these tests
pin the cache actually being hit while the answers stay unchanged.
"""

from __future__ import annotations

import pytest

import repro.chaos.explorer as explorer_mod
from repro.chaos import ScheduleExplorer, generate_schedule, run_chaos


def _result_key(result):
    return (
        result.audit_log,
        result.outcomes,
        result.counters,
        result.mem_digest,
        result.vm_digest,
        result.protection_faults,
        result.nipt_state,
        None if result.failure is None else result.failure.identity(),
    )


def test_checkpoint_every_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        ScheduleExplorer(checkpoint_every=0)
    with pytest.raises(ValueError, match="positive"):
        ScheduleExplorer(checkpoint_every=-3)


def test_checkpointed_run_identical_and_cache_hit_on_rerun():
    actions = generate_schedule(4, 32, profile="default")
    plain = ScheduleExplorer(nodes=2).run(actions)

    explorer = ScheduleExplorer(nodes=2, checkpoint_every=8)
    first = explorer.run(actions)
    assert _result_key(first) == _result_key(plain)
    assert explorer.checkpoints_stored > 0
    assert explorer.checkpoint_hits == 0  # nothing cached yet on pass 1

    second = explorer.run(actions)
    assert _result_key(second) == _result_key(plain)
    assert explorer.checkpoint_hits == 1  # resumed from the longest prefix


def test_prefix_schedules_resume_from_shared_checkpoints():
    actions = generate_schedule(5, 32)
    explorer = ScheduleExplorer(nodes=2, checkpoint_every=8)
    explorer.run(actions)
    plain = ScheduleExplorer(nodes=2)
    # A shrink-style candidate: same prefix, shorter tail.
    candidate = actions[:20]
    resumed = explorer.run(candidate)
    assert explorer.checkpoint_hits == 1
    assert _result_key(resumed) == _result_key(plain.run(candidate))


def test_fast_and_slow_paths_keep_separate_checkpoints():
    actions = generate_schedule(6, 24)
    explorer = ScheduleExplorer(nodes=2, checkpoint_every=8)
    fast = explorer.run(actions)
    slow = explorer.run(actions, reference=True)
    assert explorer.checkpoint_hits == 0  # keys differ by reference
    assert _result_key(fast) != _result_key(slow) or fast.counters == slow.counters
    refast = explorer.run(actions)
    assert explorer.checkpoint_hits == 1
    assert _result_key(refast) == _result_key(fast)


def test_checkpoint_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(explorer_mod, "_CHECKPOINT_CACHE_CAP", 3)
    explorer = ScheduleExplorer(nodes=1, checkpoint_every=4)
    for seed in range(4):
        explorer.run(generate_schedule(seed, 24))
    assert len(explorer._checkpoints) <= 3
    assert explorer.checkpoints_stored > 3  # stored then evicted


def test_run_chaos_pass_campaign_identical_with_checkpoints():
    plain = run_chaos(seed=9, steps=50, nodes=2)
    checked = run_chaos(seed=9, steps=50, nodes=2, checkpoint_every=10)
    assert plain.ok and checked.ok
    assert checked.fast.audit_log == plain.fast.audit_log
    assert checked.fast.counters == plain.fast.counters
    assert checked.fast.mem_digest == plain.fast.mem_digest


def test_shrunk_reproducer_identical_with_checkpoints():
    """The satellite contract: checkpoint bisection never changes ddmin.

    A planted stale-translation kernel bug fails mid-campaign; the
    shrinker replays dozens of prefix-sharing candidates.  With
    checkpointing those replays resume from capsules -- and must land on
    the exact same minimal reproducer in the exact same number of
    evaluations.
    """
    plain = run_chaos(seed=5, steps=60, nodes=2, break_mode="stale-xlat")
    checked = run_chaos(
        seed=5, steps=60, nodes=2, break_mode="stale-xlat", checkpoint_every=10
    )
    assert not plain.ok and not checked.ok
    assert plain.shrunk is not None and checked.shrunk is not None
    assert checked.shrunk.actions == plain.shrunk.actions
    assert checked.shrunk.evaluations == plain.shrunk.evaluations
    assert checked.repro == plain.repro
    assert checked.fast.audit_log == plain.fast.audit_log
    assert checked.failure_message == plain.failure_message


def test_checkpointed_failure_identical_no_inval():
    """Failures before the first checkpoint boundary still match."""
    plain = run_chaos(seed=1, steps=40, nodes=2, break_mode="no-inval")
    checked = run_chaos(
        seed=1, steps=40, nodes=2, break_mode="no-inval", checkpoint_every=8
    )
    assert plain.ok == checked.ok
    assert checked.failure_message == plain.failure_message
    assert checked.fast.audit_log == plain.fast.audit_log
    if plain.shrunk is not None:
        assert checked.shrunk.actions == plain.shrunk.actions
