"""Hypothesis: backend outcome-equivalence over generated workloads.

The directed tests pin known protection cases; these properties let
Hypothesis hunt for schedule shapes where the backends disagree.  Under
the ``ci`` profile the example sequence is derandomized, so CI failures
always reproduce.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chaos import PROTECTION_BACKENDS, generate_schedule, run_chaos


def conform(actions, nodes=2, oracles=("backends",), backends=PROTECTION_BACKENDS):
    return run_chaos(
        oracles=oracles, backends=backends, nodes=nodes, actions=actions
    )


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
# a CPU write racing two unwaited deliveries to the same receive buffer
# (the backends twin settles in-flight transfers before each write)
@example(seed=58943)
def test_cluster_schedules_conform(seed):
    actions = generate_schedule(seed, 18, profile="churn")
    report = conform(actions)
    assert report.ok, report.summary()


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_single_node_schedules_conform(seed):
    actions = generate_schedule(seed, 18, profile="churn")
    report = conform(actions, nodes=1)
    assert report.ok, report.summary()


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    steps=st.integers(min_value=1, max_value=25),
)
def test_schedule_prefixes_conform(seed, steps):
    """Conformance holds at every schedule length, not just the full run."""
    actions = generate_schedule(seed, steps, profile="churn")
    report = conform(actions)
    assert report.ok, report.summary()


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_within_backend_determinism(seed):
    """Each backend is bit-exact deterministic on its own schedule."""
    actions = generate_schedule(seed, 12, profile="churn")
    for backend in PROTECTION_BACKENDS:
        report = conform(actions, oracles=("determinism",), backends=(backend,))
        assert report.ok, report.summary()
