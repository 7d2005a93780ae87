"""Schedule shrinking: reduce a failing schedule to a minimal reproducer.

Classic delta debugging (Zeller's ddmin) over the action list.  Actions
are world-shape independent -- every parameter is taken modulo the live
world's dimensions at apply time -- so *any* subsequence is a valid
schedule and the predicate can be re-evaluated on arbitrary subsets.

The predicate is "does this subsequence still fail?", where "fail" is
whatever the caller observed on the full schedule: an invariant/crash
failure in the audited run, or a twin's mismatch.  Each
evaluation replays the candidate on fresh worlds, so shrinking is
deterministic and side-effect free; an evaluation budget keeps the worst
case bounded for CI.

The output is paste-ready: :func:`format_repro` emits the seed, the exact
CLI command that replays the minimal schedule, and the action list as
JSON the CLI's ``--replay`` flag accepts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, List, Sequence

from repro.chaos.actions import Action, actions_to_json


@dataclass
class ShrinkResult:
    """The minimal failing schedule ddmin converged on."""

    actions: List[Action]
    evaluations: int
    exhausted_budget: bool


def shrink(
    actions: Sequence[Action],
    still_fails: Callable[[List[Action]], bool],
    max_evals: int = 200,
) -> ShrinkResult:
    """ddmin: smallest subsequence of ``actions`` with ``still_fails`` true.

    ``still_fails`` must be true for the full input (the caller verified
    the failure before shrinking).  Budget ``max_evals`` bounds predicate
    evaluations; on exhaustion the best reduction so far is returned.
    """
    current = list(actions)
    evals = 0
    exhausted = False
    granularity = 2
    while len(current) >= 2:
        chunk = max(1, len(current) // granularity)
        reduced = False
        start = 0
        while start < len(current):
            if evals >= max_evals:
                exhausted = True
                break
            candidate = current[:start] + current[start + chunk:]
            if not candidate:
                start += chunk
                continue
            evals += 1
            if still_fails(candidate):
                current = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                # restart scanning the shrunk schedule from the beginning
                start = 0
                chunk = max(1, len(current) // granularity)
            else:
                start += chunk
        if exhausted:
            break
        if not reduced:
            if chunk == 1:
                break  # 1-minimal: no single action can be removed
            granularity = min(granularity * 2, len(current))
    return ShrinkResult(actions=current, evaluations=evals, exhausted_budget=exhausted)


def format_repro(
    actions: Sequence[Action],
    seed: int,
    flags: str,
    failure_message: str,
    span_context: str = "",
) -> str:
    """Paste-ready minimal reproducer: CLI command + JSON schedule.

    ``flags`` are the chaos CLI flags of the campaign that failed --
    including the ``--oracle`` selection -- so the printed command
    replays it exactly.  ``span_context`` is the causal-transfer context
    from the failing run (``ChaosWorld.span_context()``); it rides along
    as a diagnostic line but is not part of the failure identity.
    """
    lines = [
        "=== chaos minimal reproducer ===",
        f"failure : {failure_message}",
    ]
    if span_context:
        lines.append(f"spans   : {span_context}")
    lines += [
        f"actions : {len(actions)} (from seed {seed})",
        "replay  : save the JSON below to repro.json, then run",
        f"          python -m repro chaos {flags} --replay repro.json",
        json.dumps(actions_to_json(actions), indent=None, separators=(",", ":")),
    ]
    return "\n".join(lines)
