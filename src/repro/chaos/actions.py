"""Deterministic adversarial schedules: the chaos harness's vocabulary.

A schedule is a flat list of :class:`Action` records generated from one
seeded RNG.  Every parameter an action needs is frozen into the record at
generation time (node, process, page, size, flags), so the same list can
be replayed verbatim against a fresh world -- with fast paths on or off
(the differential oracle), with a deliberately broken kernel (the
fault-finding tests), or with arbitrary subsets removed (the shrinker).
Parameters are interpreted *modulo* the world's dimensions at apply time,
which keeps a schedule meaningful for any node/process count and keeps
shrinking from invalidating later actions.

The action vocabulary is exactly the paper's threat model: UDMA
initiations racing context switches (I1), page-outs/page-ins and
proxy-mapping churn under live transfers (I2/I3), eviction pressure
against pages named by the hardware (I4), permission downgrades and
upgrades, TLB shootdowns, wire-level packet corruption / drop /
duplication / reordering, and device stalls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, asdict
from typing import Dict, List, Sequence

#: kind -> relative weight in generated schedules.  Mutating workload
#: actions dominate; scheduling and memory-system adversity ride along at
#: rates high enough that a 100-step schedule sees each several times.
ACTION_WEIGHTS: "Dict[str, int]" = {
    "write": 10,      # CPU stores into a buffer (dirties pages, fills xlat)
    "read": 5,        # CPU loads from a buffer
    "send": 10,       # user-level UDMA transfer (sink or NIC channel)
    "recv": 5,        # receiver-side loads of landed data
    "switch": 8,      # context switch (fires the I1 Inval hook)
    "pageout": 5,     # forced eviction through the I4-guarded path
    "clean": 4,       # page cleaning (I3 write-protect / race rule)
    "touch": 4,       # demand page-in via a single load
    "downgrade": 3,   # revoke write permission on a buffer page
    "upgrade": 3,     # restore write permission on a buffer page
    "shootdown": 3,   # TLB flush (asid or full)
    # wire faults plan the next free packet of the node's lane (FaultPlan)
    "corrupt": 2,     # invert one of its bytes
    "drop": 2,        # lose it
    "dup": 2,         # deliver it twice
    "reorder": 1,     # deliver it after the lane's next packet
    "stall": 3,       # device stall: coast the clock with the CPU idle
    "drain": 4,       # run all pending hardware to completion
}

#: The "churn" profile rides two extra kinds on top of the default mix,
#: aimed at the protection surface: "churn" parks/recreates a channel
#: (NIPT clear + free-list recycle + re-export) or revokes/re-grants a
#: device window, and "rawsend" issues an un-padded UDMA transfer whose
#: size can trip the device alignment veto.  The default profile is
#: untouched -- schedules generated without a profile are byte-for-byte
#: what they were before the profile existed.
CHURN_WEIGHTS: "Dict[str, int]" = dict(
    ACTION_WEIGHTS, churn=4, rawsend=4
)

#: The "paging" profile leans hard on the memory system -- forced
#: evictions, page cleaning, and demand page-ins interleaved with sends
#: -- so virtual-address (IOMMU) campaigns reliably drive incoming
#: transfers into the park-and-resume path.  The wire is kept quiet: a
#: fault's lane ordinal no longer moves when paging actions are stripped,
#: but the ``iommu`` twin strips wire faults until a campaign shows it
#: can stop, and published weights stay: same seed, same bytes, forever.
PAGING_WEIGHTS: "Dict[str, int]" = dict(
    ACTION_WEIGHTS,
    pageout=12, clean=6, touch=6, send=12, recv=6,
    corrupt=0, drop=0, dup=0, reorder=0,
)

SCHEDULE_PROFILES: "Dict[str, Dict[str, int]]" = {
    "default": ACTION_WEIGHTS,
    "churn": CHURN_WEIGHTS,
    "paging": PAGING_WEIGHTS,
}


@dataclass(frozen=True)
class Action:
    """One schedule step.  All fields are small ints; see ACTION_WEIGHTS."""

    kind: str
    node: int = 0   # target node (mod world.num_nodes)
    proc: int = 0   # target process on the node (mod processes-per-node)
    page: int = 0   # buffer page / offset selector (mod buffer pages)
    size: int = 1   # transfer / read / stall magnitude in bytes (or cycles)
    arg: int = 0    # misc flags: wait bit, flush flavour, fault count...

    def brief(self) -> str:
        """Compact, deterministic label for audit logs."""
        return (
            f"{self.kind}(n{self.node},p{self.proc},"
            f"pg{self.page},sz{self.size},a{self.arg})"
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Action":
        return cls(
            kind=str(data["kind"]),
            node=int(data.get("node", 0)),
            proc=int(data.get("proc", 0)),
            page=int(data.get("page", 0)),
            size=int(data.get("size", 1)),
            arg=int(data.get("arg", 0)),
        )


def generate_schedule(
    seed: int, steps: int, profile: str = "default"
) -> List[Action]:
    """Generate ``steps`` actions from one seeded RNG, deterministically.

    Uses only ``random.Random`` methods with stable cross-version
    behaviour (``choices`` over a fixed kind list, ``randrange``), so a
    seed printed by a failing CI run reproduces bit-identically anywhere.
    ``profile`` selects the action mix (see SCHEDULE_PROFILES); the
    default mix is frozen -- same seed, same bytes, forever.
    """
    try:
        weight_map = SCHEDULE_PROFILES[profile]
    except KeyError:
        raise ValueError(
            f"unknown schedule profile {profile!r}"
            f" (available: {', '.join(sorted(SCHEDULE_PROFILES))})"
        ) from None
    rng = random.Random(seed)
    kinds = list(weight_map)
    weights = [weight_map[k] for k in kinds]
    schedule: List[Action] = []
    for _ in range(steps):
        kind = rng.choices(kinds, weights=weights)[0]
        schedule.append(
            Action(
                kind=kind,
                node=rng.randrange(64),
                proc=rng.randrange(8),
                page=rng.randrange(64),
                size=1 + rng.randrange(2048),
                arg=rng.randrange(8),
            )
        )
    return schedule


def actions_to_json(actions: Sequence[Action]) -> List[dict]:
    """Schedule -> JSON-ready list (the --replay / reproducer format)."""
    return [a.to_dict() for a in actions]


def actions_from_json(data: Sequence[dict]) -> List[Action]:
    """JSON list -> schedule."""
    return [Action.from_dict(d) for d in data]
