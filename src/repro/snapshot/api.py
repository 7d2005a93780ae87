"""Capture, restore and fork whole simulated systems.

Each operation is one step over the object graph: pickle it, unpickle
it, or deep-copy it.  Every piece of simulated state pickles with its
owner, so nothing needs re-attaching afterwards.  That includes the
metrics registry: its bindings hold their component (each entry is the
component and a shared, immutable table row naming an attribute path),
and the UDMA controller holds its latency histogram's own sample dict,
which a copy keeps shared with the copied histogram.
"""

from __future__ import annotations

import copy
from typing import Any, TypeVar

from repro.snapshot import format as _format

T = TypeVar("T")


def snapshot(obj: Any) -> bytes:
    """Capture ``obj`` (a machine, cluster, world...) as a snapshot blob.

    The source object is untouched and remains fully runnable; capture
    has no observable effect on the simulation (gated by the
    restore-equivalence tier).
    """
    return _format.encode(obj)


def restore(blob: bytes) -> Any:
    """Rebuild the object graph captured in ``blob``.

    Raises :class:`~repro.errors.SnapshotVersionError` if the blob was
    written by a different build of ``repro``, and
    :class:`~repro.errors.SnapshotError` for anything that is not a
    well-formed snapshot.  The result is immediately runnable.
    """
    return _format.decode(blob)


def fork(obj: T) -> T:
    """An independent deep copy of a live system, for scenario branching.

    ``fork(m)`` is equivalent to ``restore(snapshot(m))`` -- the copy
    shares no mutable state with the original, and both sides satisfy
    restore-equivalence -- but skips the serialise round trip,
    so branching a scenario mid-run is cheap enough to do per-step.
    """
    return copy.deepcopy(obj)

