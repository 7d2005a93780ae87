"""Machine snapshot/restore and fork-based scenario branching.

A *snapshot* is a deterministic, build-stamped serialisation of a whole
simulated system -- a :class:`~repro.machine.Machine`, a
:class:`~repro.cluster.ShrimpCluster`, or any object graph built from
the simulator's components -- at one instant of simulated time.  The
contract is **restore-equivalence**: a run that is snapshotted at step
*k*, restored, and driven to completion produces bit-identical digests,
counters, audit logs and traces to the run that was never interrupted.
``tests/snapshot/`` and the chaos harness's ``--checkpoint-every`` gate
hold that contract under every feature combination (paging, IOMMU,
reliable transport, all protection backends, 1..N shards).

Three operations:

* :func:`snapshot` -- capture an object graph to ``bytes``.
* :func:`restore` -- rebuild the graph from a blob (refusing blobs
  written by a different build of ``repro`` with
  :class:`~repro.errors.SnapshotVersionError`, which names the source
  files that differ).
* :func:`fork` -- an in-memory deep copy, for cheap scenario branching
  (run the same machine down two different futures) without paying the
  serialise round trip.

What is captured: every byte of simulated state -- the clock and its
event queue,
physical memory, page tables with their translation caches, the TLB,
paging state, the NIPT and the active protection backend, NIC FIFOs and
in-flight packets, reliable-transport channels and armed retransmit
timers, the IOMMU's page table, IOTLB, park queue and pin ledger, and
every observability counter and histogram.

What is deliberately *not* captured: the chaos auditor's clock hook,
which points from the outside in.  It is dropped at capture; an auditor
that wants to watch a restored clock installs its hook again.  Metric
bindings are captured: each sampled counter holds its component and an
attribute path, both plain data, so ``restore`` is one unpickle and
``fork`` one deep copy, with nothing to re-attach after either.  See
``docs/SNAPSHOT.md`` for the format and the full capture matrix.
"""

import importlib

from repro.snapshot.protocol import SnapshotMixin, Snapshottable

#: the front door's names that live in ``api`` and ``format``.  Every
#: component imports ``protocol`` through this package, so those two
#: modules (and ``pickle`` under them) load only when a run first asks
#: for a snapshot (PEP 562).
_LAZY = {
    "snapshot": "repro.snapshot.api",
    "restore": "repro.snapshot.api",
    "fork": "repro.snapshot.api",
    "MAGIC": "repro.snapshot.format",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_LAZY[name]), name)
    globals()[name] = value
    return value


__all__ = [
    "snapshot",
    "restore",
    "fork",
    "MAGIC",
    "SnapshotMixin",
    "Snapshottable",
]
