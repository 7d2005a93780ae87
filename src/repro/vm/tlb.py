"""A software model of a translation lookaside buffer.

The TLB caches *snapshots* of page-table entries, tagged by address-space
id.  Like real hardware, it does not observe later changes to the page
table: the kernel must explicitly invalidate (shoot down) affected entries
when it edits a mapping.  The VM-manager code in :mod:`repro.kernel` does
so; a fidelity test demonstrates what goes wrong when it doesn't.

Dirty and referenced bits are *not* cached -- the MMU always sets them in
the authoritative page table, modelling a hardware-walked dirty-bit update.

Shootdown generation
--------------------
Every invalidation -- :meth:`TLB.invalidate`, :meth:`TLB.flush_asid`
and :meth:`TLB.flush_all` -- bumps :attr:`TLB.generation`.  The CPU's
software translation cache (``repro.cpu.cpu``) stamps each cached entry
with the generation at fill time; a stale stamp forces the cached entry
back through the full :meth:`repro.vm.mmu.MMU.translate` walk, so a
kernel shootdown takes effect on the very next access even though the CPU
never walks its cache.  A context switch is not an invalidation: the
entries are asid-tagged, so like the hardware TLB's they survive it.  See
``docs/PERFORMANCE.md`` ("Translation fast path").
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.errors import ConfigurationError
from repro.snapshot.protocol import SnapshotMixin


@dataclass(frozen=True)
class TlbEntry:
    """Cached translation snapshot."""

    pfn: int
    writable: bool
    user: bool


class TLB(SnapshotMixin):
    """Fully associative, FIFO-replacement TLB keyed by ``(asid, vpage)``."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"TLB capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple[int, int], TlbEntry]" = OrderedDict()
        # Per-asid key index so flush_asid is O(entries in that asid),
        # not O(capacity).  Kept exactly in sync with _entries.
        self._asid_keys: Dict[int, Set[Tuple[int, int]]] = {}
        self.hits = 0
        self.misses = 0
        self.flushes = 0
        #: bumped on every shootdown; consumers (the CPU's translation
        #: cache) compare stamps against this to detect staleness in O(1)
        self.generation = 0

    # -------------------------------------------------------------- lookup
    def lookup(self, asid: int, vpage: int) -> Optional[TlbEntry]:
        """Return the cached entry, counting a hit or miss."""
        entry = self._entries.get((asid, vpage))
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def insert(self, asid: int, vpage: int, entry: TlbEntry) -> None:
        """Cache a translation, evicting the oldest entry when full."""
        key = (asid, vpage)
        if key in self._entries:
            del self._entries[key]
        elif len(self._entries) >= self.capacity:
            evicted, _ = self._entries.popitem(last=False)
            self._drop_from_index(evicted)
        self._entries[key] = entry
        self._asid_keys.setdefault(asid, set()).add(key)

    # -------------------------------------------------------- invalidation
    def invalidate(self, asid: int, vpage: int) -> None:
        """Shoot down one cached translation, if present.

        Bumps the generation whether or not the entry was resident: the
        CPU-side cache may hold a translation the TLB has already evicted,
        and the shootdown must reach it too.
        """
        key = (asid, vpage)
        if self._entries.pop(key, None) is not None:
            self._drop_from_index(key)
        self.generation += 1

    def flush_asid(self, asid: int) -> None:
        """Drop every entry belonging to one address space."""
        keys = self._asid_keys.pop(asid, None)
        if keys:
            for key in keys:
                del self._entries[key]
        self.flushes += 1
        self.generation += 1

    def flush_all(self) -> None:
        """Drop everything (un-tagged-TLB context switch)."""
        self._entries.clear()
        self._asid_keys.clear()
        self.flushes += 1
        self.generation += 1

    def note_context_switch(self) -> None:
        """A no-op that nothing calls; kept only as a named e2ebench layer
        entry point until that list may change.

        A context switch invalidates nothing: TLB entries and the CPU's
        translation-cache entries are both asid-tagged, so they survive it.
        """

    # ------------------------------------------------------------- metrics
    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit, to 4 places (0.0 when never used)."""
        total = self.hits + self.misses
        return round(self.hits / total, 4) if total else 0.0

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------ internal
    def _drop_from_index(self, key: Tuple[int, int]) -> None:
        keys = self._asid_keys.get(key[0])
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._asid_keys[key[0]]
