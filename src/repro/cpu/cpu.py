"""The CPU: the only agent that issues virtual-address loads and stores.

Every user-level access is translated by the MMU; page faults trap to the
kernel's fault handler, which either repairs the mapping (demand paging,
proxy-page materialisation, I3 dirty upgrade -- section 6's three cases)
and lets the access retry, or refuses, in which case the access raises
:class:`ProtectionFault` to the application.

After translation the access is routed by physical region:

* real memory -> the RAM array;
* memory-proxy or device-proxy -> the UDMA controller's I/O port
  (uncachable, so each reference costs a full I/O bus round trip --
  this is where the "two user-level memory references" of an initiation
  get their 2.8 us).

The CPU charges every instruction to the shared clock, so device activity
(DMA bursts, packets in flight) interleaves with instruction execution at
cycle granularity.

Translation fast path
---------------------
Repeated accesses to the same page dominate every workload (polling a
proxy status word, streaming a buffer), so the CPU keeps a small software
translation cache in front of :meth:`repro.vm.mmu.MMU.translate`: one
entry per vpage holding the physical page base, the region routing, the
write permission, and a reference to the authoritative PTE (so
referenced/dirty bits keep being set exactly as the MMU would set them).

The cache lives on the page table it derives from
(:attr:`repro.vm.page_table.PageTable.xlat`), and every page-table
mutator evicts the entry of the page it edits, so each cached entry
equals the current PTE.  That is the paper's kernel discipline -- shoot
down exactly what changed -- and it is why no hit needs a check:

* a context switch just rebinds the cache to the new address space, so a
  process that is switched back in finds its translations still there,
  as the asid-tagged hardware TLB keeps its entries;
* a TLB shootdown (``invalidate`` / ``flush_asid`` / ``flush_all``)
  changes no mapping, so it leaves the cache alone: every kernel remap
  pairs a page-table mutator (which evicts) with its shootdown, and a
  fill whose TLB snapshot disagrees with the PTE is refused.

Bit-identity with a cacheless run rests on that pairing: after a flush
the cache does not replay the TLB refills a cacheless run makes, so an
edit whose shootdown were skipped would show that run a stale TLB
snapshot and this one a fresh walk.

A write through an entry cached non-writable, or any miss, falls back to
the full ``MMU.translate`` walk, which preserves every fault reason, the
permission-upgrade re-walk, and the hardware TLB's snapshot semantics.
The cache therefore changes *host* cost only: simulated cycles,
instruction/load/store counters and fault behaviour are bit-identical to
the slow path (the ``Machine`` assembly charges walk penalties through
the CPU cost model, not through the MMU clock, so a TLB miss costs no
simulated cycles).  See ``docs/PERFORMANCE.md`` ("Translation fast
path").
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.controller import UdmaController
from repro.errors import AddressError, PageFault, ProtectionFault
from repro.mem.layout import Layout, Region
from repro.mem.physmem import PhysicalMemory
from repro.params import CostModel
from repro.sim.clock import Clock
from repro.vm.mmu import MMU, Access
from repro.vm.page_table import PageTable
from repro.snapshot.protocol import SnapshotMixin

#: fault handler signature: (vaddr, access, reason) -> repaired?
FaultHandler = Callable[[int, str, str], bool]

#: How many times one access may fault-and-retry before the CPU declares
#: the kernel's handler broken.  Two legitimate faults can stack (page-in,
#: then a dirty upgrade), so the bound is generous.
_MAX_FAULT_RETRIES = 8

#: Per-address-space bound on cached translations.  Wholesale clearing on
#: overflow keeps the structure a plain dict with no LRU bookkeeping on
#: the hit path; refills cost one slow walk per page.
_XLAT_CAPACITY = 4096


class _Translation:
    """One cached vpage translation (internal to the CPU)."""

    __slots__ = ("paddr_base", "region", "writable", "pte")

    def __init__(self, paddr_base, region, writable, pte):
        self.paddr_base = paddr_base
        self.region = region
        self.writable = writable
        self.pte = pte


class CPU(SnapshotMixin):
    """One node's processor.

    Args:
        clock: the node's shared cycle clock.
        costs: cost model for instruction charging.
        mmu: the node's MMU.
        layout: physical address map (for region routing).
        physmem: the RAM array.
        udma: the UDMA controller servicing proxy regions (optional for
            memory-only configurations).
    """

    def __init__(
        self,
        clock: Clock,
        costs: CostModel,
        mmu: MMU,
        layout: Layout,
        physmem: PhysicalMemory,
        udma: Optional[UdmaController] = None,
    ) -> None:
        self.clock = clock
        self.costs = costs
        self.mmu = mmu
        self.layout = layout
        self.physmem = physmem
        self.udma = udma
        # Execution context, set by the kernel on context switch.
        self.page_table: Optional[PageTable] = None
        self.asid = 0
        self.fault_handler: Optional[FaultHandler] = None
        #: optional bus snooper for the automatic-update extension: called
        #: with (paddr, bytes) after every store that lands in real memory
        self.store_snoop: Optional[Callable[[int, bytes], None]] = None
        # Metrics.
        self.loads = 0
        self.stores = 0
        self.instructions = 0
        self.charged_cycles = 0
        # Translation fast path (see module docstring): the installed page
        # table's vpage -> _Translation dict, rebound on set_context.  The
        # cost model is frozen, so its fields are bound once here to keep
        # the per-access attribute chase short.
        self._page_shift = costs.page_size.bit_length() - 1
        self._page_mask = costs.page_size - 1
        self._mem_ref_cycles = costs.mem_ref_cycles
        self._io_ref_cycles = costs.io_ref_cycles
        self._advance = clock.advance
        self._xlat: "dict[int, _Translation]" = {}
        self.xlat_hits = 0
        self.xlat_misses = 0
        self.xlat_fills = 0
        #: fast-path toggles (the chaos differential oracle replays
        #: workloads with these off and asserts bit-identical simulated
        #: outcomes).  ``xlat_enabled=False`` stops the translation cache
        #: from filling, so every access takes the full MMU walk;
        #: ``bulk_io_enabled=False`` makes the buffer I/O paths charge and
        #: move word-at-a-time instead of per page run.
        self.xlat_enabled = True
        self.bulk_io_enabled = True

    # ------------------------------------------------------------- context
    def set_context(self, page_table: PageTable, asid: int) -> None:
        """Install an address space (the MMU part of a context switch)."""
        self.page_table = page_table
        self.asid = asid
        self._xlat = page_table.xlat

    # --------------------------------------------------------- word access
    def load(self, vaddr: int) -> int:
        """User-level word LOAD; returns the loaded value.

        For proxy addresses the returned value is the UDMA status word.
        """
        entry = self._xlat.get(vaddr >> self._page_shift)
        if entry is not None:
            self.xlat_hits += 1
            entry.pte.referenced = True
            self.loads += 1
            self.instructions += 1
            paddr = entry.paddr_base | (vaddr & self._page_mask)
            if entry.region is Region.MEMORY:
                self._charge(self._mem_ref_cycles)
                return self.physmem.read_word(paddr)
            self._charge(self._io_ref_cycles)
            udma = self.udma
            if udma is None:
                return self._require_udma().io_load(paddr)
            return udma.io_load(paddr)
        paddr, region = self._access(vaddr, Access.READ)
        self.loads += 1
        self.instructions += 1
        if region is Region.MEMORY:
            self._charge(self.costs.mem_ref_cycles)
            return self.physmem.read_word(paddr)
        self._charge(self.costs.io_ref_cycles)
        return self._require_udma().io_load(paddr)

    def store(self, vaddr: int, value: int) -> None:
        """User-level word STORE.

        For proxy addresses ``value`` is the byte count (or a non-positive
        Inval); for memory it is stored as a little-endian word.
        """
        entry = self._xlat.get(vaddr >> self._page_shift)
        if entry is not None and entry.writable:
            self.xlat_hits += 1
            pte = entry.pte
            pte.referenced = True
            pte.dirty = True
            self.stores += 1
            self.instructions += 1
            paddr = entry.paddr_base | (vaddr & self._page_mask)
            if entry.region is Region.MEMORY:
                self._charge(self._mem_ref_cycles)
                self.physmem.write_word(paddr, value)
                if self.store_snoop is not None:
                    self.store_snoop(
                        paddr, self.physmem.read(paddr, self.costs.word_size)
                    )
                return
            self._charge(self._io_ref_cycles)
            self._require_udma().io_store(paddr, value)
            return
        paddr, region = self._access(vaddr, Access.WRITE)
        self.stores += 1
        self.instructions += 1
        if region is Region.MEMORY:
            self._charge(self.costs.mem_ref_cycles)
            self.physmem.write_word(paddr, value)
            if self.store_snoop is not None:
                self.store_snoop(paddr, self.physmem.read(paddr, self.costs.word_size))
            return
        self._charge(self.costs.io_ref_cycles)
        self._require_udma().io_store(paddr, value)

    def poll_proxy(self, vaddr: int) -> Optional[bool]:
        """Completion-poll fast lane: the MATCH flag of ``load(vaddr)``.

        Returns None -- with **no** simulated effects -- whenever the
        access needs the full path (translation miss, a non-proxy
        address, tracing/spans active, or a controller state where the
        LOAD would not be a pure status read).  Otherwise performs
        bookkeeping and charging bit-identical to :meth:`load` on a proxy
        status read and returns the MATCH flag, skipping the status-word
        construction/encode/decode round trip a poll loop never looks at.
        """
        entry = self._xlat.get(vaddr >> self._page_shift)
        if entry is None or entry.region is Region.MEMORY:
            return None
        udma = self.udma
        if (
            udma is None
            or not udma.fast_path_capable
            or not udma.fast_poll_ok()
        ):
            return None
        self.xlat_hits += 1
        entry.pte.referenced = True
        self.loads += 1
        self.instructions += 1
        self._charge(self._io_ref_cycles)
        return udma.fast_poll(entry.paddr_base | (vaddr & self._page_mask))

    def fence(self) -> None:
        """Order the STORE before the LOAD of an initiation sequence.

        "It is imperative that the order of the two memory references be
        maintained ... all [processors] provide some mechanism that
        software can use to ensure program order execution for
        memory-mapped I/O" (section 3).
        """
        self.instructions += 1
        self._charge(self.costs.fence_cycles)

    def execute(self, instructions: int) -> None:
        """Charge ``instructions`` cycles of plain computation."""
        self.instructions += instructions
        self._charge(instructions * self.costs.alu_cycles)

    # --------------------------------------------------------- buffer I/O
    # Page-run loops: one translation, one cycle charge and one snoop per
    # page run, with bytes moved through physmem memoryviews.  Protection
    # still applies to every byte (each run is translated), and the
    # counters come out identical to the historical word-stepped loop:
    # the per-word charges within one page were always consecutive, so
    # charging ``words * mem_ref_cycles`` in one call advances the clock
    # through exactly the same event sequence.
    def read_bytes(self, vaddr: int, nbytes: int) -> bytes:
        """Read a user buffer (charging one cached reference per word)."""
        out = bytearray(nbytes)
        self.read_into(vaddr, out)
        return bytes(out)

    def read_into(self, vaddr: int, buf) -> int:
        """Read ``len(buf)`` bytes at ``vaddr`` into a writable buffer.

        The zero-copy variant of :meth:`read_bytes`: the caller's buffer
        is filled in place (UDMA/packetiser snapshot capture uses this to
        skip the trailing ``bytes()`` copy).  Returns the byte count.
        """
        mv = memoryview(buf)
        nbytes = len(mv)
        page_size = self.costs.page_size
        word_size = self.costs.word_size
        offset = 0
        while offset < nbytes:
            addr = vaddr + offset
            chunk = min(page_size - (addr & self._page_mask), nbytes - offset)
            paddr, region = self._translate_run(addr, write=False)
            if region is not Region.MEMORY:
                raise AddressError(addr, "buffer reads must target memory")
            words = -(-chunk // word_size)
            self.loads += words
            self.instructions += words
            if self.bulk_io_enabled:
                self._charge(words * self.costs.mem_ref_cycles)
                mv[offset : offset + chunk] = self.physmem.view(paddr, chunk)
            else:
                # Word-stepped reference mode: same total charge, advanced
                # in per-word increments (events still fire at identical
                # cycle times), then the bytes move word-at-a-time.
                for _ in range(words):
                    self._charge(self.costs.mem_ref_cycles)
                src = self.physmem.view(paddr, chunk)
                for w in range(0, chunk, word_size):
                    end = min(w + word_size, chunk)
                    mv[offset + w : offset + end] = src[w:end]
            offset += chunk
        return nbytes

    def write_bytes(self, vaddr: int, data: "bytes | bytearray | memoryview") -> None:
        """Write a user buffer (charging one cached reference per word)."""
        mv = memoryview(data)
        nbytes = len(mv)
        page_size = self.costs.page_size
        word_size = self.costs.word_size
        offset = 0
        while offset < nbytes:
            addr = vaddr + offset
            chunk = min(page_size - (addr & self._page_mask), nbytes - offset)
            paddr, region = self._translate_run(addr, write=True)
            if region is not Region.MEMORY:
                raise AddressError(addr, "buffer writes must target memory")
            words = -(-chunk // word_size)
            self.stores += words
            self.instructions += words
            segment = mv[offset : offset + chunk]
            if self.bulk_io_enabled:
                self._charge(words * self.costs.mem_ref_cycles)
                self.physmem.write(paddr, segment)
            else:
                # Word-stepped reference mode (see read_into); the snoop
                # stays at run granularity in both modes so the
                # automatic-update packet stream is identical.
                for _ in range(words):
                    self._charge(self.costs.mem_ref_cycles)
                for w in range(0, chunk, word_size):
                    end = min(w + word_size, chunk)
                    self.physmem.write(paddr + w, segment[w:end])
            if self.store_snoop is not None:
                self.store_snoop(paddr, bytes(segment))
            offset += chunk

    # ------------------------------------------------------------ internal
    def _translate_run(self, vaddr: int, write: bool) -> "tuple[int, Region]":
        """Fast-path translation for one page run of a buffer access."""
        entry = self._xlat.get(vaddr >> self._page_shift)
        if entry is not None and (entry.writable or not write):
            self.xlat_hits += 1
            pte = entry.pte
            pte.referenced = True
            if write:
                pte.dirty = True
            return entry.paddr_base | (vaddr & self._page_mask), entry.region
        return self._access(vaddr, Access.WRITE if write else Access.READ)

    def _access(self, vaddr: int, access: Access) -> "tuple[int, Region]":
        if self.page_table is None:
            raise ProtectionFault(vaddr, access.value, "no address space installed")
        self.xlat_misses += 1
        for _ in range(_MAX_FAULT_RETRIES):
            try:
                paddr = self.mmu.translate(
                    self.page_table, self.asid, vaddr, access, user_mode=True
                )
            except PageFault as fault:
                if self.fault_handler is None:
                    raise ProtectionFault(vaddr, access.value, fault.reason) from fault
                if not self.fault_handler(vaddr, access.value, fault.reason):
                    raise ProtectionFault(vaddr, access.value, fault.reason) from fault
                continue  # mapping repaired; retry the access
            region = self.layout.region_of(paddr)
            if region is Region.UNMAPPED:
                raise AddressError(paddr, "translation produced an unmapped physical address")
            self._fill_xlat(vaddr, paddr, region)
            return paddr, region
        raise ProtectionFault(
            vaddr,
            access.value,
            f"access still faulting after {_MAX_FAULT_RETRIES} kernel repairs",
        )

    def _fill_xlat(self, vaddr: int, paddr: int, region: Region) -> None:
        """Cache a successful translation for the fast path.

        Only entries whose authoritative PTE agrees with the translation
        just served are cached: if the hardware TLB served a stale
        snapshot (possible when the kernel skipped a shootdown), caching
        it would extend the stale window beyond the TLB's own capacity,
        so we let those keep going through ``MMU.translate``.
        """
        if not self.xlat_enabled:
            return
        table = self.page_table
        vpage = vaddr >> self._page_shift
        pte = table.get(vpage)
        if (
            pte is None
            or not pte.present
            or not pte.user
            or (pte.pfn << self._page_shift) != paddr & ~self._page_mask
        ):
            return
        cache = self._xlat
        if len(cache) >= _XLAT_CAPACITY and vpage not in cache:
            cache.clear()
        cache[vpage] = _Translation(
            paddr & ~self._page_mask, region, pte.writable, pte
        )
        self.xlat_fills += 1

    def _require_udma(self) -> UdmaController:
        if self.udma is None:
            raise AddressError(0, "no UDMA controller attached but proxy space accessed")
        return self.udma

    def _charge(self, cycles: int) -> None:
        self.charged_cycles += cycles
        self._advance(cycles)
