"""Cost model and structural parameters for the simulation.

Every timing constant in the simulator lives here, expressed in CPU cycles
(the SHRIMP nodes were 60 MHz Pentium Xpress PCs, so one cycle is 16.7 ns).
The :func:`shrimp` preset is calibrated against the paper's two anchor
measurements:

* the two-instruction UDMA initiation sequence plus its alignment check
  costs about 2.8 microseconds (section 8), and
* a single-page (4 KB) deliberate-update transfer achieves about 94 % of
  the maximum measured bandwidth, with 512-byte messages exceeding 50 %
  (Figure 8).

Those two anchors pin the ratio of fixed per-transfer overhead to link
bandwidth; the remaining constants are plausible splits of that overhead
among DMA startup, packet-header construction, and wire drain.  Absolute
nanoseconds are explicitly *not* a reproduction target (the substrate is a
behavioural simulator, see DESIGN.md); the shape of every curve is.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

#: Number of bytes in a virtual-memory page (and the largest basic UDMA
#: transfer; section 5: "a basic UDMA transfer cannot cross a page
#: boundary").
DEFAULT_PAGE_SIZE = 4096

#: Word size of the simulated CPU and the I/O bus, in bytes.
WORD_SIZE = 4

#: gap before a failed (device-busy) initiation is retried, by the
#: sharded ring and by :class:`~repro.traffic.engine.TrafficEngine` alike
RETRY_GAP_CYCLES = 512


@dataclass(frozen=True)
class CostModel:
    """All timing constants, in CPU cycles unless stated otherwise.

    Instances are immutable; derive variants with :func:`dataclasses.replace`
    or the :meth:`scaled` helper.
    """

    # ------------------------------------------------------------------ CPU
    cpu_hz: float = 60e6
    #: an ordinary cached memory reference
    mem_ref_cycles: int = 2
    #: an uncached reference that crosses the I/O bus (proxy space is
    #: uncachable, section 4)
    io_ref_cycles: int = 70
    #: a plain ALU instruction
    alu_cycles: int = 1
    #: the user-level alignment / page-boundary check performed around the
    #: two-instruction initiation sequence (section 8)
    udma_align_check_cycles: int = 28
    #: a store fence separating the STORE from the LOAD ("all provide some
    #: mechanism that software can use to ensure program order", section 3)
    fence_cycles: int = 4

    # ------------------------------------------------- kernel / traditional
    syscall_entry_cycles: int = 150
    syscall_exit_cycles: int = 100
    #: kernel virtual-to-physical translation of one page
    translate_page_cycles: int = 60
    #: pinning / unpinning one physical page (page-table update + bookkeeping)
    pin_page_cycles: int = 120
    unpin_page_cycles: int = 100
    #: building one entry of a DMA descriptor
    descriptor_entry_cycles: int = 80
    #: poking the device control register to start a kernel DMA
    device_start_cycles: int = 50
    #: taking and dismissing the completion interrupt
    interrupt_cycles: int = 400
    #: rescheduling the blocked user process afterwards
    reschedule_cycles: int = 200
    #: memcpy cost per byte for the bounce-buffer (pre-pinned I/O buffer)
    #: variant of traditional DMA
    copy_byte_cycles: float = 0.5
    #: context-switch cost excluding the UDMA Inval store
    context_switch_cycles: int = 300
    #: servicing one page fault in the kernel (walk + fixup), excluding I/O
    page_fault_cycles: int = 500
    #: moving one page to/from backing store (seek + transfer, amortised)
    swap_io_cycles: int = 50_000
    #: reading the hardware SOURCE/DESTINATION registers for the I4
    #: remap-guard check (two uncached loads)
    remap_check_cycles: int = 140

    # ------------------------------------------------------------ DMA / NIC
    #: delay from the Load event to the DMA engine's first burst
    dma_start_cycles: int = 300
    #: DMA (memory -> device over the I/O bus) bandwidth in bytes/cycle;
    #: 0.55 B/cycle at 60 MHz is 33 MB/s, an EISA-burst-like figure
    dma_bytes_per_cycle: float = 0.55
    #: NIC packet-header construction / launch setup, per packet; the wire
    #: cannot start until the header is built, but the header overlaps the
    #: DMA fill (cut-through packetizing)
    packet_header_cycles: int = 250
    #: network wire bandwidth in bytes/cycle (slightly below the DMA fill
    #: rate, so the wire is the steady-state bottleneck and a single
    #: message's time includes a short wire tail after the fill completes
    #: -- this produces the 94 %-at-4KB anchor of Figure 8)
    wire_bytes_per_cycle: float = 0.5
    #: minimum wire time remaining after the fill completes (FIFO flush)
    wire_flush_cycles: int = 50
    #: per-hop routing latency in the interconnect backplane
    hop_cycles: int = 40
    #: receive-side unpacking/checking plus DMA flush, per packet; the
    #: receive DMA streams cut-through behind the wire, so this fixed tail
    #: is all a packet adds after its last byte arrives
    rx_check_cycles: int = 400
    #: receive-side DMA (incoming FIFO -> memory) bandwidth in bytes/cycle;
    #: faster than the wire, hence never the bottleneck (kept for the
    #: store-and-forward ablation)
    rx_dma_bytes_per_cycle: float = 0.6

    # ------------------------------------------------------------- IOMMU
    #: IOTLB hit on the receive path (the I/O translation cache in front
    #: of the receive DMA); charged as receive-DMA occupancy
    iommu_iotlb_hit_cycles: int = 2
    #: full I/O page-table walk on an IOTLB miss (two dependent uncached
    #: table reads by the NIC-side walker)
    iommu_walk_cycles: int = 140
    #: kernel service of one parked transfer (interrupt + map-in fixup),
    #: excluding swap I/O which is charged separately at swap_io_cycles
    iommu_fault_service_cycles: int = 900

    # --------------------------------------------------------- generic disk
    disk_seek_cycles: int = 600_000          # ~10 ms at 60 MHz
    disk_bytes_per_cycle: float = 0.17       # ~10 MB/s streaming

    # ------------------------------------------------------------ structure
    page_size: int = DEFAULT_PAGE_SIZE
    word_size: int = WORD_SIZE
    tlb_entries: int = 64
    #: page-table walk penalty on a TLB miss
    tlb_miss_cycles: int = 24

    # ------------------------------------------------------------- helpers
    def cycles_to_us(self, cycles: float) -> float:
        """Convert a cycle count to microseconds at this CPU clock."""
        return cycles / self.cpu_hz * 1e6

    def us_to_cycles(self, us: float) -> int:
        """Convert microseconds to (rounded) cycles at this CPU clock."""
        return int(round(us * 1e-6 * self.cpu_hz))

    def bytes_per_second(self, bytes_per_cycle: float) -> float:
        """Convert a bytes/cycle rate into bytes/second."""
        return bytes_per_cycle * self.cpu_hz

    @property
    def udma_initiation_cycles(self) -> int:
        """Cost of the complete two-instruction initiation sequence.

        One uncached STORE, a fence, one uncached LOAD, plus the user-level
        alignment check -- the quantity the paper measures at 2.8 us.
        """
        return (
            self.io_ref_cycles * 2
            + self.fence_cycles
            + self.udma_align_check_cycles
        )

    def traditional_dma_overhead_cycles(self, pages: int) -> int:
        """Kernel-path overhead of a traditional DMA spanning ``pages`` pages.

        Follows the four-step recipe of section 2: syscall, per-page
        translate + pin + descriptor entry, device start, completion
        interrupt, per-page unpin, syscall return, reschedule.
        """
        per_page = (
            self.translate_page_cycles
            + self.pin_page_cycles
            + self.descriptor_entry_cycles
            + self.unpin_page_cycles
        )
        return (
            self.syscall_entry_cycles
            + pages * per_page
            + self.device_start_cycles
            + self.interrupt_cycles
            + self.syscall_exit_cycles
            + self.reschedule_cycles
        )

    def scaled(self, **overrides: object) -> "CostModel":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)  # type: ignore[arg-type]


def shrimp(**overrides: object) -> CostModel:
    """The SHRIMP-calibrated preset (see module docstring)."""
    return CostModel().scaled(**overrides)


def hippi_paragon(**overrides: object) -> CostModel:
    """A HIPPI-on-Paragon-like preset for the section-1 motivation numbers.

    Models a 100 MB/s channel whose kernel send path costs a bit over
    350 us, so that 1 KB blocks achieve roughly 2.7 MB/s (under 2 % of the
    raw bandwidth) and 80 MB/s requires very large blocks.
    """
    model = CostModel(
        cpu_hz=50e6,
        # 100 MB/s at 50 MHz = 2 bytes/cycle
        dma_bytes_per_cycle=2.0,
        wire_bytes_per_cycle=2.0,
        # ~350 us of software overhead at 50 MHz = 17,500 cycles; split over
        # the traditional-DMA path constants
        # fixed costs dominate (the Paragon driver used a pre-pinned,
        # physically contiguous region, so per-page costs are small)
        syscall_entry_cycles=2_800,
        syscall_exit_cycles=2_000,
        translate_page_cycles=40,
        pin_page_cycles=60,
        unpin_page_cycles=50,
        descriptor_entry_cycles=40,
        device_start_cycles=800,
        interrupt_cycles=7_500,
        reschedule_cycles=4_400,
        dma_start_cycles=60,
        packet_header_cycles=200,
    )
    return model.scaled(**overrides)
