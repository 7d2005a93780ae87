"""Directed regressions for the CPU fast paths.

Two scenarios the chaos harness is built to fuzz, pinned as directed
tests: the software translation cache across a permission *upgrade*
(the downgrade direction is covered by test_xlat_shootdown), and
page-run buffer I/O spanning page and region boundaries -- including the
fast/reference equivalence the differential oracle relies on.
"""

import pytest

from repro import Machine, MachineConfig
from repro.bench.workloads import make_payload
from repro.errors import AddressError, ProtectionFault

PAGE = 4096


def _one_proc_machine(reference=False):
    machine = Machine(
                  config=MachineConfig(mem_size=1 << 20, reference=reference),
              )
    process = machine.create_process("app")
    buffer = machine.kernel.syscalls.alloc(process, 6 * PAGE)
    return machine, process, buffer


# --------------------------------------------------------------- upgrades
def test_xlat_serves_hits_again_after_permission_upgrade():
    """Downgrade -> fault -> upgrade: the cache must recover and serve
    hits for the re-permitted page (with the new permissions honoured)."""
    machine, process, buf = _one_proc_machine()
    vpage = buf // PAGE
    machine.cpu.write_bytes(buf, make_payload(64))  # resident + cached

    assert machine.kernel.vm.set_page_protection(process, vpage, False)
    with pytest.raises(ProtectionFault):
        machine.cpu.store(buf, 0x1234)

    assert machine.kernel.vm.set_page_protection(process, vpage, True)
    machine.cpu.write_bytes(buf, make_payload(64, seed=2))  # re-walks, refills
    hits_before = machine.cpu.xlat_hits
    machine.cpu.write_bytes(buf, make_payload(64, seed=3))
    assert machine.cpu.xlat_hits > hits_before
    out = bytearray(64)
    machine.cpu.read_into(buf, out)
    assert bytes(out) == make_payload(64, seed=3)


def test_xlat_read_only_entry_upgrades_on_write():
    """A cached read-only translation must not satisfy a store: the write
    takes the full walk (setting the dirty bit) and upgrades the entry."""
    machine, process, buf = _one_proc_machine()
    out = bytearray(8)
    machine.cpu.read_into(buf, out)  # demand-zero fill, read-only walk
    hits_before = machine.cpu.xlat_hits
    machine.cpu.store(buf, 0xBEEF)  # must not hit the read-only entry
    pte = process.page_table.get(buf // PAGE)
    assert pte is not None and pte.dirty
    machine.cpu.store(buf + 4, 0xCAFE)  # now writable-cached: may hit
    assert machine.cpu.xlat_hits >= hits_before
    assert machine.cpu.load(buf) == 0xBEEF


# ------------------------------------------------------------- page runs
def test_bulk_io_spanning_nonresident_pages_matches_reference():
    """A buffer write/read spanning three pages (two page boundaries,
    demand-zero faults mid-run) must be bit- and cycle-identical with the
    fast paths on and off."""

    def run(reference):
        machine, _, buf = _one_proc_machine(reference)
        data = make_payload(2 * PAGE + 123, seed=7)
        offset = PAGE // 2 + 4
        machine.cpu.write_bytes(buf + offset, data)
        out = bytearray(len(data))
        machine.cpu.read_into(buf + offset, out)
        return bytes(out), machine.clock.now, machine.cpu.charged_cycles

    fast = run(False)
    reference = run(True)
    assert fast == reference
    assert fast[0] == make_payload(2 * PAGE + 123, seed=7)


def test_bulk_write_stops_at_downgraded_page_boundary():
    """write_bytes spanning a run that hits a read-only page must fault at
    exactly the page boundary, with the prior pages' data committed --
    identically in fast and reference modes."""

    def run(reference):
        machine, process, buf = _one_proc_machine(reference)
        machine.cpu.write_bytes(buf, bytes(3 * PAGE))  # make pages resident
        machine.kernel.vm.set_page_protection(process, buf // PAGE + 1, False)
        data = make_payload(2 * PAGE, seed=9)
        with pytest.raises(ProtectionFault):
            machine.cpu.write_bytes(buf + PAGE // 2, data)
        landed = bytearray(PAGE // 2)
        machine.cpu.read_into(buf + PAGE // 2, landed)
        return bytes(landed), machine.clock.now

    fast = run(False)
    reference = run(True)
    assert fast == reference
    assert fast[0] == make_payload(2 * PAGE, seed=9)[: PAGE // 2]


def test_bulk_io_rejects_region_boundary_crossing():
    """Page-run I/O is a memory-space fast path: a run that resolves into
    proxy space (a device window) must raise, not silently bulk-copy."""
    machine, process, buf = _one_proc_machine()
    from repro.devices import SinkDevice

    machine.attach_device(SinkDevice("sink", size=1 << 16))
    grant = machine.kernel.syscalls.grant_device_proxy(process, "sink")
    out = bytearray(64)
    with pytest.raises(AddressError):
        machine.cpu.read_into(grant, out)
    with pytest.raises(AddressError):
        machine.cpu.write_bytes(grant, bytes(64))
