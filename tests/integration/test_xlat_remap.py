"""The UDMA proxy path across remaps: I1/I2 with the translation cache.

PR "translation fast path" caches virtual-to-physical translations in
the CPU.  The invariants the kernel maintains through proxy space must
survive that cache:

* **I2** -- when a buffer is paged out and back in, the next UDMA
  transfer must walk the *new* mapping, not a cached frame; the data the
  device sees proves which frame was read.
* **I1** -- a context switch between the STORE and LOAD of an initiation
  sequence invalidates the sequence (the kernel's Inval), while the
  per-process translation caches survive the switch without letting one
  process's proxy references complete another's latch.
"""

from repro import Machine, MachineConfig
from repro.bench.workloads import make_payload
from repro.devices import SinkDevice
from repro.userlib import DeviceRef, MemoryRef, UdmaUser

PAGE = 4096


def make_machine():
    machine = Machine(
                  config=MachineConfig(mem_size=16 * PAGE, bounce_frames=2),
              )
    machine.attach_device(SinkDevice("sink", size=1 << 14))
    return machine


def test_udma_transfer_after_page_out_uses_new_mapping():
    """I2: a paged-out-and-back buffer transfers its current contents."""
    machine = make_machine()
    sink = machine.udma.device("sink")
    a = machine.create_process("a")
    buf = machine.kernel.syscalls.alloc(a, PAGE)
    grant = machine.kernel.syscalls.grant_device_proxy(a, "sink")
    udma = UdmaUser(machine, a)
    machine.kernel.scheduler.switch_to(a)

    first = make_payload(PAGE)
    machine.cpu.write_bytes(buf, first)
    udma.transfer(MemoryRef(buf), DeviceRef(grant), PAGE)
    machine.run_until_idle()
    assert sink.peek(0, PAGE) == first

    # Evict a's buffer by pressuring memory from a second process.
    b = machine.create_process("b")
    vb = machine.kernel.syscalls.alloc(b, 14 * PAGE)
    machine.kernel.scheduler.switch_to(b)
    for i in range(14):
        machine.cpu.store(vb + i * PAGE, i)
    assert machine.kernel.vm.pages_out > 0

    # Back in a: the write faults the page back in (any frame), and the
    # transfer must ship the *new* contents from the *new* frame.
    machine.kernel.scheduler.switch_to(a)
    second = bytes(reversed(first))
    misses_before = machine.cpu.xlat_misses
    machine.cpu.write_bytes(buf, second)
    assert machine.cpu.xlat_misses > misses_before  # re-walked, not cached
    udma.transfer(MemoryRef(buf), DeviceRef(grant), PAGE)
    machine.run_until_idle()
    assert sink.peek(0, PAGE) == second


def test_context_switch_invalidates_initiation_sequence():
    """I1: DestLoaded does not survive a context switch (atomicity)."""
    machine = make_machine()
    a = machine.create_process("a")
    b = machine.create_process("b")
    buf = machine.kernel.syscalls.alloc(a, PAGE)
    grant = machine.kernel.syscalls.grant_device_proxy(a, "sink")
    udma = UdmaUser(machine, a)
    machine.kernel.scheduler.switch_to(a)
    machine.cpu.write_bytes(buf, make_payload(PAGE))

    # First half of the initiation: STORE the count to the destination.
    dest_proxy = udma.proxy_of(DeviceRef(grant))
    src_proxy = udma.proxy_of(MemoryRef(buf))
    machine.cpu.store(dest_proxy, PAGE)
    # The scheduler's switch strobes the controller's Inval line (I1), so
    # the hardware latch is annulled when a resumes; a's cached proxy
    # translations survive, since they live on a's page table, which a
    # switch does not edit.
    machine.kernel.scheduler.switch_to(b)
    machine.kernel.scheduler.switch_to(a)
    machine.cpu.fence()
    status = udma.poll(src_proxy)
    assert not status.started        # the half-done sequence was annulled
    assert status.should_retry       # transient: user code just retries
    misses = machine.cpu.xlat_misses
    assert not udma.poll(dest_proxy).started  # a status read, still idle
    assert machine.cpu.xlat_misses == misses  # the translation survived

    # And the retry (the full runtime path) still completes end to end.
    stats = udma.transfer(MemoryRef(buf), DeviceRef(grant), PAGE)
    machine.run_until_idle()
    sink = machine.udma.device("sink")
    assert sink.peek(0, PAGE) == make_payload(PAGE)
    assert stats.bytes_moved == PAGE
