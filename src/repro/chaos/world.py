"""The chaos world: a node or cluster plus the action interpreter.

:class:`ChaosWorld` assembles a workload-ready system (single node with a
sink device, or a ShrimpCluster ring of deliberate-update channels) and
knows how to apply one :class:`~repro.chaos.actions.Action` at a time.
Everything it does is deterministic: outcomes of user-visible errors are
folded into the returned outcome string (they are *expected* under
adversarial schedules), read/recv actions fold a payload checksum into
the outcome so the audit log witnesses data contents, and the same
schedule applied to two fresh worlds -- fast paths on or off -- must
produce identical logs, cycle counts, and memory images.

The world also owns the two *deliberate kernel bugs* the acceptance tests
plant (``break_mode``):

* ``"no-inval"`` -- the scheduler forgets the I1 Inval on every context
  switch (modelled by hiding the controller list for the duration of each
  ``switch_to``, so the I1 ledger still knows how many Invals were owed).
* ``"stale-xlat"`` -- a page-table edit skips its eviction from the
  CPU's software translation cache, so the fast path keeps serving the
  translation the edit replaced.  The invariant checkers cannot see this
  (the page tables and TLBs themselves stay consistent); only the
  differential oracle catches it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.chaos.actions import Action
from repro.cluster import ShrimpCluster, node_counters
from repro.config import ClusterConfig, IommuConfig, MachineConfig
from repro.devices.sink import SinkDevice
from repro.errors import ConfigurationError, InvariantViolation, ReproError
from repro.kernel.process import Process
from repro.machine import Machine
from repro.mem.payload import make_payload
from repro.net.faults import FAULT_OPS, FaultPlan
from repro.obs import ObsConfig
from repro.params import shrimp
from repro.userlib.messaging import Receiver, Sender
from repro.userlib.udma import DeviceRef, MemoryRef, UdmaUser

#: bounded spin limits so adversarial schedules fail fast (DmaError
#: outcome) instead of polling for a million iterations
_RETRY_LIMIT = 16
_POLL_LIMIT = 50_000

BREAK_MODES = (None, "no-inval", "stale-xlat")

#: the IOMMU tier chaos worlds run under: bounds generous enough that an
#: adversarial paging schedule can never trip the degradation paths
#: (queue-full / park-budget aborts change the outcome, and the
#: convergence oracle requires faulted runs to *converge*, not degrade).
#: The degradation paths are exercised by directed unit tests instead.
CHAOS_IOMMU = IommuConfig(iotlb_entries=64, fault_queue_depth=256, park_budget=8)


@dataclass
class _ProcRig:
    """One workload process and its buffer (plus UDMA runtime if any)."""

    machine: Machine
    process: Process
    buffer: int
    buf_bytes: int
    buf_pages: int
    udma: Optional[UdmaUser] = None
    grant: Optional[int] = None


class _NoInvalSwitch:
    """The planted I1 bug: ``switch_to`` with the controller list hidden.

    Installed as an instance attribute shadowing the scheduler's method.
    Calls the method through ``type(sched)`` so it keeps working after a
    pickle round trip (see the deliberate-bugs note in ChaosWorld).
    """

    __slots__ = ("sched",)

    def __init__(self, sched) -> None:
        self.sched = sched

    def __call__(self, process) -> None:
        sched = self.sched
        saved = sched.udma_controllers
        sched.udma_controllers = []
        try:
            type(sched).switch_to(sched, process)
        finally:
            sched.udma_controllers = saved


class _SkipEviction:
    """The planted stale-xlat bug: a page table's ``_edited`` helper that
    bumps the generation but leaves the edited page's cached translation
    in place."""

    __slots__ = ("table",)

    def __init__(self, table) -> None:
        self.table = table

    def __call__(self, vpage: int) -> None:
        self.table.generation += 1


class ChaosWorld:
    """A fresh system under test plus the action interpreter."""

    PROC_BUF_PAGES = 6    # single-node per-process buffer length
    CHANNEL_PAGES = 4     # cluster channel / send-buffer length
    SINK_PAGES = 16       # single-node sink device window

    def __init__(
        self,
        nodes: int = 1,
        reference: bool = False,
        break_mode: Optional[str] = None,
        reliability: bool = False,
        protection: str = "proxy",
        iommu: bool = False,
    ) -> None:
        if break_mode not in BREAK_MODES:
            raise ConfigurationError(f"unknown break mode {break_mode!r}")
        if iommu and nodes < 2:
            raise ConfigurationError(
                "iommu chaos worlds need a cluster (nodes >= 2): the "
                "virtual-address tier lives on the receive path"
            )
        #: run without host fast paths (the fast-paths twin's reference)
        self.reference = reference
        self.break_mode = break_mode
        #: ack/retransmit transport under test (cluster worlds only); off
        #: keeps every audit log and counter bit-identical to history
        self.reliability = reliability
        #: protection-backend spec (see repro.protection.make_backend);
        #: the default "proxy" is bit-identical to pre-backend history
        self.protection = protection
        #: virtual-address RDMA tier under test: channels carry
        #: (asid, vpage) destinations, receive buffers are unpinned, and
        #: paging actions can force park-and-replay on the receive path
        self.iommu = iommu
        self.num_nodes = max(1, nodes)
        self.costs = shrimp()
        self.page_size = self.costs.page_size
        self.word_size = self.costs.word_size

        self.cluster: Optional[ShrimpCluster] = None
        self.sink: Optional[SinkDevice] = None
        self.senders: List[Sender] = []
        self.receivers: List[Receiver] = []
        self._rigs: List[List[_ProcRig]] = []  # [node][proc]

        # channel-churn state: at most one channel is "parked" (released)
        # at a time, so the first-fit NIPT free list hands the same base
        # back on recreate and schedules stay deterministic
        self._parked: "Optional[Tuple[int, object]]" = None
        self._rx_procs: List[Process] = []
        self._rx_bufs: List[int] = []

        if self.num_nodes == 1:
            self._build_single()
        else:
            self._build_cluster()

        if break_mode == "no-inval":
            self._break_no_inval()
        elif break_mode == "stale-xlat":
            self._break_stale_xlat()

    # ------------------------------------------------------------ assembly
    def _build_single(self) -> None:
        ps = self.page_size
        machine = Machine(
            config=MachineConfig(
                costs=self.costs,
                mem_size=96 * ps,
                reference=self.reference,
                # Spans are host-side and deterministic, so they are safe
                # under the differential oracle; failures get causal context.
                obs=ObsConfig(spans=True),
                protection=self.protection,
            )
        )
        self.spans = machine.obs.spans
        self.machines = [machine]
        self.clock = machine.clock
        self.faults: Optional[FaultPlan] = None  # wire faults need a cluster
        self.sink = SinkDevice("sink", size=self.SINK_PAGES * ps, alignment=0)
        machine.attach_device(self.sink)
        rigs: List[_ProcRig] = []
        for j in range(2):
            process = machine.create_process(f"p{j}")
            buffer = machine.kernel.syscalls.alloc(process, self.PROC_BUF_PAGES * ps)
            grant = machine.kernel.syscalls.grant_device_proxy(process, "sink")
            udma = UdmaUser(
                machine, process,
                retry_limit=_RETRY_LIMIT, poll_limit=_POLL_LIMIT,
            )
            rigs.append(
                _ProcRig(
                    machine=machine,
                    process=process,
                    buffer=buffer,
                    buf_bytes=self.PROC_BUF_PAGES * ps,
                    buf_pages=self.PROC_BUF_PAGES,
                    udma=udma,
                    grant=grant,
                )
            )
        self._rigs = [rigs]

    def _build_cluster(self) -> None:
        ps = self.page_size
        cluster = ShrimpCluster(
            config=ClusterConfig(
                num_nodes=self.num_nodes,
                costs=self.costs,
                mem_size=96 * ps,
                reference=self.reference,
                obs=ObsConfig(spans=True),
                reliability=self.reliability,
                protection=self.protection,
                iommu=CHAOS_IOMMU if self.iommu else False,
            )
        )
        self.spans = cluster.obs.spans
        self.cluster = cluster
        self.machines = list(cluster.nodes)
        self.clock = cluster.clock
        self.faults = FaultPlan(cluster.interconnect)
        nbytes = self.CHANNEL_PAGES * ps

        rx_procs: List[Process] = []
        rx_bufs: List[int] = []
        for i in range(self.num_nodes):
            proc = cluster.node(i).create_process(f"rx{i}")
            rx_procs.append(proc)
            rx_bufs.append(cluster.node(i).kernel.syscalls.alloc(proc, nbytes))
        self._rx_procs = rx_procs
        self._rx_bufs = rx_bufs

        # A ring of channels: node i sends to node (i + 1) % N.
        for i in range(self.num_nodes):
            dst = (i + 1) % self.num_nodes
            channel = cluster.create_channel(i, dst, rx_procs[dst], rx_bufs[dst], nbytes)
            tx = cluster.node(i).create_process(f"tx{i}")
            sender = Sender(cluster, tx, channel)
            sender.udma.retry_limit = _RETRY_LIMIT
            sender.udma.poll_limit = _POLL_LIMIT
            self.senders.append(sender)
            self.receivers.append(Receiver(cluster, rx_procs[dst], channel))

        self._rigs = []
        for i in range(self.num_nodes):
            sender = self.senders[i]
            rigs = [
                _ProcRig(
                    machine=cluster.node(i),
                    process=sender.process,
                    buffer=sender.buffer,
                    buf_bytes=sender.buffer_bytes,
                    buf_pages=sender.buffer_bytes // ps,
                    udma=sender.udma,
                ),
                _ProcRig(
                    machine=cluster.node(i),
                    process=rx_procs[i],
                    buffer=rx_bufs[i],
                    buf_bytes=nbytes,
                    buf_pages=self.CHANNEL_PAGES,
                ),
            ]
            if self.iommu or self.reliability:
                # IOMMU and reliable worlds get a third, DMA-free scratch
                # process per node and route CPU "write" actions to it
                # (_write_rig): a store racing an in-flight transfer -- a
                # pending source read of the tx buffer, a parked or a
                # retransmitted delivery into the rx buffer -- has a
                # timing-dependent outcome, which is an application bug,
                # not a convergence failure.  Scratch writes keep the
                # dirty-page / eviction pressure the paging campaign needs
                # without touching DMA-visible memory.
                scratch = cluster.node(i).create_process(f"sc{i}")
                sc_buf = cluster.node(i).kernel.syscalls.alloc(
                    scratch, self.PROC_BUF_PAGES * ps
                )
                rigs.append(
                    _ProcRig(
                        machine=cluster.node(i),
                        process=scratch,
                        buffer=sc_buf,
                        buf_bytes=self.PROC_BUF_PAGES * ps,
                        buf_pages=self.PROC_BUF_PAGES,
                    )
                )
            self._rigs.append(rigs)

    # ------------------------------------------------------- deliberate bugs
    # The planted bugs shadow methods with *instance* attributes.  The
    # shadows are callable classes, not closures: a broken world must
    # survive snapshot/restore (chaos checkpointing pickles worlds
    # mid-schedule), and a closure cannot pickle -- nor can a captured
    # bound method, which would resolve back to the shadowing attribute
    # after a restore.  Each shadow therefore reaches the real method
    # through the *class*.

    def _break_no_inval(self) -> None:
        """Plant the I1 bug: context switches stop firing device Invals."""
        for machine in self.machines:
            sched = machine.kernel.scheduler
            sched.switch_to = _NoInvalSwitch(sched)

    def _break_stale_xlat(self) -> None:
        """Plant the fast-path bug: page-table edits skip their eviction.

        Models a kernel whose page-table edits and TLB shootdowns are
        right but never reach the CPU's software translation cache.  The
        page tables and TLB stay *internally* consistent -- the invariant
        checkers see nothing -- but cached fast-path translations go
        stale, which only the differential oracle (fast vs reference run)
        can expose.
        """
        for machine in self.machines:
            for process in machine.kernel.processes.values():
                process.page_table._edited = _SkipEviction(process.page_table)

    # ------------------------------------------------------------- helpers
    def _rig(self, action: Action) -> _ProcRig:
        node = self._rigs[action.node % len(self._rigs)]
        return node[action.proc % len(node)]

    def _write_rig(self, action: Action) -> _ProcRig:
        """The rig CPU stores may scribble: scratch-only under the IOMMU
        or reliable transport.

        See _build_cluster -- convergence requires stores to stay off
        DMA-visible buffers, whose content must be schedule-determined.
        """
        if (self.iommu or self.reliability) and self.cluster is not None:
            return self._rigs[action.node % len(self._rigs)][2]
        return self._rig(action)

    @staticmethod
    def _run_as(rig: _ProcRig) -> None:
        kernel = rig.machine.kernel
        if kernel.current is not rig.process:
            kernel.scheduler.switch_to(rig.process)

    @staticmethod
    def _span(action: Action, limit: int, cap: int) -> Tuple[int, int]:
        """Deterministic (offset, size) window inside a ``limit``-byte buffer."""
        size = 1 + action.size % min(cap, limit)
        offset = (action.page * 89) % (limit - size + 1)
        return offset, size

    @staticmethod
    def _checksum(data) -> str:
        return f"{sum(data) & 0xFFFF:04x}"

    # -------------------------------------------------------------- apply
    def apply(self, action: Action) -> str:
        """Apply one action; returns a deterministic outcome label.

        Expected, user-visible errors (protection faults, DMA failures,
        syscall refusals...) become part of the outcome -- adversarial
        schedules provoke them on purpose, and the differential oracle
        requires *identical* outcomes either way.  Invariant violations
        always propagate: they are findings, not outcomes.
        """
        try:
            return self._dispatch(action)
        except InvariantViolation:
            raise
        except ReproError as exc:
            return type(exc).__name__

    def _dispatch(self, action: Action) -> str:
        if action.kind in FAULT_OPS:
            return self._plan(action)
        handler = getattr(self, f"_do_{action.kind}", None)
        if handler is None:
            raise ConfigurationError(f"unknown action kind {action.kind!r}")
        return handler(action)

    # -------------------------------------------------- workload actions
    def _do_write(self, action: Action) -> str:
        rig = self._write_rig(action)
        self._run_as(rig)
        offset, size = self._span(action, rig.buf_bytes, 2048)
        data = make_payload(size, seed=1 + (action.page + action.size) % 251)
        rig.machine.cpu.write_bytes(rig.buffer + offset, data)
        return "ok"

    def _do_read(self, action: Action) -> str:
        rig = self._rig(action)
        self._run_as(rig)
        offset, size = self._span(action, rig.buf_bytes, 2048)
        buf = bytearray(size)
        rig.machine.cpu.read_into(rig.buffer + offset, buf)
        return f"ok:{self._checksum(buf)}"

    def _do_send(self, action: Action) -> str:
        if self.cluster is None:
            return self._single_udma(action, to_device=not (action.arg & 2))
        sender = self.senders[action.node % len(self.senders)]
        nbytes = sender.channel.nbytes
        size = 1 + action.size % (nbytes // 2)
        offset = ((action.page * 97) % (nbytes - size + 1)) & ~3
        data = make_payload(size, seed=1 + (action.page + action.size) % 239)
        wait = bool(action.arg & 1)
        # Stage at the channel offset (the tx buffer is channel-sized), not
        # at the buffer head: a non-waited transfer reads its source lazily,
        # so head-staged back-to-back sends would race the previous
        # transfer's source read -- an incorrect UDMA application whose
        # outcome depends on timing, which the twin-comparing oracles
        # (delivery, convergence) cannot tolerate.  Offset staging makes
        # each send's source bytes its own; where two in-flight sends
        # overlap, source and destination ranges coincide, so the later
        # arrival's payload wins in both twins.
        sender._ensure_current()
        sender.machine.cpu.write_bytes(sender.buffer + offset, data)
        stats = sender.send_buffer(
            size, buffer_offset=offset, channel_offset=offset, wait=wait
        )
        return f"ok:{stats.pieces}p{stats.retries}r"

    def _do_recv(self, action: Action) -> str:
        if self.cluster is None:
            return self._single_udma(action, to_device=False, then_read=True)
        receiver = self.receivers[action.node % len(self.receivers)]
        nbytes = receiver.channel.nbytes
        offset, size = self._span(action, nbytes, nbytes)
        data = receiver.recv_bytes(size, offset)
        return f"ok:{self._checksum(data)}"

    def _single_udma(
        self, action: Action, to_device: bool, then_read: bool = False
    ) -> str:
        rig = self._rig(action)
        assert rig.udma is not None and rig.grant is not None
        self._run_as(rig)
        sink_bytes = self.SINK_PAGES * self.page_size
        mem_off, size = self._span(action, rig.buf_bytes, 1024)
        dev_off = (action.page * 131) % (sink_bytes - size + 1)
        mem = MemoryRef(rig.buffer + mem_off)
        dev = DeviceRef(rig.grant + dev_off)
        wait = bool(action.arg & 1) or then_read
        if to_device:
            stats = rig.udma.transfer(mem, dev, size, wait=wait)
        else:
            stats = rig.udma.transfer(dev, mem, size, wait=wait)
        if then_read:
            buf = bytearray(size)
            rig.machine.cpu.read_into(rig.buffer + mem_off, buf)
            return f"ok:{self._checksum(buf)}"
        return f"ok:{stats.pieces}p{stats.retries}r"

    def _do_rawsend(self, action: Action) -> str:
        """A send that bypasses the Sender's padding: sizes may be odd.

        Unaligned sizes trip the device's alignment veto (DmaError), a
        hard protection outcome every backend must classify identically
        — this is the chaos-visible surface for an alignment-skipping
        backend bug.  Aligned sizes behave exactly like a small send.
        """
        if self.cluster is None:
            return self._single_udma(action, to_device=True)
        sender = self.senders[action.node % len(self.senders)]
        nbytes = sender.channel.nbytes
        size = 1 + action.size % 256
        offset = ((action.page * 53) % (nbytes - size)) & ~3
        data = make_payload(size, seed=1 + (action.page + action.size) % 233)
        sender._ensure_current()
        # Offset staging, same reasoning as _do_send.
        sender.machine.cpu.write_bytes(sender.buffer + offset, data)
        stats = sender.udma.transfer(
            MemoryRef(sender.buffer + offset),
            sender.device_ref(offset),
            size,
            wait=bool(action.arg & 1),
        )
        return f"ok:{stats.pieces}p{stats.retries}r"

    def _do_churn(self, action: Action) -> str:
        """Protection-state churn: recycle a grant or a channel's NIPT.

        Cluster worlds toggle ONE channel at a time between parked
        (released: NIPT entries cleared, pages unpinned, free-list range
        returned) and recreated; the single-parked discipline makes the
        first-fit NIPT allocator hand back the same base, so schedules
        stay deterministic and the sender's window grant stays valid.
        Sends to a parked channel must fault cleanly (nipt-invalid /
        DmaError) on every backend — the prime divergence window for a
        stale-capability bug.  Single-node worlds revoke and re-grant
        the sink window instead, exercising grant/revoke bookkeeping.
        In-flight traffic is settled first: mid-flight teardown is a
        directed-test scenario, not a schedule-determinism hazard.
        """
        if self.cluster is None:
            rig = self._rig(action)
            self.settle()
            syscalls = rig.machine.kernel.syscalls
            syscalls.revoke_device_proxy(rig.process, "sink")
            rig.grant = syscalls.grant_device_proxy(rig.process, "sink")
            return "ok:regrant"
        self.settle()
        if self._parked is not None:
            i, _old = self._parked
            self._parked = None
            dst = (i + 1) % self.num_nodes
            nbytes = self.CHANNEL_PAGES * self.page_size
            channel = self.cluster.create_channel(
                i, dst, self._rx_procs[dst], self._rx_bufs[dst], nbytes
            )
            self.senders[i].channel = channel
            self.receivers[i].channel = channel
            return f"ok:recreate{i}"
        i = action.node % len(self.senders)
        self.cluster.release_channel(self.senders[i].channel)
        self._parked = (i, self.senders[i].channel)
        return f"ok:park{i}"

    def _do_touch(self, action: Action) -> str:
        rig = self._rig(action)
        self._run_as(rig)
        offset = (action.page % rig.buf_pages) * self.page_size
        offset += (action.size % self.page_size) & ~(self.word_size - 1)
        word = rig.machine.cpu.load(rig.buffer + offset)
        return f"ok:{word & 0xFFFF:04x}"

    # ------------------------------------------------- scheduling actions
    def _do_switch(self, action: Action) -> str:
        rig = self._rig(action)
        rig.machine.kernel.scheduler.switch_to(rig.process)
        return "ok"

    def _do_stall(self, action: Action) -> str:
        cycles = 1 + action.size % 4096
        self.clock.run(until=self.clock.now + cycles)
        return "ok"

    def _do_drain(self, action: Action) -> str:
        self.settle()
        return "ok"

    # ---------------------------------------------- memory-system actions
    def _do_pageout(self, action: Action) -> str:
        machine = self.machines[action.node % len(self.machines)]
        return "ok" if machine.kernel.vm.evict_for_pressure() else "noop"

    def _do_clean(self, action: Action) -> str:
        rig = self._rig(action)
        vpage = rig.buffer // self.page_size + action.page % rig.buf_pages
        done = rig.machine.kernel.vm.clean_page(rig.process, vpage)
        return "ok" if done else "deferred"

    def _do_downgrade(self, action: Action) -> str:
        return self._set_protection(action, writable=False)

    def _do_upgrade(self, action: Action) -> str:
        return self._set_protection(action, writable=True)

    def _set_protection(self, action: Action, writable: bool) -> str:
        rig = self._rig(action)
        vpage = rig.buffer // self.page_size + action.page % rig.buf_pages
        done = rig.machine.kernel.vm.set_page_protection(
            rig.process, vpage, writable
        )
        return "ok" if done else "noop"

    def _do_shootdown(self, action: Action) -> str:
        rig = self._rig(action)
        tlb = rig.machine.mmu.tlb
        if action.arg & 1:
            tlb.flush_asid(rig.process.asid)
            return "ok:asid"
        tlb.flush_all()
        return "ok:all"

    # -------------------------------------------------- wire-fault actions
    def _plan(self, action: Action) -> str:
        """Plan a fault for the next free packet of ``action.node``'s send
        lane, or with ``arg`` bit 1 of the reverse lane where that carries
        packets (ACKs under reliability, the other ring lane on two
        nodes); a corruption's byte is picked by ``action.size``."""
        if self.faults is None:
            return "skip"
        src = action.node % self.num_nodes
        dst = (src + 1) % self.num_nodes
        if action.arg & 2 and (self.reliability or self.num_nodes == 2):
            src, dst = dst, src
        self.faults.add(src, dst, action.kind, salt=action.size)
        return "armed"

    # ------------------------------------------------------------ settling
    def settle(self) -> None:
        """Drain all hardware, delivering any packet a reorder holds."""
        (self.faults or self.clock).run_until_idle()

    # ----------------------------------------------------------- observers
    def counters(self) -> "dict[str, int]":
        """Curated counters the differential oracle compares.

        Deliberately excludes stats that *legitimately* differ between the
        fast and reference paths: TLB hit/miss totals and the software
        translation cache's own hit/miss/fill counts.  Everything here --
        cycles, reference counts, faults, scheduling, packets -- must be
        bit-identical across modes.
        """
        c: "dict[str, int]" = {"now": self.clock.now}
        nics = self.cluster.nics if self.cluster is not None else [None]
        for i, (machine, nic) in enumerate(zip(self.machines, nics)):
            # io{i}.* only when the tier is on and nic{i}.* only in a
            # cluster, so other counter sets stay bit-identical to history
            c.update(node_counters(i, machine, nic))
        if self.cluster is not None:
            c["net.routed"] = self.cluster.interconnect.packets_routed
            c["net.dropped"] = self.cluster.interconnect.packets_dropped
            if self.cluster.reliability is not None:
                # Transport counters exist only when the transport does, so
                # reliability-off counter sets stay bit-identical to history.
                for name, value in self.cluster.reliability.counters().items():
                    c["rel." + name] = value
        if self.sink is not None:
            c["sink.reads"] = self.sink.reads
            c["sink.writes"] = self.sink.writes
        return c

    def protection_faults(self) -> "List[str]":
        """Canonical per-node protection fault ledger (hard refusals).

        Entries are ``"n{node}:{kind}"`` with kinds from the frozen
        :data:`repro.protection.FAULT_KINDS` vocabulary, in order of
        occurrence.  The conformance oracle requires this list to be
        identical across backends: *what* is refused and *why* is
        outcome, not timing.
        """
        out: "List[str]" = []
        for i, machine in enumerate(self.machines):
            for kind in machine.udma.backend.fault_log:
                out.append(f"n{i}:{kind}")
        return out

    def nipt_state(self) -> "Tuple[tuple, ...]":
        """Final NIPT contents per NIC, as a hashable snapshot.

        Backends must leave the OS-owned table in the same state: which
        pages are exported, and to where, is a protection *outcome*.
        """
        if self.cluster is None:
            return ()
        return tuple(
            (i,)
            + tuple(
                (index, entry.dst_node, entry.dst_page)
                for index, entry in nic.nipt.entries()
            )
            for i, nic in enumerate(self.cluster.nics)
        )

    def span_context(self, limit: int = 4) -> str:
        """Causal transfer context for a failure report.

        Open spans are the transfers in flight when the run stopped --
        usually exactly the ones implicated.  If nothing is open, the most
        recently minted spans stand in (the failure happened just after
        they settled).  One ``Span.brief()`` line each, newest first.
        """
        if self.spans is None:
            return ""
        spans = self.spans.open_spans()
        label = "open"
        if not spans:
            spans = list(self.spans)
            label = "recent"
        picked = sorted(spans, key=lambda s: s.id, reverse=True)[:limit]
        if not picked:
            return ""
        return f"{label}: " + "; ".join(s.brief() for s in picked)

    def mem_digest(self) -> str:
        """Digest of every byte of simulated memory (and the sink)."""
        h = hashlib.blake2b(digest_size=16)
        for machine in self.machines:
            h.update(machine.physmem.view(0, machine.physmem.size))
        if self.sink is not None:
            h.update(self.sink.peek(0, self.SINK_PAGES * self.page_size))
        return h.hexdigest()

    def vm_digest(self) -> str:
        """Digest of every process's *logical* memory (and the sink).

        The IOMMU convergence oracle cannot use :meth:`mem_digest`:
        stripping paging actions from a schedule changes which physical
        frame backs each page, so the raw physical image never converges.
        What must converge is the address-space *content* -- for every
        process (sorted by asid) and every valid non-proxy page (sorted
        by vpage), the page's bytes wherever they live: the resident
        frame, the swap copy (read via the counter-free
        ``BackingStore.peek`` so observing a run never perturbs it), or
        zeros for never-touched demand-zero pages.  Proxy aliases are
        skipped: pageout invalidates them (I2), so their mapped-ness
        legitimately differs between a faulted run and its twin.
        """
        h = hashlib.blake2b(digest_size=16)
        zero = bytes(self.page_size)
        for machine in self.machines:
            backing = machine.kernel.vm.backing
            for asid in sorted(machine.kernel.processes):
                process = machine.kernel.processes[asid]
                for vpage, pte in sorted(process.page_table.entries()):
                    if machine.layout.is_proxy(vpage * self.page_size):
                        continue
                    h.update(f"{asid}:{vpage}".encode())
                    if pte.present:
                        h.update(machine.physmem.read_frame(pte.pfn))
                    else:
                        data = backing.peek(asid, vpage)
                        h.update(data if data is not None else zero)
        if self.sink is not None:
            h.update(self.sink.peek(0, self.SINK_PAGES * self.page_size))
        return h.hexdigest()
