"""Exception hierarchy for the UDMA/SHRIMP simulation.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch one base class.  Faults that the simulated hardware
reports *architecturally* (page faults, protection faults) are modelled as
exceptions because the simulated CPU delivers them synchronously to the
kernel's fault dispatcher, exactly like a trap.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ConfigurationError(ReproError):
    """A component was built or wired with inconsistent parameters."""


class AddressError(ReproError):
    """An address fell outside every region of the address map."""

    def __init__(self, address: int, detail: str = "") -> None:
        self.address = address
        message = f"address {address:#x} is not mapped to any region"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)


class AlignmentError(ReproError):
    """An access violated the alignment requirement of a bus or device."""

    def __init__(self, address: int, alignment: int) -> None:
        self.address = address
        self.alignment = alignment
        super().__init__(
            f"address {address:#x} is not aligned to {alignment} bytes"
        )


class PageFault(ReproError):
    """An architectural page fault raised by the MMU.

    The simulated CPU catches this and invokes the kernel's fault handler,
    which either repairs the mapping (demand paging, proxy-page
    materialisation, dirty-bit upgrade) and restarts the access, or kills
    the faulting process.

    Attributes:
        vaddr: faulting virtual address.
        access: the attempted access ("read" or "write").
        reason: machine-readable fault cause (``"not-present"``,
            ``"protection"``, ``"not-mapped"``).
    """

    def __init__(self, vaddr: int, access: str, reason: str) -> None:
        self.vaddr = vaddr
        self.access = access
        self.reason = reason
        super().__init__(
            f"page fault at {vaddr:#x} on {access} ({reason})"
        )


class ProtectionFault(ReproError):
    """A fatal protection violation (the kernel decided to kill the access).

    Raised back to the application after the kernel's fault handler
    concludes the access is illegal — the simulation analogue of SIGSEGV.
    """

    def __init__(self, vaddr: int, access: str, detail: str = "") -> None:
        self.vaddr = vaddr
        self.access = access
        message = f"illegal {access} at {vaddr:#x}"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)


class DeviceError(ReproError):
    """A device rejected an operation (bad block, out-of-range offset...)."""


class DmaError(ReproError):
    """The DMA engine or its driver was used incorrectly."""


class QueueFull(ReproError):
    """The UDMA hardware request queue refused a new transfer (section 7)."""


class NetworkError(ReproError):
    """The interconnect or a NIC detected a malformed or undeliverable packet."""


class SyscallError(ReproError):
    """A system call failed; carries a unix-flavoured error name."""

    def __init__(self, errno: str, detail: str = "") -> None:
        self.errno = errno
        message = errno
        if detail:
            message = f"{errno}: {detail}"
        super().__init__(message)


class SimulationLimitError(ReproError):
    """An event-loop guard tripped (e.g. ``run_until_idle`` max_events).

    Distinguishes "the simulation is livelocked / runaway" from silent
    truncation: the clock stops *before* exceeding the budget, leaves the
    queue accounting consistent, and reports where it stopped so the
    failure is diagnosable.

    Attributes:
        limit: the event budget that was exhausted.
        fired: events fired within this call before stopping.
        pending: live events still queued when the guard tripped.
        now: simulated time when the guard tripped.
        next_event_time: due time of the event that was *not* fired.
    """

    def __init__(
        self,
        limit: int,
        fired: int,
        pending: int,
        now: int,
        next_event_time: "int | None",
    ) -> None:
        self.limit = limit
        self.fired = fired
        self.pending = pending
        self.now = now
        self.next_event_time = next_event_time
        super().__init__(
            f"event budget exhausted: fired {fired} events "
            f"(limit {limit}) with {pending} still pending at t={now} "
            f"(next due at t={next_event_time}); a component appears to "
            "reschedule itself unboundedly"
        )


class InvariantViolation(ReproError):
    """One of the paper's invariants I1-I4 was found violated.

    Only raised by the runtime checkers in :mod:`repro.kernel.invariants`;
    a correct system never triggers it.  Tests use it to prove the
    maintenance rules actually hold under adversarial workloads.
    """

    def __init__(self, invariant: str, detail: str) -> None:
        self.invariant = invariant
        super().__init__(f"invariant {invariant} violated: {detail}")


class SnapshotError(ReproError):
    """A machine snapshot could not be captured or restored.

    Covers structural failures: a blob that is not a snapshot at all
    (bad magic), a truncated or corrupted payload, or an object graph
    that cannot be serialised.  A blob from another build raises the
    more specific :class:`SnapshotVersionError`.
    """


class SnapshotVersionError(SnapshotError):
    """A snapshot blob was written by a different build of ``repro``.

    Snapshots are point-in-time serialisations of internal object
    graphs, so a blob restores only under the source that wrote it.
    ``changed`` lists the source files (relative to the package) whose
    digests differ; it is empty for a blob with an older header layout.
    """

    def __init__(self, changed: list[str]) -> None:
        self.changed = changed
        differs = ", ".join(changed) or "an older header layout"
        super().__init__(
            f"snapshot was written by a different build of repro "
            f"({differs}); re-capture it with the current code"
        )
