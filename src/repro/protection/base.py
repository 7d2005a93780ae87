"""The protection-backend interface behind the two-instruction send.

The paper's proxy address space (section 4) is one point in a design
space: CAPIO obtains the same safe kernel bypass from capabilities, and
the SBPF line of work offloads a pre-validated accessor into the kernel.
This module factors the *protection decision* — destination-proxy
decode, per-page send-right lookup, and grant/fault classification — out
of :class:`~repro.core.controller.UdmaController` so those alternatives
can be swapped in behind one interface.

Outcome-equivalence contract (enforced by the ``backends`` row of
:data:`repro.chaos.TWINS`):

* every backend must produce the **same grants, the same fault kinds,
  the same NIPT effects and the same memory digests** for any schedule;
* **simulated cycle counts may differ** per backend (each charges its
  own ``initiation_check_cycles`` on the initiating LOAD) and are only
  required to be deterministic *within* a backend;
* the ``proxy`` backend is the default and must remain bit-identical to
  the pre-refactor controller — its check is free because the MMU
  already performed it during address translation.

Faults are recorded in a canonical, frozen vocabulary (``FAULT_KINDS``)
so new backends diff against fixed strings instead of ad-hoc messages.
"""

from __future__ import annotations

from functools import partial

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.devices.base import ERR_ALIGNMENT, ERR_DEVICE_BASE, ERR_RANGE, ERR_READONLY
from repro.errors import AddressError, ConfigurationError
from repro.mem.layout import ProxyOperand, Region, SpaceKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.controller import UdmaController
    from repro.devices.base import UDMADevice

# Frozen protection fault vocabulary (satellite: golden-tested).  The
# names mirror the paper's refusal reasons for the two-instruction send:
#
#   bad-load      LOAD from a proxy in the same space as the latched
#                 destination (section 5's "wrong space" refusal);
#   inval         a context-switch INVAL cleared a latched destination
#                 before its LOAD arrived (I1);
#   alignment     device alignment veto on the initiating LOAD;
#   range         transfer exceeds the device's proxy window;
#   readonly      store side of the pair hit a read-only mapping;
#   no-receive    the NIC refused to be a DMA *source* (send-only);
#   nipt-invalid  destination page has no valid NIPT entry / capability.
#
# Device-specific bits above the NIPT bit fold into ``device``.
FAULT_KINDS: Tuple[str, ...] = (
    "bad-load",
    "inval",
    "alignment",
    "range",
    "readonly",
    "no-receive",
    "nipt-invalid",
    "device",
)

_FAULT_LOG_CAP = 1 << 16

# Bit positions of the two NIC-defined error bits (see repro.net.nic).
_ERR_NO_RECEIVE = ERR_DEVICE_BASE
_ERR_NIPT_INVALID = ERR_DEVICE_BASE << 1


def fault_kinds_from_errors(errors: int) -> Tuple[str, ...]:
    """Decode a device-error bitmask into canonical fault kinds."""
    kinds = []
    if errors & ERR_ALIGNMENT:
        kinds.append("alignment")
    if errors & ERR_RANGE:
        kinds.append("range")
    if errors & ERR_READONLY:
        kinds.append("readonly")
    if errors & _ERR_NO_RECEIVE:
        kinds.append("no-receive")
    if errors & _ERR_NIPT_INVALID:
        kinds.append("nipt-invalid")
    if errors & ~(ERR_ALIGNMENT | ERR_RANGE | ERR_READONLY | _ERR_NO_RECEIVE | _ERR_NIPT_INVALID):
        kinds.append("device")
    return tuple(kinds)


class ProtectionBackend:
    """Base class for the pluggable protection check.

    One instance serves one :class:`UdmaController` (per-node state such
    as capability tables lives here).  Subclasses override
    :meth:`source_errors` / :meth:`dest_errors` — the veto decision for
    the initiating LOAD — and may hook grant/revoke and NIPT traffic.
    """

    #: registry name ("proxy", "captable", "handler")
    name: str = "abstract"
    #: extra cycles charged on every initiating LOAD's protection check.
    #: The proxy scheme rides the MMU translation already paid for, so
    #: its check is free; table walks and kernel handlers are not.
    initiation_check_cycles: int = 0
    #: planted-bug knobs accepted by ``make_backend("name:bug")``
    BUGS: Tuple[str, ...] = ()

    def __init__(self, bug: Optional[str] = None) -> None:
        if bug is not None and bug not in self.BUGS:
            raise ConfigurationError(
                f"backend {self.name!r} has no planted bug {bug!r}"
                f" (available: {', '.join(self.BUGS) or 'none'})"
            )
        self.bug = bug
        #: bumped whenever a protection decision could change (grant,
        #: revoke, NIPT set/clear).  Cached ``_SendPlan`` stamps compare
        #: against this before skipping the re-check.
        self.generation = 0
        #: canonical fault kinds, in order of occurrence (hard refusals
        #: only — transient busy/queue-full retries are not protection
        #: faults).  Bounded so adversarial schedules cannot grow it
        #: without limit.
        self.fault_log: List[str] = []
        self._controller: Optional["UdmaController"] = None
        self._layout = None
        self._page_size = 0

    # ------------------------------------------------------------ wiring
    def attach(self, controller: "UdmaController") -> None:
        """Bind to a controller (called once by the controller)."""
        self._controller = controller
        self._layout = controller.layout
        self._page_size = controller.page_size

    def device_attached(self, device: "UDMADevice") -> None:
        """A device was registered with the controller.

        The base class subscribes to the device's NIPT (when it has one)
        so every set/clear bumps :attr:`generation` — recycled entries
        must invalidate outstanding ``_SendPlan`` stamps on every
        backend.
        """
        nipt = getattr(device, "nipt", None)
        if nipt is not None:
            # partial (not a lambda): NIPT listener lists are part of the
            # machine snapshot and must pickle with the device.
            nipt.add_listener(partial(self.nipt_changed, device))

    # ----------------------------------------------------- change events
    def nipt_changed(self, device: "UDMADevice", index: int, installed: bool) -> None:
        """A NIPT entry was set (``installed``) or cleared."""
        self.generation += 1

    def note_grant(self, asid: int, device_name: str, writable: bool) -> None:
        """The kernel mapped (part of) a device window for ``asid``."""
        self.generation += 1

    def note_revoke(self, asid: int, device_name: str) -> None:
        """The kernel tore down a device-window grant."""
        self.generation += 1

    # -------------------------------------------------------- the checks
    def decode(self, paddr: int) -> ProxyOperand:
        """Classify a physical address into a proxy operand.

        All backends share the paper's address-space layout — what
        differs is how the *send right* is verified, not how proxies are
        decoded.  The controller caches decodes; the cache is flushed on
        backend switches so this method stays authoritative.
        """
        region = self._layout.region_of(paddr)
        if region is Region.MEMORY_PROXY:
            return ProxyOperand(paddr, SpaceKind.MEMORY)
        if region is Region.DEVICE_PROXY:
            return ProxyOperand(paddr, SpaceKind.DEVICE)
        raise AddressError(
            paddr, f"{self._controller.name} was handed a non-proxy address"
        )

    def source_errors(self, device: "UDMADevice", offset: int, nbytes: int) -> int:
        """Veto bits for using ``device`` as the DMA *source*."""
        raise NotImplementedError

    def dest_errors(self, device: "UDMADevice", offset: int, nbytes: int) -> int:
        """Veto bits for using ``device`` as the DMA *destination*."""
        raise NotImplementedError

    # ------------------------------------------------------------ ledger
    def record_fault(self, kind: str) -> None:
        if kind not in FAULT_KINDS:
            raise ConfigurationError(f"unknown protection fault kind {kind!r}")
        if len(self.fault_log) < _FAULT_LOG_CAP:
            self.fault_log.append(kind)

    def record_error_bits(self, errors: int) -> None:
        for kind in fault_kinds_from_errors(errors):
            self.record_fault(kind)

    # ------------------------------------------------------------- misc
    @property
    def spec(self) -> str:
        """The ``make_backend`` string that reproduces this instance."""
        return self.name if self.bug is None else f"{self.name}:{self.bug}"

    def describe(self) -> str:
        return (
            f"{self.spec} (+{self.initiation_check_cycles} cycles/initiation,"
            f" gen={self.generation}, faults={len(self.fault_log)})"
        )
