"""Pluggable protection backends for the two-instruction send.

See :mod:`repro.protection.base` for the interface and the
outcome-equivalence contract, and ``docs/PROTECTION.md`` for the guide.

Backends are named by a spec string accepted everywhere a backend can be
configured (``MachineConfig(protection=...)``, ``ClusterConfig``, chaos,
CLI):

* ``"proxy"``            — the paper's MMU-aliasing scheme (default);
* ``"captable"``         — CAPIO-style capability table;
* ``"handler"``          — SBPF-style pre-validated kernel accessor;
* ``"captable:stale-cap"`` etc. — a backend with a *planted bug*, used
  to prove the ``backends`` chaos twin catches real divergences.
"""

from __future__ import annotations

from typing import Optional, Tuple, Type

from repro.errors import ConfigurationError
from repro.protection.base import (
    FAULT_KINDS,
    ProtectionBackend,
    fault_kinds_from_errors,
)
from repro.protection.captable import CapTableBackend
from repro.protection.handler import HandlerBackend
from repro.protection.proxy import ProxyBackend

#: stock (bug-free) backend names, reference backend first
BACKEND_NAMES: Tuple[str, ...] = ("proxy", "captable", "handler")

_REGISTRY = {
    ProxyBackend.name: ProxyBackend,
    CapTableBackend.name: CapTableBackend,
    HandlerBackend.name: HandlerBackend,
}


def backend_class(name: str) -> Type[ProtectionBackend]:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown protection backend {name!r}"
            f" (available: {', '.join(sorted(_REGISTRY))})"
        ) from None


def make_backend(spec: "str | ProtectionBackend | None") -> ProtectionBackend:
    """Build a backend from a ``"name"`` or ``"name:bug"`` spec string.

    Passing an existing instance returns it unchanged; ``None`` means
    the default (``proxy``).
    """
    if spec is None:
        return ProxyBackend()
    if isinstance(spec, ProtectionBackend):
        return spec
    name, sep, bug = spec.partition(":")
    return backend_class(name)(bug if sep else None)


__all__ = [
    "BACKEND_NAMES",
    "FAULT_KINDS",
    "CapTableBackend",
    "HandlerBackend",
    "ProtectionBackend",
    "ProxyBackend",
    "backend_class",
    "fault_kinds_from_errors",
    "make_backend",
]
