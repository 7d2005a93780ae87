"""Layering: no ``repro`` subpackage imports another one's private names,
and no runtime import points up the layer order.

A ``_``-prefixed name is its package's own business; a second package
that reaches for it grows a private copy of a path the owner already
exports (a send plan handle instead of ``Sender.try_send``).  This test
walks the AST of every source module and fails with the offending
file:line and name if a module imports a ``_``-prefixed name from
another top-level ``repro`` subpackage.  A top-level module
(``repro/cluster.py``) is a unit of its own.

It also fails, naming the edge, on any import of a unit above the
importer in :data:`LAYERS`, wherever in the module the import sits.
Imports under ``if TYPE_CHECKING:`` never run, so they may point
anywhere.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def _unit(module: str) -> str:
    """``repro.net.nic`` -> ``net``; ``repro.cluster`` -> ``cluster``."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else ""


def _layer(module: str) -> str:
    """The unit of ``module`` as :data:`LAYERS` names it."""
    return _unit(module) or "repro"


def _module_of(path: Path) -> "tuple[str, str]":
    """The dotted module name of ``path`` and the package it lives in."""
    parts = path.relative_to(SRC_ROOT.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        name = ".".join(parts[:-1])
        return name, name
    return ".".join(parts), ".".join(parts[:-1])


#: every unit, lowest first: a unit imports only the units before it.
#: ``repro`` is the package itself (``repro/__init__.py``), the front
#: door the CLI imports; ``__main__`` runs the CLI.
LAYERS = (
    "errors", "snapshot", "obs", "sim", "params", "mem", "devices", "dma",
    "net", "vm", "protection", "core", "cpu", "kernel", "config", "iommu",
    "machine", "cluster", "userlib", "traffic", "sharding", "chaos", "bench",
    "analysis", "repro", "cli", "__main__",
)


def _type_checking_only(tree: ast.AST) -> set:
    """Every node under an ``if TYPE_CHECKING:`` guard."""
    return {
        id(node)
        for guard in ast.walk(tree)
        if isinstance(guard, ast.If)
        and getattr(guard.test, "id", getattr(guard.test, "attr", None))
        == "TYPE_CHECKING"
        for statement in guard.body
        for node in ast.walk(statement)
    }


def _repro_imports(package: str, text: str, runtime_only: bool = False):
    """``(node, source)`` of every ``repro`` import in ``text``, a relative
    source resolved against ``package``; with ``runtime_only``, not those
    under an ``if TYPE_CHECKING:`` guard."""
    tree = ast.parse(text)
    skip = _type_checking_only(tree) if runtime_only else set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Import):
            sources = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level:  # relative: resolve against the package
                base = package.split(".")[: len(package.split(".")) - node.level + 1]
                source = ".".join(base + ([source] if source else []))
            sources = [source]
        else:
            continue
        for source in sources:
            if source.split(".")[0] == "repro":
                yield node, source


def _private_imports(module: str, package: str, text: str) -> list:
    """``(line, source, name)`` of every private name ``module`` imports
    from another ``repro`` unit."""
    return [
        (node.lineno, source, alias.name)
        for node, source in _repro_imports(package, text)
        if isinstance(node, ast.ImportFrom) and _unit(source) != _unit(module)
        for alias in node.names
        if alias.name.startswith("_")
    ]


def _upward_imports(module: str, package: str, text: str) -> list:
    """``(line, edge)`` of every runtime import of ``module`` that names a
    unit above its own in :data:`LAYERS` (or a unit not in it)."""
    importer = _layer(module)
    below = LAYERS[: LAYERS.index(importer) + 1] if importer in LAYERS else ()
    return [
        (node.lineno, f"{importer} -> {_layer(source)} ({source})")
        for node, source in _repro_imports(package, text, runtime_only=True)
        if _layer(source) not in below
    ]


def test_the_walker_sees_a_private_import():
    # The check is live: cross-package private imports are found, whether
    # absolute or relative; a same-package one and a public one are not.
    planted = (
        "from repro.userlib.udma import _SendPlan\n"
        "from ..userlib import _helper\n"
        "from repro.sharding.spec import _private\n"
        "from .spec import _also_private\n"
        "from repro.userlib.messaging import Sender\n"
    )
    assert _private_imports("repro.sharding.shard", "repro.sharding", planted) == [
        (1, "repro.userlib.udma", "_SendPlan"),
        (2, "repro.userlib", "_helper"),
    ]


def test_no_module_imports_another_packages_private_names():
    offenders = [
        f"{path.relative_to(SRC_ROOT.parent)}:{line}: {name} from {source}"
        for path in sorted(SRC_ROOT.rglob("*.py"))
        for line, source, name in _private_imports(
            *_module_of(path), path.read_text()
        )
    ]
    assert not offenders, (
        "import the owning package's public name instead:\n  "
        + "\n  ".join(offenders)
    )


def test_the_walker_sees_an_upward_import():
    # Found wherever they sit and however they are spelled; a downward,
    # a same-unit and a TYPE_CHECKING import are not.
    planted = (
        "from typing import TYPE_CHECKING\n"
        "from repro.mem.layout import Region\n"
        "from repro.core.controller import UdmaController\n"
        "from .base import ProtectionBackend\n"
        "if TYPE_CHECKING:\n"
        "    from repro.machine import Machine\n"
        "def late():\n"
        "    import repro.cluster\n"
        "    from ..sharding import spec\n"
        "    from repro.nowhere import x\n"
    )
    assert _upward_imports("repro.protection.proxy", "repro.protection", planted) == [
        (3, "protection -> core (repro.core.controller)"),
        (8, "protection -> cluster (repro.cluster)"),
        (9, "protection -> sharding (repro.sharding)"),
        (10, "protection -> nowhere (repro.nowhere)"),
    ]
    # The CLI may import the package's front door; nothing below it may.
    assert _upward_imports("repro.cli", "repro", "from repro import Machine\n") == []
    assert _upward_imports("repro.cluster", "repro", "from repro import Machine\n") == [
        (1, "cluster -> repro (repro)"),
    ]


def test_every_unit_has_a_layer():
    units = {_layer(_module_of(path)[0]) for path in SRC_ROOT.rglob("*.py")}
    assert units == set(LAYERS)


def test_no_import_points_up_the_layer_order():
    offenders = [
        f"{path.relative_to(SRC_ROOT.parent)}:{line}: {edge}"
        for path in sorted(SRC_ROOT.rglob("*.py"))
        for line, edge in _upward_imports(*_module_of(path), path.read_text())
    ]
    assert not offenders, "upward import:\n  " + "\n  ".join(offenders)
