"""Layering: no ``repro`` subpackage imports another one's private names,
and no import points up the layer order.

A ``_``-prefixed name is its package's own business; a second package
that reaches for it grows a private copy of a path the owner already
exports (a send plan handle instead of ``Sender.try_send``).  This test
walks the AST of every source module and fails with the offending
file:line and name if a module imports a ``_``-prefixed name from
another top-level ``repro`` subpackage.  A top-level module
(``repro/cluster.py``) is a unit of its own.

It also fails, naming the edge, on any import along :data:`UPWARD`: a
lower unit importing a higher one (the traffic engine from the sharded
engine, the sharded engine or the chaos world from the bench harness).
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def _unit(module: str) -> str:
    """``repro.net.nic`` -> ``net``; ``repro.cluster`` -> ``cluster``."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else ""


def _module_of(path: Path) -> "tuple[str, str]":
    """The dotted module name of ``path`` and the package it lives in."""
    parts = path.relative_to(SRC_ROOT.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        name = ".".join(parts[:-1])
        return name, name
    return ".".join(parts), ".".join(parts[:-1])


#: (importer, imported) units: each edge points up the layer order
UPWARD = [("traffic", "sharding"), ("sharding", "bench"), ("chaos", "bench")]


def _repro_imports(package: str, text: str):
    """``(node, source)`` of every ``from X import ...`` in ``text``, its
    relative source resolved against ``package``."""
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = node.module or ""
        if node.level:  # relative: resolve against the package
            base = package.split(".")[: len(package.split(".")) - node.level + 1]
            source = ".".join(base + ([source] if source else []))
        if source.split(".")[0] == "repro":
            yield node, source


def _private_imports(module: str, package: str, text: str) -> list:
    """``(line, source, name)`` of every private name ``module`` imports
    from another ``repro`` unit."""
    return [
        (node.lineno, source, alias.name)
        for node, source in _repro_imports(package, text)
        if _unit(source) != _unit(module)
        for alias in node.names
        if alias.name.startswith("_")
    ]


def _upward_imports(module: str, package: str, text: str) -> list:
    """``(line, edge)`` of every import of ``module`` along :data:`UPWARD`."""
    return [
        (node.lineno, f"{_unit(module)} -> {_unit(source)} ({source})")
        for node, source in _repro_imports(package, text)
        if (_unit(module), _unit(source)) in UPWARD
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
    planted = (
        "from repro.sharding.spec import ClusterSpec\n"
        "from repro.bench.workloads import make_payload\n"
        "from repro.params import RETRY_GAP_CYCLES\n"
    )
    assert _upward_imports("repro.traffic.engine", "repro.traffic", planted) == [
        (1, "traffic -> sharding (repro.sharding.spec)"),
    ]
    assert _upward_imports("repro.chaos.world", "repro.chaos", planted) == [
        (2, "chaos -> bench (repro.bench.workloads)"),
    ]
    assert _upward_imports("repro.sharding.shard", "repro.sharding", planted) == [
        (2, "sharding -> bench (repro.bench.workloads)"),
    ]


def test_no_import_points_up_the_layer_order():
    offenders = [
        f"{path.relative_to(SRC_ROOT.parent)}:{line}: {edge}"
        for path in sorted(SRC_ROOT.rglob("*.py"))
        for line, edge in _upward_imports(*_module_of(path), path.read_text())
    ]
    assert not offenders, "upward import:\n  " + "\n  ".join(offenders)
