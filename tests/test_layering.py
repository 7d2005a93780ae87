"""Layering: no ``repro`` subpackage imports another one's private names.

A ``_``-prefixed name is its package's own business; a second package
that reaches for it grows a private copy of a path the owner already
exports (a send plan handle instead of ``Sender.try_send``).  This test
walks the AST of every source module and fails with the offending
file:line and name if a module imports a ``_``-prefixed name from
another top-level ``repro`` subpackage.  A top-level module
(``repro/cluster.py``) is a unit of its own.
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


def _private_imports(module: str, package: str, text: str) -> list:
    """``(line, source, name)`` of every private name ``module`` imports
    from another ``repro`` unit."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = node.module or ""
        if node.level:  # relative: resolve against the package
            base = package.split(".")[: len(package.split(".")) - node.level + 1]
            source = ".".join(base + ([source] if source else []))
        if source.split(".")[0] != "repro" or _unit(source) == _unit(module):
            continue
        found += [
            (node.lineno, source, alias.name)
            for alias in node.names
            if alias.name.startswith("_")
        ]
    return found


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
