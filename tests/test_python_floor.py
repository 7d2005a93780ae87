"""The declared Python floor is honest: every ``src/`` module parses
under the grammar of the oldest version ``pyproject.toml`` admits.

``ast.parse(..., feature_version=...)`` rejects syntax newer than the
floor (``match``, ``except*``, PEP 695 generics...).  Library features
that are not syntax -- ``@dataclass(slots=True)`` needs 3.10 -- are the
reason the floor is what it is; keep them in mind when lowering it.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def python_floor() -> "tuple[int, int]":
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.M)
    assert match, "pyproject.toml must declare requires-python = \">=X.Y\""
    return int(match.group(1)), int(match.group(2))


def test_floor_admits_slotted_dataclasses():
    """``@dataclass(slots=True)`` (``Packet``, ``LoadResult``) is 3.10+."""
    users = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if "dataclass(slots=True)" in path.read_text(encoding="utf-8")
    ]
    assert users
    assert python_floor() >= (3, 10), users


@pytest.mark.parametrize(
    "path",
    sorted(SRC.rglob("*.py")),
    ids=lambda p: str(p.relative_to(SRC)),
)
def test_module_parses_at_the_floor(path):
    source = path.read_text(encoding="utf-8")
    ast.parse(source, filename=str(path), feature_version=python_floor())
