"""One capture path: no module under ``src/repro`` outside ``repro.snapshot``
imports ``pickle``.

Whole-system capture goes through :func:`repro.snapshot.snapshot` and
:func:`repro.snapshot.restore`, so every blob the system writes carries
the build stamp and every load passes the restricted unpickler.  This
test walks the AST of every source module and fails with the offending
file:line if a ``pickle`` import appears anywhere else.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"
CAPTURE_PACKAGE = SRC_ROOT / "snapshot"


def _pickle_imports(path: Path) -> list:
    """Line numbers of the ``pickle``/``_pickle`` imports in ``path``."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        if any(m.split(".")[0] in ("pickle", "_pickle") for m in modules):
            lines.append(node.lineno)
    return lines


def test_only_the_snapshot_package_imports_pickle():
    # The walker is live: it sees the one import that is allowed.
    assert _pickle_imports(CAPTURE_PACKAGE / "format.py")
    offenders = [
        f"{path.relative_to(SRC_ROOT.parent)}:{line}"
        for path in sorted(SRC_ROOT.rglob("*.py"))
        if CAPTURE_PACKAGE not in path.parents
        for line in _pickle_imports(path)
    ]
    assert not offenders, (
        "capture a graph with repro.snapshot.snapshot/restore, not "
        "pickle:\n  " + "\n  ".join(offenders)
    )
