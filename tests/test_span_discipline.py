"""Span-discipline lint: every span call in ``src/repro`` is guarded.

Span tracing must cost one attribute load per call site when it is off:
components hold ``self._spans = None`` until a machine wires a tracker,
and every ``<spans>.begin/event/finish(...)`` call sits in the body of an
``if`` whose test mentions a span (``if self._spans is not None:``), so
an unobserved run never builds the call's arguments.  A call may also
live in a ``_span_*`` helper, provided every call site of such a helper
is guarded the same way (or is itself inside a ``_span_*`` helper).
This test walks the AST of every source module and fails with the
offending file:line if an unguarded call sneaks in.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

#: the tracker methods that record something
SPAN_METHODS = {"begin", "event", "finish"}
HELPER_PREFIX = "_span_"


def _name(node: ast.AST) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _mentions_span(node: ast.AST) -> bool:
    return any("span" in _name(sub).lower() for sub in ast.walk(node))


def _guard(node: ast.AST) -> "tuple[bool, str]":
    """Whether ``node`` sits in the body of a span-testing ``if`` within
    its function, and that function's name."""
    child, parent = node, getattr(node, "_parent", None)
    while parent is not None:
        if (
            isinstance(parent, ast.If)
            and any(child is stmt for stmt in parent.body)
            and _mentions_span(parent.test)
        ):
            return True, ""
        if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return False, parent.name
        child, parent = parent, getattr(parent, "_parent", None)
    return False, ""


def _unguarded_calls(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            child._parent = parent  # type: ignore[attr-defined]
    try:
        shown = path.relative_to(SRC_ROOT.parent)
    except ValueError:
        shown = path
    offenders = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        span_call = (
            isinstance(func, ast.Attribute)
            and func.attr in SPAN_METHODS
            and "span" in _name(func.value).lower()
        )
        helper_call = _name(func).startswith(HELPER_PREFIX)
        if not (span_call or helper_call):
            continue
        guarded, function = _guard(node)
        # Inside a helper, a call is covered by the helper's own
        # (checked) call sites.
        if not guarded and not function.startswith(HELPER_PREFIX):
            offenders.append(f"{shown}:{node.lineno}")
    return offenders


def test_every_span_call_is_guarded():
    assert SRC_ROOT.is_dir(), SRC_ROOT
    offenders = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        offenders.extend(_unguarded_calls(path))
    assert not offenders, (
        "span calls (or _span_* helper calls) missing an "
        "`if ...span... is not None:` guard (span tracing must stay "
        "free when off):\n  " + "\n  ".join(offenders)
    )


def test_lint_actually_detects_unguarded_span_calls(tmp_path):
    """The lint is live: unguarded calls in a scratch module are caught."""
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def f(self):\n"
        "    self._spans.event(self._span, 'x')\n"
        "    if self._spans is not None:\n"
        "        self._spans.finish(self._span)\n"
        "        self._span_close()\n"
        "    else:\n"
        "        self._spans.begin('y')\n"
        "    self._span_close()\n"
        "def _span_close(self):\n"
        "    self._spans.finish(self._span)\n"
    )
    offenders = _unguarded_calls(bad)
    assert sorted(int(o.rsplit(":", 1)[1]) for o in offenders) == [2, 7, 8]
