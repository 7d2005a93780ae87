"""Post-hoc analysis over counters."""

from repro.analysis.metrics import render

__all__ = ["render"]
