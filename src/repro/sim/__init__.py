"""Discrete-event simulation substrate: the cycle clock."""

from repro.sim.clock import Clock, Event

__all__ = ["Clock", "Event"]
