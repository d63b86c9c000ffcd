"""Exception types raised by the simulation kernel."""

from __future__ import annotations


class SimulationError(RuntimeError):
    """Base class for kernel misuse (double-trigger, bad yield, ...)."""
