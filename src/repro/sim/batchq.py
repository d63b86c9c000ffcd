"""Compatibility name for the one event queue.

The serving DES runs on :class:`repro.sim.engine.Simulator`.  The
benchmark harness (``perfbench/workloads.py``, ``perfbench/layers.py``)
still imports ``BatchSimulator`` from here, so the name stays as an
alias of the heap engine.
"""

from repro.sim.engine import Simulator

BatchSimulator = Simulator
