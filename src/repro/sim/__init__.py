"""Discrete-event simulation kernel.

A small, dependency-free SimPy-style engine: an event queue ordered by
simulated time (nanoseconds), coroutine *processes* that ``yield`` events,
and the few resources the verbs need (a FIFO-granted counted resource,
an unbounded store, bandwidth channels) plus a sample histogram.

Example
-------
>>> from repro.sim import Simulator
>>> sim = Simulator()
>>> log = []
>>> def worker(sim, name):
...     yield sim.timeout(10)
...     log.append((sim.now, name))
>>> _ = sim.process(worker(sim, "a"))
>>> _ = sim.process(worker(sim, "b"))
>>> sim.run()
>>> log
[(10.0, 'a'), (10.0, 'b')]
"""

from repro.sim.engine import Simulator
from repro.sim.errors import SimulationError
from repro.sim.events import Event, Timeout, AllOf, AnyOf, URGENT, NORMAL
from repro.sim.process import Process
from repro.sim.resources import Resource, Store
from repro.sim.links import SimplexChannel, DuplexChannel, LOST
from repro.sim.monitor import Histogram
from repro.sim.rng import RandomStreams

__all__ = [
    "Simulator",
    "SimulationError",
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "URGENT",
    "NORMAL",
    "Process",
    "Resource",
    "Store",
    "SimplexChannel",
    "DuplexChannel",
    "LOST",
    "Histogram",
    "RandomStreams",
]
