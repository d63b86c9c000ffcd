"""Array namespaces: one analytic model, two evaluation shapes.

The closed-form models the solvers price flows with — the demand
builder (:mod:`repro.core.demand`), the Table-3 packet counts
(:mod:`repro.core.packets`), the memory capacity and latency queries
(:mod:`repro.hw.memory`) and the requester posting rates
(:class:`~repro.net.topology.Testbed`) — are written once against a
namespace ``xp`` offering ``ceil``, ``maximum``, ``minimum``, ``where``
and ``any``, plus ``terms()``, a sink that adds one resource term at a
time.  The caller's input picks it (:func:`namespace_of`):

* :data:`SCALAR` evaluates Python numbers, one flow at a time.
  ``ceil`` is :func:`math.ceil` (so packet counts stay ``int``), and
  the sink drops terms <= 0, so a demand dict only names the resources
  a flow actually uses.
* :class:`NumpyNamespace` evaluates numpy arrays elementwise, a group
  of same-shaped flows at a time, for the batch solver.  Its sink keeps
  zeros: a zero column entry is an absent resource.

Both evaluate the same IEEE-754 operations in the same order, so a
scalar demand dict and the matching column entries are bitwise equal.
``where`` evaluates both branches under either namespace, so a branch
that divides by a payload divides by ``where(payload > 0, payload, 1)``.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache


class DemandTerms(dict):
    """Scalar sink: resource key -> ns per request, positive terms only."""

    def add(self, key: str, value: float) -> None:
        if value > 0:
            self[key] = self.get(key, 0.0) + value


class ColumnTerms(dict):
    """Array sink: resource key -> demand column over a group of flows."""

    def add(self, key: str, value) -> None:
        self[key] = self[key] + value if key in self else value


class ScalarNamespace:
    """Python numbers: ``math.ceil``, builtin ``max``/``min``/``bool``."""

    ceil = staticmethod(math.ceil)
    maximum = staticmethod(max)
    minimum = staticmethod(min)
    any = staticmethod(bool)
    terms = DemandTerms

    @staticmethod
    def where(cond, a, b):
        return a if cond else b


class NumpyNamespace:
    """The ``np.*`` functions, elementwise over float64 arrays."""

    terms = ColumnTerms

    def __init__(self, np):
        self.ceil = np.ceil
        self.maximum = np.maximum
        self.minimum = np.minimum
        self.where = np.where
        self.any = np.ndarray.any  # every input here is an array


#: The namespace of Python numbers.
SCALAR = ScalarNamespace()


@lru_cache(maxsize=None)
def _numpy_namespace(np) -> NumpyNamespace:
    return NumpyNamespace(np)


def namespace_of(x):
    """The namespace that evaluates ``x``: numpy's for an array, else
    :data:`SCALAR`.  Without numpy imported there are no arrays."""
    np = sys.modules.get("numpy")
    if np is not None and isinstance(x, np.ndarray):
        return _numpy_namespace(np)
    return SCALAR


def bandwidth_capped(rate, bandwidth: float, payload):
    """``min(rate, bandwidth / payload)``, or ``rate`` for 0-byte payloads."""
    xp = namespace_of(payload)
    live = payload > 0
    safe_payload = xp.where(live, payload, 1)
    return xp.where(live, xp.minimum(rate, bandwidth / safe_payload), rate)
