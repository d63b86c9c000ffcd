"""Stochastic user populations: open-loop traffic from user counts.

Rack-scale scenarios (:mod:`repro.cluster`) describe traffic the way a
capacity planner does — *how many users* and *how often each one asks*
— instead of hand-writing hundreds of tenant specs.  A
:class:`PopulationSpec` is one cohort: ``tenants`` tenant streams, each
with an **active-user count** and a **requests/min/user rate** drawn
from configured random variables (:class:`RandomVar`, fixed / normal /
Poisson).  :func:`sample_population` expands cohorts into concrete
:class:`~repro.sched.tenant.TenantSpec` streams whose open-loop
interval is ``60e9 / (users × req_per_min)`` ns.

Sampling is **seeded and pure**: every draw comes from a
``random.Random`` keyed by a SHA-256 of ``(seed, cohort, index)`` —
never Python's salted string hashing, never a shared stateful RNG — so
the same ``(populations, seed, duration)`` triple expands to the same
tenants in every process.  That purity is what lets cluster runs stay
bit-identical across ``jobs={1,N}``.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.units import GB
from repro.workloads.mix import OpMix

_DISTS = ("fixed", "normal", "poisson")

#: One simulated minute, in the simulator's nanosecond clock.
_MINUTE_NS = 60e9


def _rng(seed: int, *key) -> random.Random:
    """A ``random.Random`` keyed by a pure hash of its identity.

    ``random.Random(str)`` would go through Python's per-process salted
    string hash; SHA-256 keeps cohort draws identical across worker
    processes (the same discipline as
    :func:`repro.faults.cluster._unit`).
    """
    data = "|".join(str(part) for part in (seed,) + key).encode()
    digest = hashlib.sha256(data).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _poisson(rng: random.Random, lam: float) -> int:
    """Poisson draw: Knuth's product method, normal approximation for
    large means (stdlib only — no numpy dependency)."""
    if lam <= 0:
        return 0
    if lam > 30.0:
        return max(0, int(round(rng.gauss(lam, math.sqrt(lam)))))
    limit = math.exp(-lam)
    k, p = 0, 1.0
    while True:
        p *= rng.random()
        if p <= limit:
            return k
        k += 1


@dataclass(frozen=True)
class RandomVar:
    """One configured random variable (``fixed``/``normal``/``poisson``).

    ``std`` applies to ``normal`` only; ``lo``/``hi`` clamp every draw
    (so a normal user count cannot go negative).
    """

    dist: str
    mean: float
    std: float = 0.0
    lo: Optional[float] = None
    hi: Optional[float] = None

    def __post_init__(self):
        if self.dist not in _DISTS:
            raise ValueError(f"unknown distribution {self.dist!r}; "
                             f"expected one of {_DISTS}")
        if self.mean < 0:
            raise ValueError(f"mean must be >= 0: {self.mean}")
        if self.std < 0:
            raise ValueError(f"std must be >= 0: {self.std}")
        if (self.lo is not None and self.hi is not None
                and self.lo > self.hi):
            raise ValueError(f"empty clamp range [{self.lo}, {self.hi}]")

    @classmethod
    def fixed(cls, value: float) -> "RandomVar":
        return cls(dist="fixed", mean=value)

    #: A bare JSON number decodes as a fixed variable (:mod:`repro.codec`).
    from_number = fixed

    def sample(self, rng: random.Random) -> float:
        if self.dist == "fixed":
            value = self.mean
        elif self.dist == "normal":
            value = rng.gauss(self.mean, self.std)
        else:
            value = float(_poisson(rng, self.mean))
        if self.lo is not None:
            value = max(self.lo, value)
        if self.hi is not None:
            value = min(self.hi, value)
        return value


@dataclass(frozen=True)
class PopulationSpec:
    """One traffic cohort: N tenants of users × requests/min/user.

    Each of the ``tenants`` streams draws its own user count and
    per-user rate, so a cohort produces *heterogeneous* tenants — some
    over-, some under-provisioned relative to the mean — which is
    exactly what makes cluster placement interesting.
    """

    name: str
    tenants: int
    active_users: RandomVar
    req_per_min: RandomVar
    payload: int = 512
    read_fraction: float = 1.0
    bulk: bool = False
    slo_p99_ns: float = 50_000.0
    working_set_bytes: float = 1 * GB
    hot_range_bytes: Optional[float] = None
    workers: int = 4
    queue_limit: int = 32

    def __post_init__(self):
        if not self.name:
            raise ValueError("cohort needs a name")
        if self.tenants < 1:
            raise ValueError(f"cohort {self.name!r} needs >= 1 tenant: "
                             f"{self.tenants}")
        # Build one tenant of the cohort's shape, so a shape no tenant
        # could have (no workers, a read fraction above 1) is refused
        # here, where a document names the cohort, not at sampling.
        tenant_spec(self, name=self.name, interval_ns=1.0, requests=1,
                    seed=0, ingress_ns=0.0)


@dataclass(frozen=True)
class PopulationSample:
    """The expanded population: concrete tenants plus who they stand for."""

    tenants: Tuple[TenantSpec, ...]
    users: Dict[str, int] = field(default_factory=dict)

    @property
    def total_users(self) -> int:
        return sum(self.users.values())

    @property
    def offered_rps(self) -> float:
        """Aggregate open-loop request rate, requests per second."""
        return sum(1e9 / t.interval_ns for t in self.tenants)


def sample_population(populations: Sequence[PopulationSpec], seed: int,
                      duration_ns: float,
                      ingress_ns: float = 0.0) -> PopulationSample:
    """Expand cohorts into seeded, concrete tenant streams.

    Each tenant's open-loop interval is ``60e9 / (users × req/min)``;
    its request count spans ``duration_ns``.  ``ingress_ns`` is the
    round-trip load-balancer overhead folded into every non-bulk
    request's recorded latency (bulk tenants originate inside the
    machine and never cross the LB tier).
    """
    if duration_ns <= 0:
        raise ValueError(f"duration must be positive: {duration_ns}")
    names = [p.name for p in populations]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate cohort names: {names}")
    tenants = []
    users: Dict[str, int] = {}
    for spec in populations:
        for i in range(spec.tenants):
            rng = _rng(seed, spec.name, i)
            n_users = max(1, int(round(spec.active_users.sample(rng))))
            req_per_min = max(1e-9, spec.req_per_min.sample(rng))
            interval_ns = max(1.0, _MINUTE_NS / (n_users * req_per_min))
            name = f"{spec.name}{i:03d}"
            tenants.append(tenant_spec(
                spec, name=name, interval_ns=interval_ns,
                requests=max(1, int(duration_ns / interval_ns)),
                seed=rng.randrange(2 ** 31), ingress_ns=ingress_ns))
            users[name] = n_users
    return PopulationSample(tenants=tuple(tenants), users=users)


def tenant_spec(shape, *, name: str, interval_ns: float, requests: int,
                seed: int, ingress_ns: float,
                send_fraction: float = 0.0) -> TenantSpec:
    """The :class:`~repro.sched.tenant.TenantSpec` of one stream whose
    shape — payload, read fraction, bulk flag, SLO, working set, hot
    range, workers, queue limit — comes from the document ``shape`` (a
    :class:`PopulationSpec` or an explicit tenant's doc).

    ``send_fraction`` of the requests are two-sided; the rest split
    into reads and writes by ``shape.read_fraction``.  Bulk tenants
    originate inside the machine, so they never pay ``ingress_ns``.
    """
    # Lazy: repro.sched.tenant imports OpMix back from this package, so
    # a module-level import here would close an import cycle.
    from repro.sched.tenant import SloSpec, TenantSpec

    if not 0.0 <= shape.read_fraction <= 1.0:
        raise ValueError(f"read fraction must be in [0, 1]: "
                         f"{shape.read_fraction}")
    one_sided = max(0.0, 1.0 - send_fraction)
    return TenantSpec(
        name=name, payload=shape.payload, interval_ns=interval_ns,
        requests=requests,
        mix=OpMix(read=one_sided * shape.read_fraction,
                  write=one_sided * (1.0 - shape.read_fraction),
                  send=send_fraction),
        slo=SloSpec(p99_ns=shape.slo_p99_ns), bulk=shape.bulk,
        hot_range_bytes=shape.hot_range_bytes,
        working_set_bytes=shape.working_set_bytes, workers=shape.workers,
        queue_limit=shape.queue_limit, seed=seed,
        ingress_ns=0.0 if shape.bulk else ingress_ns)
