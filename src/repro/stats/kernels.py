"""Statistical kernels: Student-t intervals, batch means, quantiles.

Everything the validation layer estimates funnels through this module,
so the numerics live in exactly one place and carry their own tests
(``tests/stats/test_kernels.py`` checks the t quantiles against known
table values and the estimators against synthetic streams with known
means).  Pure stdlib — no scipy, no numpy — because the toolkit's only
hard dependency is CPython.

The central type is :class:`Estimate`: a ``(mean, half_width)`` pair
with its sample size attached, every interval quoted at the one level
:data:`CONFIDENCE`.  APIs that used to return a bare point now return
(or are paired with) an ``Estimate`` so headline numbers ship with
their uncertainty instead of as single-run points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "CONFIDENCE",
    "Estimate",
    "batch_means",
    "mean_estimate",
    "normal_ppf",
    "quantile",
    "student_t_cdf",
    "student_t_ppf",
]

#: The one confidence level every interval in the toolkit is quoted at.
CONFIDENCE = 0.95


# ---------------------------------------------------------------------------
# Student-t quantiles (regularized incomplete beta + bisection)
# ---------------------------------------------------------------------------


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function."""
    tiny = 1e-30
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 200):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 3e-12:
            break
    return h


def _betai(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log(1.0 - x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_cdf(t: float, df: float) -> float:
    """P(T <= t) for Student's t with ``df`` degrees of freedom."""
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive: {df}")
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    tail = 0.5 * _betai(df / 2.0, 0.5, x)
    return 1.0 - tail if t > 0 else tail


def normal_ppf(p: float) -> float:
    """Inverse standard-normal CDF (Acklam's rational approximation)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1): {p}")
    a = (-3.969683028665376e+01, 2.209460984245205e+02,
         -2.759285104469687e+02, 1.383577518672690e+02,
         -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02,
         -1.556989798598866e+02, 6.680131188771972e+01,
         -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01,
         -2.400758277161838e+00, -2.549732539343734e+00,
         4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01,
         2.445134137142996e+00, 3.754408661907416e+00)
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return ((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4])
                 * q + c[5])
                / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0))
    if p > 1.0 - p_low:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4])
                  * q + c[5])
                 / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0))
    q = p - 0.5
    r = q * q
    return ((((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4])
             * r + a[5]) * q
            / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4])
               * r + 1.0))


def student_t_ppf(p: float, df: float) -> float:
    """Inverse Student-t CDF, by bisection on :func:`student_t_cdf`.

    Above ~200 degrees of freedom the t distribution is
    indistinguishable from the normal at the precision the reports
    quote, so the normal quantile is returned directly.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1): {p}")
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive: {df}")
    if df > 200:
        return normal_ppf(p)
    if p == 0.5:
        return 0.0
    # Bracket around the normal quantile, widened for fat t tails.
    hi = max(1.0, abs(normal_ppf(p))) * 2.0
    while student_t_cdf(hi, df) < max(p, 1.0 - p):
        hi *= 2.0
        if hi > 1e9:  # pragma: no cover - defensive
            break
    lo = -hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if student_t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Estimate:
    """A mean with its confidence half-width — never a bare point.

    ``half_width`` is ``inf`` when one sample cannot bound the mean
    (n < 2), and exactly ``0.0`` for degenerate (deterministic)
    replicates, which is how the verification report proves a quantity
    is seed-invariant.
    """

    mean: float
    half_width: float
    n: int
    sd: float = 0.0

    @property
    def lo(self) -> float:
        return self.mean - self.half_width

    @property
    def hi(self) -> float:
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def overlaps(self, other: "Estimate") -> bool:
        """True when the two confidence intervals intersect."""
        return self.lo <= other.hi and other.lo <= self.hi

    def rel_half_width(self) -> float:
        """Half-width as a fraction of the mean (inf for mean 0)."""
        if self.mean == 0.0:
            return 0.0 if self.half_width == 0.0 else float("inf")
        return abs(self.half_width / self.mean)

    def fmt(self, unit: str = "", precision: int = 1) -> str:
        hw = ("inf" if math.isinf(self.half_width)
              else f"{self.half_width:.{precision}f}")
        text = f"{self.mean:.{precision}f} ± {hw}"
        return f"{text} {unit}".rstrip()


def mean_estimate(values: Sequence[float]) -> Estimate:
    """Sample mean with a Student-t :data:`CONFIDENCE` interval.

    For independent replicates (cross-seed replication, batch means)
    this is the textbook ``x̄ ± t_{1-α/2, n-1} · s/√n``.  A single
    value yields an infinite half-width — one run bounds nothing,
    which is the whole point of the validation layer.
    """
    values = list(values)
    if not values:
        raise ValueError("cannot estimate from an empty sample")
    n = len(values)
    mean = math.fsum(values) / n
    if n < 2:
        return Estimate(mean=mean, half_width=float("inf"), n=n)
    if all(v == values[0] for v in values):
        # Identical replicates get an *exactly* zero width — the
        # seed-invariance signature must not be blurred by the
        # round-off of mean subtraction at large magnitudes.
        return Estimate(mean=values[0], half_width=0.0, n=n)
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    sd = math.sqrt(max(var, 0.0))
    t = student_t_ppf(0.5 + CONFIDENCE / 2.0, n - 1)
    return Estimate(mean=mean, half_width=t * sd / math.sqrt(n), n=n,
                    sd=sd)


def batch_means(series: Sequence[float], batches: int = 10) -> Estimate:
    """Batch-means confidence interval over one (warm) time series.

    The series is cut into ``batches`` contiguous batches of equal
    size (a short remainder at the *front* is dropped — the residually
    least-steady side), and the batch means are treated as approximate
    i.i.d. replicates.  With fewer than ``2 * batches`` points the
    batch count degrades gracefully down to 2.
    """
    series = list(series)
    if not series:
        raise ValueError("cannot batch an empty series")
    if batches < 2:
        raise ValueError(f"need at least 2 batches: {batches}")
    n = len(series)
    batches = min(batches, max(2, n // 2)) if n >= 4 else 2
    size = n // batches
    if size == 0:
        return mean_estimate(series)
    trimmed = series[n - size * batches:]
    means = [math.fsum(trimmed[i * size:(i + 1) * size]) / size
             for i in range(batches)]
    return mean_estimate(means)


def quantile(values: Sequence[float], q: float) -> float:
    """Order-statistic quantile, matching the serving layer's pick.

    ``sorted(values)[min(n - 1, int(q * n))]`` — the same convention
    :class:`~repro.sched.serve.TenantReport` uses for p99, so the
    validation layer's quantiles agree bit-for-bit with the report's.
    """
    if not values:
        raise ValueError("cannot take a quantile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1]: {q}")
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]

