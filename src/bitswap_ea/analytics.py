"""Closed-form transition probabilities and runtime bounds for the swap engine.

Positions are chosen uniformly in each parent, so a pair type's success
probability is a product of marginal bit frequencies. ``k`` is the current
best fitness level, ``n`` the genome length. The four pair channels:

* ``phi1``: best-level parent with a next-level parent; the next-level
  offspring reaches ``k`` (pick a 1 in the better parent, a 0 slot in the
  other).
* ``phi2``: two next-level parents; either offspring reaches ``k``.
* ``phi3``: best-level parent with a lower-level parent; the better offspring
  keeps fitness ``k`` (swap equal bit values in both directions).
* ``phi4``: next-level parent with a lower-level parent; the next-level
  offspring reaches ``k``.

Lower-level parents are modeled at fitness ``k - 2``, so ``phi3`` and
``phi4`` are only defined for ``k >= 2``.

Event probabilities multiply these by selection factors and the pair budget
``lambda / 2``. They are first-order union bounds: linear in ``lambda``, and
guaranteed to lie in [0, 1] only in the modeled regime (small ``lambda``, or
few next-level members); see ``event_probs``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def phi1(k: int, n: int) -> float:
    _check_level(k, n)
    return k * (n - k + 1) / (n * n)


def phi2(k: int, n: int) -> float:
    _check_level(k, n)
    return 2 * (k - 1) * (n - k + 1) / (n * n)


def phi3(k: int, n: int) -> float:
    _check_level(k, n, lo=2)
    return (k * (k - 2) + (n - k) * (n - k + 2)) / (n * n)


def phi4(k: int, n: int) -> float:
    _check_level(k, n, lo=2)
    return (n - k + 1) * (k - 2) / (n * n)


def _check_level(k: int, n: int, lo: int = 1) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not lo <= k <= n:
        raise ValueError(f"level k={k} outside [{lo}, {n}] for n={n}")


@dataclass(frozen=True, slots=True)
class EventProbabilities:
    """Per-generation success probabilities for the four pair channels."""

    p_e1: float
    p_e2: float
    p_e3: float
    p_e4: float

    @property
    def s(self) -> float:
        return self.p_e1 + self.p_e2 + self.p_e3 + self.p_e4


def event_probs(
    alpha: int, beta1: int, mu: int, lam: int, k: int, n: int
) -> EventProbabilities:
    """First-order probabilities that one more best-level member appears.

    A channel's swap probability is evaluated only when its selection factor
    is nonzero, so level configurations whose impossible channels are already
    suppressed by the population counts are accepted at any ``k``.
    """
    if mu < 1:
        raise ValueError(f"mu must be >= 1, got {mu}")
    if not 1 <= alpha <= mu:
        raise ValueError(f"alpha must be in [1, mu], got {alpha}")
    if beta1 < 0 or alpha + beta1 > mu:
        raise ValueError(f"need beta1 >= 0 and alpha + beta1 <= mu, got {beta1}")
    if lam < 2 or lam % 2 != 0:
        raise ValueError(f"lambda must be even and >= 2, got {lam}")
    _check_level(k, n)

    pairs = lam / 2
    a = alpha / mu
    b = beta1 / mu
    rest = 1 - (alpha + beta1) / mu

    sel1 = a * b * (1 - a)
    sel2 = (b * (1 - a)) ** 2
    sel3 = a * rest * rest
    sel4 = b * (1 - a) * rest * rest

    p1 = 2 * pairs * phi1(k, n) * sel1 if sel1 > 0 else 0.0
    p2 = pairs * phi2(k, n) * sel2 if sel2 > 0 else 0.0
    p3 = 2 * pairs * sel3 * phi3(k, n) if sel3 > 0 else 0.0
    p4 = 2 * pairs * sel4 * phi4(k, n) if sel4 > 0 else 0.0
    return EventProbabilities(p1, p2, p3, p4)


# --- special functions -------------------------------------------------

_SHIFT = 16.0


def harmonic(m: int) -> float:
    """H(m), correctly rounded by ``math.fsum``."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    return math.fsum(1.0 / j for j in range(1, m + 1))


def _polygamma(x: float, coef: float, power: int, tail) -> float:
    """The recurrence of ``digamma``, ``trigamma`` and ``tetragamma``, x > 0:
    ``coef / x**power`` per shift of ``x`` up to ``_SHIFT`` (±inf if ``x**power``
    underflows to 0), then ``tail(x, 1 / x**2)``, the asymptotic series at the
    shifted ``x``, all by ``math.fsum``; absolute error below 1e-10 when tested."""
    if not x > 0:
        raise ValueError(f"argument must be > 0, got {x}")
    terms = []
    while x < _SHIFT:
        den = math.prod((x,) * power)
        terms.append(coef / den if den else math.copysign(math.inf, coef))
        x += 1.0
    return math.fsum(terms + tail(x, 1.0 / (x * x)))


def digamma(x: float) -> float:
    """Digamma for x > 0, as are ``trigamma`` and ``tetragamma`` below."""
    def tail(x: float, r: float) -> list[float]:
        series = r * (
            1 / 12 - r * (1 / 120 - r * (1 / 252 - r * (1 / 240 - r * (1 / 132 - r * 691 / 32760))))
        )
        return [math.log(x), -0.5 / x, -series]
    return _polygamma(x, -1.0, 1, tail)


def trigamma(x: float) -> float:
    def tail(x: float, r: float) -> list[float]:
        series = r * (
            1 / 6 - r * (1 / 30 - r * (1 / 42 - r * (1 / 30 - r * (5 / 66 - r * 691 / 2730))))
        )
        return [1.0 / x, 0.5 * r, series / x]
    return _polygamma(x, 1.0, 2, tail)


def tetragamma(x: float) -> float:
    """Second derivative of the digamma function."""
    def tail(x: float, r: float) -> list[float]:
        series = r * r * (
            -1 / 2 + r * (1 / 6 - r * (1 / 6 - r * (3 / 10 - r * (5 / 6 - r * 8983 / 2730))))
        )
        return [-r, -r / x, series]
    return _polygamma(x, -2.0, 3, tail)


# --- level sums ---------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PolynomialLevelSum:
    """Sum over integer levels of a reciprocal polynomial.

    ``value`` is the direct summation; ``closed_form`` is set only when the
    polynomial matches a pure power pattern (perfect square or cube) with a
    shift inside the polygamma domain.
    """

    value: float
    closed_form: float | None = None


_PATTERN_TOL = 1e-10


def quadratic_level_sum(b0: float, b1: float, m: int) -> PolynomialLevelSum:
    """Sum of 1/(a^2 + b1*a + b0) for a = 1..m.

    When b1^2 = 4*b0 the polynomial is (a + r)^2 with r = b1/2 and the
    telescoped trigamma form is returned alongside.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    q = lambda a: a * a + b1 * a + b0
    if m >= 1:
        _require_positive(q, 1.0, float(m), critical=[-b1 / 2])
    value = math.fsum(1.0 / q(a) for a in range(1, m + 1))

    closed = None
    scale = max(1.0, b1 * b1, abs(b0))
    r = b1 / 2
    if abs(b1 * b1 - 4 * b0) <= _PATTERN_TOL * scale and r > -1:
        closed = trigamma(r + 1) - trigamma(r + m + 1)
    return PolynomialLevelSum(value, closed)


def cubic_level_sum(b0p: float, b1p: float, b2p: float, m: int) -> PolynomialLevelSum:
    """Sum of 1/(a^3 + b2p*a^2 + b1p*a + b0p) for a = 1..m.

    When the cubic is (a + rho)^3 the closed form
    (tetragamma(rho+m+1) - tetragamma(rho+1)) / 2 is returned alongside.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    c = lambda a: a * a * a + b2p * a * a + b1p * a + b0p
    if m >= 1:
        crit = []
        disc = 4 * b2p * b2p - 12 * b1p
        if disc >= 0:
            root = math.sqrt(disc)
            crit = [(-2 * b2p - root) / 6, (-2 * b2p + root) / 6]
        _require_positive(c, 1.0, float(m), critical=crit)
    value = math.fsum(1.0 / c(a) for a in range(1, m + 1))

    closed = None
    rho = b2p / 3
    scale = max(1.0, abs(b2p) ** 2, abs(b1p), abs(b0p))
    if (
        abs(b1p - 3 * rho * rho) <= _PATTERN_TOL * scale
        and abs(b0p - rho**3) <= _PATTERN_TOL * scale
        and rho > -1
    ):
        closed = (tetragamma(rho + m + 1) - tetragamma(rho + 1)) / 2
    return PolynomialLevelSum(value, closed)


def _require_positive(poly, lo: float, hi: float, critical: list[float]) -> None:
    points = [lo, hi] + [t for t in critical if lo < t < hi]
    for t in points:
        if not poly(t) > 0:
            raise ValueError(
                f"polynomial not positive on [{lo:g}, {hi:g}] (value {poly(t):g} at {t:g})"
            )


def quadratic_levelsum_coefficients(mu: int, k: int, n: int) -> tuple[float, float]:
    """Reduce the two-channel success sum to quadratic coefficients (b0, b1).

    Valid as level-sum inputs only where the resulting polynomial stays
    positive; the sign of the shared denominator phi2 - 2*mu*phi1 flips it
    negative for most parameters, which is reported rather than repaired.
    """
    den = phi2(k, n) - 2 * mu * phi1(k, n)
    if den == 0:
        raise ValueError("coefficient denominator vanished")
    b0 = mu * mu * phi2(k, n) / den
    b1 = 2 * mu * (mu * phi1(k, n) - phi2(k, n)) / den
    return b0, b1


def cubic_levelsum_coefficients(mu: int, k: int, n: int) -> tuple[float, float, float]:
    """Reduce the four-channel success sum to cubic coefficients (b0p, b1p, b2p)."""
    f1, f2 = phi1(k, n), phi2(k, n)
    f3, f4 = phi3(k, n), phi4(k, n)
    b3 = 2 * (mu * f3 - f4)
    if b3 == 0:
        raise ValueError("coefficient denominator vanished")
    b0 = mu * mu * (2 * mu * f4 + f2)
    b1 = 2 * mu * (mu * f1 + mu * mu * f3 - 3 * mu * f4 - f2)
    b2 = f2 - 4 * mu * mu * f3 - 2 * mu * f1 - 6 * mu * f4
    return b0 / b3, b1 / b3, b2 / b3


# --- runtime bounds ------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BoundParams:
    """Parameters of the runtime bounds.

    ``delta`` is the elite-fraction target; the bounds are derived for
    ``delta * mu >= 1`` but smaller values are accepted since they only scale
    the closed forms.
    """

    mu: int
    lam: int
    n: int
    delta: float

    def __post_init__(self) -> None:
        if self.mu < 1:
            raise ValueError(f"mu must be >= 1, got {self.mu}")
        if self.lam < 2 or self.lam % 2 != 0:
            raise ValueError(f"lambda must be even and >= 2, got {self.lam}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")

    @classmethod
    def constant_elite_fraction(
        cls, mu: int, lam: int, n: int, c: float = 1.0
    ) -> "BoundParams":
        """delta = c / mu regime."""
        if c <= 0:
            raise ValueError(f"c must be > 0, got {c}")
        return cls(mu, lam, n, c / mu)

    @classmethod
    def power_law_elite_fraction(
        cls, mu: int, lam: int, n: int, eps1: float
    ) -> "BoundParams":
        """delta = mu^(-eps1) regime; the bound exponent is 1 + eps2 = 2 - eps1."""
        if not 0 < eps1 < 1:
            raise ValueError(f"eps1 must be in (0, 1), got {eps1}")
        return cls(mu, lam, n, mu ** (-eps1))


def simple_traverse_bound(params: BoundParams, k: int) -> float:
    """Expected generations to finish one level via the two main channels."""
    if not 2 <= k <= params.n:
        raise ValueError(f"need 2 <= k <= n so phi2 > 0, got k={k}")
    return 2 * params.mu**3 * params.delta / (params.lam * phi2(k, params.n))


def refined_traverse_bound(params: BoundParams, k: int) -> float:
    """Level bound using all four channels; defined for 3 <= k <= n - 3."""
    if not 3 <= k <= params.n - 3:
        raise ValueError(f"need 3 <= k <= n-3, got k={k}, n={params.n}")
    den = 2 * params.mu * phi3(k, params.n) + phi4(k, params.n)
    return 2 * params.delta * params.mu**3 / (params.lam * den)


@dataclass(frozen=True, slots=True)
class RuntimeBound:
    """Exact finite-sum bound next to its asymptotic approximation.

    ``generations`` is the summed bound and ``asymptotic_generations`` the
    leading log form, reported side by side, never substituted for one
    another.
    """

    generations: float
    asymptotic_generations: float

    @property
    def ratio(self) -> float:
        return self.generations / self.asymptotic_generations


def simple_runtime_bound(params: BoundParams) -> RuntimeBound:
    """Total bound from the two main channels, summed over levels 2..n-2.

    The summand factors exactly as 1/((k-1)(n-k+1)) = (1/n)(1/(k-1) + 1/(n-k+1)),
    so the asymptotic form carries twice the leading log.
    """
    n = params.n
    if n < 5:
        raise ValueError(f"n must be >= 5, got {n}")
    inner = math.fsum(1.0 / ((k - 1) * (n - k + 1)) for k in range(2, n - 1))
    gens = params.mu**3 * n * n * params.delta / params.lam * inner
    asym = params.delta * params.mu**3 * n / params.lam * 2 * math.log(n - 1)
    return RuntimeBound(gens, asym)


def refined_runtime_bound(params: BoundParams) -> RuntimeBound:
    """Total bound from all four channels, summed over levels 3..n-1.

    The asymptotic form is the leading term 2*delta*mu^2*n*log(n-3)/lambda of
    the envelope derivation; the envelope is loose midrange, so the reported
    ratio is itself informative.
    """
    n = params.n
    if n < 7:
        raise ValueError(f"n must be >= 7, got {n}")
    mu = params.mu
    inner = math.fsum(
        1.0 / (2 * mu * phi3(k, n) + phi4(k, n)) for k in range(3, n)
    )
    gens = 2 * params.delta * mu**3 / params.lam * inner
    asym = 2 * params.delta * mu * mu * n * math.log(n - 3) / params.lam
    return RuntimeBound(gens, asym)
