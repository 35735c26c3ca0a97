"""Named check suites behind the verification subcommands.

Each check returns a CheckResult so the CLI can print one line per check and
exit nonzero if any fail. The reference values live here, not in the tests.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .analytics import (
    BoundParams,
    cubic_level_sum,
    digamma,
    event_probs,
    harmonic,
    phi1,
    phi2,
    phi3,
    phi4,
    quadratic_level_sum,
    refined_runtime_bound,
    refined_traverse_bound,
    simple_runtime_bound,
    simple_traverse_bound,
    trigamma,
)
from .fitness import FitnessSpec
from .genome import make_rng
from .oracle import (
    PopulationSpec,
    exact_generation_success,
    monte_carlo_success,
    representative_probe,
)

EULER_GAMMA = 0.5772156649015329


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


def _every_case(name: str, failures: list[str], detail: str) -> CheckResult:
    """Pass when no case failed, else name every failing case. A caller lists
    a case unless its condition holds (``not refined <= simple``), so a NaN fails."""
    return CheckResult(name, not failures, "; ".join(failures) or detail)


def _worst_gap(gaps, tol: float) -> tuple[bool, float]:
    """Whether every gap is <= ``tol``, and the worst gap; a NaN gap fails
    and shows as the worst."""
    gaps = list(gaps)
    return all(g <= tol for g in gaps), max(gaps, key=lambda g: (math.isnan(g), g))


# Shared small-population fixtures: exact enumeration is feasible on all of
# them, and Monte-Carlo through the engine must agree.
SMALL_FIXTURES: list[tuple[str, PopulationSpec, int]] = [
    ("two_complementary_bits", PopulationSpec.from_strings(["10", "01"], FitnessSpec.onemax(2)), 2),
    ("all_optimal", PopulationSpec.from_strings(["1111", "1111"], FitnessSpec.onemax(4)), 2),
    ("levels_n8_k4_a1_b2", PopulationSpec.from_level_counts(8, 4, 1, 2, 1), 4),
    ("levels_n8_k4_a2_b1", PopulationSpec.from_level_counts(8, 4, 2, 1, 1), 2),
    ("levels_n6_k3_mu3", PopulationSpec.from_level_counts(6, 3, 1, 1, 1), 4),
    ("levels_n8_k5_a1_b3", PopulationSpec.from_level_counts(8, 5, 1, 3, 0), 4),
    ("plateau_ties", PopulationSpec.from_strings(["111110", "111011"], FitnessSpec.plateau(6, 3)), 2),
]

MONOTONE_FIXTURES = [
    PopulationSpec.from_level_counts(8, 4, 1, 2, 1),
    PopulationSpec.from_level_counts(10, 5, 2, 1, 1),
    PopulationSpec.from_strings(["10", "01"], FitnessSpec.onemax(2)),
]


def probability_checks(trials: int = 100_000, seed: int = 2024) -> list[CheckResult]:
    out: list[CheckResult] = []

    v1, v2 = phi1(2, 10), phi2(2, 10)
    v3, v4 = phi3(3, 10), phi4(3, 10)
    out.append(_check(
        "swap_probability_values",
        v2 == 0.18 and v3 == 0.66 and v4 == 0.08 and phi2(1, 10) == 0.0 and phi4(2, 10) == 0.0,
        f"phi2(2,10)={v2} phi3(3,10)={v3} phi4(3,10)={v4} phi1(2,10)={v1}",
    ))

    rng = random.Random(seed)
    failures = []
    for _ in range(300):
        n = rng.randrange(2, 200)
        k = rng.randrange(1, n + 1)
        for j, channel in enumerate((phi1, phi2, phi3, phi4), 1):
            if j >= 3 and k < 2:
                continue
            v = channel(k, n)
            if not 0.0 <= v <= 1.0:
                failures.append(f"phi{j}({k},{n})={v}")
    out.append(_every_case("swap_probability_range", failures, "all in [0,1] on 300 draws"))

    ep = event_probs(alpha=1, beta1=1, mu=4, lam=4, k=5, n=10)
    out.append(_check(
        "event_probability_values",
        abs(ep.p_e1 - 0.05625) < 1e-15 and abs(ep.p_e2 - 0.03375) < 1e-15,
        f"p_e1={ep.p_e1} p_e2={ep.p_e2}",
    ))

    failures = []
    for _ in range(400):
        n = rng.randrange(4, 64)
        k = rng.randrange(1, n + 1)
        mu = rng.randrange(2, 12)
        lam = rng.choice((2, 4))
        alpha = rng.randrange(1, mu + 1)
        # below k-1 nothing exists unless k >= 2
        beta1 = mu - alpha if k < 2 else rng.randrange(0, mu - alpha + 1)
        ep = event_probs(alpha, beta1, mu, lam, k, n)
        vals = (ep.p_e1, ep.p_e2, ep.p_e3, ep.p_e4, ep.s)
        case = f"alpha={alpha} beta1={beta1} mu={mu} lam={lam} k={k} n={n}"
        if not all(0.0 <= v <= 1.0 for v in vals):
            failures.append(f"{case}: {vals}")
        if alpha == mu and any(vals[:4]):
            failures.append(f"{case}: alpha=mu should zero all events")
        elif alpha + beta1 == mu and any(vals[2:4]):
            failures.append(f"{case}: alpha+beta1=mu should zero the two-level-gap events")
    out.append(_every_case("event_probability_range", failures,
                           "in range with vanishing factors, 400 draws"))

    rng_mc = make_rng(seed)
    failures = []
    for label, spec, lam in SMALL_FIXTURES:
        ex = exact_generation_success(spec, lam)
        mc = monte_carlo_success(spec, lam, trials, rng_mc)
        for attr, attr_se in (("p_exactly_one_new_elite", "se_exactly_one"),
                              ("p_at_least_one_new_elite", "se_at_least_one")):
            e = float(getattr(ex, attr))
            m = getattr(mc, attr)
            s = getattr(mc, attr_se)
            if not (abs(m - e) <= 4 * max(s, 1e-12) or e == m == 0.0):
                failures.append(f"{label}.{attr}: exact={e:.5f} mc={m:.5f} se={s:.5f}")
        if not sum(ex.elite_count_distribution.values()) == 1:
            failures.append(f"{label}: distribution does not sum to 1")
    out.append(_every_case("exact_vs_monte_carlo", failures,
                           f"{len(SMALL_FIXTURES)} fixtures within 4 standard errors at {trials} trials"))

    failures = []
    for spec in MONOTONE_FIXTURES:
        ps = [exact_generation_success(spec, lam).p_at_least_one_new_elite for lam in (2, 4, 6)]
        if not ps[0] <= ps[1] <= ps[2]:
            failures.append(f"mu={spec.mu}: {[float(p) for p in ps]}")
    out.append(_every_case("success_monotone_in_pool_size", failures,
                           "non-decreasing over lambda in {2,4,6}"))

    failures = []
    for alpha, beta1, beta_m1 in ((1, 2, 1), (2, 2, 0), (4, 0, 0), (3, 1, 0)):
        mu = alpha + beta1 + beta_m1
        spec = PopulationSpec.from_level_counts(8, 8, alpha, beta1, beta_m1)
        s = event_probs(alpha, beta1, mu, 4, 8, 8).s
        p = exact_generation_success(spec, 4).p_exactly_one_new_elite
        if not (s > 0 and p > 0 or s == 0 and p == 0):
            failures.append(f"alpha={alpha} beta1={beta1}: s={s} exact={float(p)}")
    out.append(_every_case("analytic_sign_agreement_at_top_level", failures,
                           "s and the enumerated success share a sign when no level above exists"))

    pr = representative_probe(0.1, 0.2, 10, 5)
    zero = representative_probe(0.3, 0.0, 6, 2)
    one_pair = representative_probe(1.0, 0.4, 2, 1)
    out.append(_check(
        "probe_reference_points",
        abs(pr.p_e - 0.1) < 1e-12 and abs(pr.p_e_star / 0.092236816 - 1) < 1e-6 and not pr.holds
        and zero.p_e == 0.0 and zero.p_e_star == 0.0 and zero.holds
        and abs(one_pair.p_e - 0.4) < 1e-15 and abs(one_pair.p_e_star - 0.4) < 1e-15 and one_pair.holds,
        f"p_e={pr.p_e} p_e_star={pr.p_e_star:.6f} holds={pr.holds}",
    ))

    return out


def bound_checks(seed: int = 2024) -> list[CheckResult]:
    out: list[CheckResult] = []
    rng = random.Random(seed)

    q1 = quadratic_level_sum(1.0, 2.0, 3)
    q2 = quadratic_level_sum(4.0, 4.0, 1)
    q0 = quadratic_level_sum(1.0, 2.0, 0)
    out.append(_check(
        "quadratic_level_sum_values",
        abs(q1.value - (1 / 4 + 1 / 9 + 1 / 16)) < 1e-12
        and abs(q2.value - 1 / 9) < 1e-12 and q0.value == 0.0
        and q1.closed_form is not None and abs(q1.closed_form - q1.value) < 1e-9,
        f"m=3: {q1.value:.9f} closed {q1.closed_form}; m=1: {q2.value:.9f}",
    ))

    c1 = cubic_level_sum(1.0, 3.0, 3.0, 2)
    c2 = cubic_level_sum(0.0, 0.0, 0.0, 3)
    out.append(_check(
        "cubic_level_sum_values",
        abs(c1.value - (1 / 8 + 1 / 27)) < 1e-12
        and abs(c2.value - (1 + 1 / 8 + 1 / 27)) < 1e-12
        and c1.closed_form is not None and abs(c1.closed_form - c1.value) < 1e-9,
        f"rho=1,m=2: {c1.value:.9f}; rho=0,m=3: {c2.value:.9f}",
    ))

    def square_gap(r: float, m: int) -> float:
        direct = math.fsum(1.0 / (a + r) ** 2 for a in range(1, m + 1))
        return abs(direct - (trigamma(r + 1) - trigamma(r + m + 1)))

    ok, worst = _worst_gap(
        (square_gap(rng.uniform(1e-6, 10.0), rng.randrange(1, 1001)) for _ in range(100)), 1e-9)
    out.append(_check("square_sum_telescopes", ok, f"worst gap {worst:.2e} over 100 draws"))

    def cube_gap(rho: float, m: int) -> float:
        direct = math.fsum(1.0 / (a + rho) ** 3 for a in range(1, m + 1))
        closed = cubic_level_sum(rho**3, 3 * rho**2, 3 * rho, m).closed_form
        return math.nan if closed is None else abs(direct - closed)

    ok, worst = _worst_gap(
        (cube_gap(rng.uniform(0.0, 8.0), rng.randrange(1, 501)) for _ in range(100)), 1e-9)
    out.append(_check("cube_sum_telescopes", ok, f"worst gap {worst:.2e} over 100 draws"))

    d_ok = abs(digamma(1.0) + EULER_GAMMA) < 1e-12 and abs(trigamma(1.0) - math.pi**2 / 6) < 1e-12
    rec_ok, rec_worst = _worst_gap(
        (abs(digamma(x + 1) - digamma(x) - 1 / x) for x in (0.5, 1.0, 7.25)), 1e-10)
    out.append(_check(
        "polygamma_reference_points",
        d_ok and rec_ok,
        f"psi0(1)={digamma(1.0):.12f} psi1(1)={trigamma(1.0):.12f} recurrence gap {rec_worst:.2e}",
    ))

    h_ok = harmonic(4) == 25 / 12 and harmonic(0) == 0.0
    gap = abs(harmonic(10**6) - math.log(10**6) - EULER_GAMMA)
    out.append(_check("harmonic_reference_points", h_ok and gap < 1e-5, f"H(4)={harmonic(4)} limit gap {gap:.2e}"))

    p_10 = BoundParams.constant_elite_fraction(mu=4, lam=4, n=10, c=1.0)
    p_1 = BoundParams.constant_elite_fraction(mu=1, lam=2, n=10, c=0.25)
    t1 = simple_traverse_bound(p_10, 2)
    t2 = simple_traverse_bound(p_1, 2)
    t3 = refined_traverse_bound(p_10, 3)
    out.append(_check(
        "traverse_bound_values",
        abs(t1 - 400 / 9) < 1e-9 and abs(t2 - 25 / 18) < 1e-9 and abs(t3 - 1000 / 670) < 1e-9,
        f"simple k=2: {t1:.4f}; mu=1: {t2:.4f}; refined k=3: {t3:.4f}",
    ))

    p_6 = BoundParams.constant_elite_fraction(mu=2, lam=2, n=6, c=1.0)
    rb = simple_runtime_bound(p_6)
    out.append(_check(
        "simple_runtime_value",
        abs(rb.generations - 157 / 5) < 1e-9,
        f"n=6 mu=2: {rb.generations} (157/5 = {157 / 5})",
    ))

    ok, worst = _worst_gap((
        abs(math.fsum(1.0 / ((k - 1) * (n - k + 1)) for k in range(2, n - 1))
            - math.fsum((1.0 / (k - 1) + 1.0 / (n - k + 1)) / n for k in range(2, n - 1)))
        for n in (5, 8, 16, 33, 64, 100, 257, 512)
    ), 1e-12)
    out.append(_check("inner_sum_partial_fractions", ok, f"worst gap {worst:.2e} for n up to 512"))

    p_100 = BoundParams.constant_elite_fraction(mu=2, lam=2, n=100, c=1.0)
    rb100 = simple_runtime_bound(p_100)
    rel = abs(rb100.ratio - 1.0)
    out.append(_check(
        "asymptotic_tracks_exact",
        rel < 0.10,
        f"n=100 exact/asymptotic ratio {rb100.ratio:.4f}",
    ))

    failures = []
    for n in (16, 32, 64, 128):
        for mu in (2, 4, 8):
            p = BoundParams.constant_elite_fraction(mu=mu, lam=4, n=n, c=1.0)
            simple = simple_runtime_bound(p).generations
            refined = refined_runtime_bound(p).generations
            if not refined <= simple:
                failures.append(f"n={n} mu={mu}: refined {refined:.1f}, simple {simple:.1f}")
    out.append(_every_case("refined_below_simple", failures,
                           "refined bound below the simple one across the grid"))

    failures = []
    for n, mu in ((20, 2), (50, 4), (100, 8)):
        cutoff = 2 * n + 4 - math.sqrt(2.0 * (n * n + 7 * n + 8))
        for k in range(3, n - 2):
            if k >= cutoff:
                continue
            denom = 2 * mu * phi3(k, n) + phi4(k, n)
            q = k * k - 4 * (n + 2) * k + 2 * n * (n + 1)
            envelope = n * n / (mu * q)
            if not 1.0 / denom <= envelope + 1e-12:
                failures.append(f"n={n} mu={mu} k={k}")
    out.append(_every_case("termwise_envelope_on_validity_region", failures,
                           "envelope dominates each term left of its breakdown point"))

    return out
