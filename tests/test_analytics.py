import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bitswap_ea.analytics import (
    BoundParams,
    cubic_level_sum,
    cubic_levelsum_coefficients,
    digamma,
    event_probs,
    harmonic,
    phi1,
    phi2,
    phi3,
    phi4,
    quadratic_level_sum,
    quadratic_levelsum_coefficients,
    refined_runtime_bound,
    refined_traverse_bound,
    simple_runtime_bound,
    simple_traverse_bound,
    tetragamma,
    trigamma,
)

EULER_GAMMA = 0.5772156649015329

# A reference value that a check of bitswap_ea.verify asserts at the same or a
# tighter tolerance is not restated here; tests/test_cli.py runs every check.


# --- pair channels -------------------------------------------------------


def test_channel_values_at_reference_points():
    assert phi1(5, 10) == pytest.approx(0.30)


def test_channel_domain_errors():
    with pytest.raises(ValueError):
        phi3(1, 10)
    with pytest.raises(ValueError):
        phi4(1, 10)
    with pytest.raises(ValueError):
        phi1(0, 10)
    with pytest.raises(ValueError):
        phi1(11, 10)


@given(st.integers(2, 80), st.data())
def test_channels_stay_in_unit_interval(n, data):
    k = data.draw(st.integers(2, n))
    for channel in (phi1, phi2, phi3, phi4):
        assert 0.0 <= channel(k, n) <= 1.0


# --- event probabilities ------------------------------------------------


def test_event_probs_worked_example():
    ev = event_probs(alpha=1, beta1=1, mu=4, lam=4, k=5, n=10)
    assert ev.p_e3 == pytest.approx(0.125)
    assert ev.p_e4 == pytest.approx(0.03375)
    assert ev.s == pytest.approx(0.24875)


def test_event_probs_vanish_when_selection_cannot_form_pairs():
    # alpha = mu: no next-level or lower parents, all channels dead
    ev = event_probs(alpha=4, beta1=0, mu=4, lam=4, k=5, n=10)
    assert ev.s == 0.0


def test_dead_channels_skip_phi_domain():
    # k = 1 is outside phi3/phi4 domain, but their selection factors are
    # zero here so the call must succeed
    ev = event_probs(alpha=2, beta1=2, mu=4, lam=4, k=1, n=10)
    assert ev.p_e3 == 0.0
    assert ev.p_e4 == 0.0


def test_live_channel_outside_phi_domain_raises():
    with pytest.raises(ValueError):
        event_probs(alpha=1, beta1=1, mu=4, lam=4, k=1, n=10)


def test_event_probs_validation():
    with pytest.raises(ValueError):
        event_probs(alpha=0, beta1=1, mu=4, lam=4, k=5, n=10)
    with pytest.raises(ValueError):
        event_probs(alpha=3, beta1=2, mu=4, lam=4, k=5, n=10)
    with pytest.raises(ValueError):
        event_probs(alpha=1, beta1=1, mu=4, lam=3, k=5, n=10)
    with pytest.raises(ValueError):
        event_probs(alpha=1, beta1=1, mu=4, lam=0, k=5, n=10)
    with pytest.raises(ValueError):
        event_probs(alpha=1, beta1=-1, mu=4, lam=4, k=5, n=10)


def test_event_probs_linear_in_lambda():
    lo = event_probs(alpha=1, beta1=1, mu=4, lam=2, k=5, n=10)
    hi = event_probs(alpha=1, beta1=1, mu=4, lam=8, k=5, n=10)
    assert hi.s == pytest.approx(4 * lo.s)


# --- special functions ---------------------------------------------------


def test_harmonic_exact_small_values():
    assert harmonic(1) == 1.0
    assert harmonic(5) == pytest.approx(137 / 60)
    with pytest.raises(ValueError):
        harmonic(-1)


def test_harmonic_large_branch_matches_expansion():
    m = 10_000
    approx = math.log(m) + EULER_GAMMA + 1 / (2 * m) - 1 / (12 * m * m)
    assert harmonic(m) == pytest.approx(approx, abs=1e-12)


def test_polygamma_reference_values():
    # -2 * zeta(3)
    assert tetragamma(1.0) == pytest.approx(-2.4041138063191885, abs=1e-12)
    assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2 * math.log(2), abs=1e-12)
    assert trigamma(0.5) == pytest.approx(math.pi**2 / 2, abs=1e-12)


@given(st.floats(0.1, 25.0, allow_nan=False))
def test_polygamma_recurrences(x):
    assert digamma(x + 1) == pytest.approx(digamma(x) + 1 / x, abs=1e-10)
    assert trigamma(x + 1) == pytest.approx(trigamma(x) - 1 / x**2, abs=1e-10)
    assert tetragamma(x + 1) == pytest.approx(tetragamma(x) + 2 / x**3, abs=1e-10)


@given(st.integers(1, 500))
def test_digamma_matches_harmonic_numbers(m):
    assert digamma(m + 1.0) == pytest.approx(harmonic(m) - EULER_GAMMA, abs=1e-10)


def test_polygamma_domain_errors():
    for fn in (digamma, trigamma, tetragamma):
        with pytest.raises(ValueError):
            fn(0.0)
        with pytest.raises(ValueError):
            fn(-1.5)


@pytest.mark.parametrize("call", [
    lambda: digamma(math.nan),
    lambda: trigamma(math.nan),
    lambda: tetragamma(math.nan),
    lambda: quadratic_level_sum(math.nan, 2.0, 3),
], ids=["digamma", "trigamma", "tetragamma", "quadratic_level_sum"])
def test_nan_arguments_fail_the_domain_checks(call):
    # each domain check is written as "not inside", which a NaN cannot pass
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("fn, x, expected", [
    (digamma, 1e-310, -math.inf),
    (trigamma, 1e-160, math.inf),
    # x * x and x * x * x underflow to 0 at these two
    (trigamma, 1e-310, math.inf),
    (tetragamma, 1e-160, -math.inf),
])
def test_polygammas_of_tiny_arguments_are_infinite(fn, x, expected):
    assert fn(x) == expected


# --- level sums ----------------------------------------------------------


def test_quadratic_level_sum_perfect_square():
    # 1/(a+1)^2 summed over a = 1..3
    res = quadratic_level_sum(1.0, 2.0, 3)
    expected = 1 / 4 + 1 / 9 + 1 / 16
    assert res.value == pytest.approx(expected, abs=1e-12)
    assert res.closed_form == pytest.approx(expected, abs=1e-10)


def test_quadratic_level_sum_without_pattern_has_no_closed_form():
    res = quadratic_level_sum(2.0, 1.0, 5)
    assert res.closed_form is None
    assert res.value == pytest.approx(
        math.fsum(1 / (a * a + a + 2) for a in range(1, 6)), abs=1e-12
    )


def test_quadratic_level_sum_rejects_nonpositive_polynomial():
    with pytest.raises(ValueError):
        quadratic_level_sum(0.0, -3.0, 5)
    # endpoints positive, vertex dips negative inside the range
    with pytest.raises(ValueError):
        quadratic_level_sum(6.0, -5.0, 4)


def test_quadratic_level_sum_empty_range():
    res = quadratic_level_sum(1.0, 2.0, 0)
    assert res.value == 0.0
    assert res.closed_form == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        quadratic_level_sum(1.0, 2.0, -1)


def test_cubic_level_sum_perfect_cube():
    # 1/(a+1)^3 summed over a = 1..3
    res = cubic_level_sum(1.0, 3.0, 3.0, 3)
    expected = 1 / 8 + 1 / 27 + 1 / 64
    assert res.value == pytest.approx(expected, abs=1e-12)
    assert res.closed_form == pytest.approx(expected, abs=1e-10)


def test_cubic_level_sum_without_pattern_has_no_closed_form():
    res = cubic_level_sum(5.0, 1.0, 0.0, 4)
    assert res.closed_form is None
    assert res.value == pytest.approx(
        math.fsum(1 / (a**3 + a + 5) for a in range(1, 5)), abs=1e-12
    )


def test_cubic_level_sum_rejects_nonpositive_polynomial():
    # (a-2)^3 is negative at a = 1
    with pytest.raises(ValueError):
        cubic_level_sum(-8.0, 12.0, -6.0, 5)


@given(st.floats(-0.9, 6.0), st.integers(1, 40))
def test_quadratic_closed_form_tracks_direct_sum(r, m):
    res = quadratic_level_sum(r * r, 2 * r, m)
    assert res.closed_form is not None
    assert res.closed_form == pytest.approx(res.value, rel=1e-8, abs=1e-10)


@given(st.floats(-0.9, 6.0), st.integers(1, 40))
def test_cubic_closed_form_tracks_direct_sum(rho, m):
    res = cubic_level_sum(rho**3, 3 * rho * rho, 3 * rho, m)
    assert res.closed_form is not None
    assert res.closed_form == pytest.approx(res.value, rel=1e-8, abs=1e-10)


# --- coefficient reductions ----------------------------------------------


def test_quadratic_coefficients_reference_point():
    b0, b1 = quadratic_levelsum_coefficients(4, 5, 10)
    assert b0 == pytest.approx(-4.0)
    assert b1 == pytest.approx(-3.0)


def test_quadratic_coefficients_denominator_never_vanishes():
    # phi2 - 2*mu*phi1 < 0 whenever mu >= 1, so the reduction always exists
    for n in (5, 10, 31):
        for mu in (1, 2, 8):
            for k in range(2, n + 1):
                b0, b1 = quadratic_levelsum_coefficients(mu, k, n)
                assert math.isfinite(b0) and math.isfinite(b1)


def test_reduced_quadratic_is_reported_nonpositive():
    # the reduced polynomial fails the positivity precondition of the level
    # sum; the sum refuses it instead of silently returning garbage
    b0, b1 = quadratic_levelsum_coefficients(4, 5, 10)
    with pytest.raises(ValueError):
        quadratic_level_sum(b0, b1, 5)


def test_cubic_coefficients_reference_point():
    b0, b1, b2 = cubic_levelsum_coefficients(4, 5, 10)
    f1, f2 = phi1(5, 10), phi2(5, 10)
    f3, f4 = phi3(5, 10), phi4(5, 10)
    b3 = 2 * (4 * f3 - f4)
    assert b0 == pytest.approx(16 * (8 * f4 + f2) / b3)
    assert b1 == pytest.approx(8 * (4 * f1 + 16 * f3 - 12 * f4 - f2) / b3)
    assert b2 == pytest.approx((f2 - 64 * f3 - 8 * f1 - 24 * f4) / b3)


def test_cubic_coefficients_exist_on_grid():
    for n in (8, 12, 20):
        for mu in (1, 2, 4):
            for k in range(2, n + 1):
                vals = cubic_levelsum_coefficients(mu, k, n)
                assert all(math.isfinite(v) for v in vals)


# --- runtime bounds -------------------------------------------------------


def test_bound_params_validation():
    with pytest.raises(ValueError):
        BoundParams(0, 2, 10, 0.5)
    with pytest.raises(ValueError):
        BoundParams(2, 3, 10, 0.5)
    with pytest.raises(ValueError):
        BoundParams(2, 0, 10, 0.5)
    with pytest.raises(ValueError):
        BoundParams(2, 2, 0, 0.5)
    with pytest.raises(ValueError):
        BoundParams(2, 2, 10, 0.0)
    with pytest.raises(ValueError):
        BoundParams(2, 2, 10, 1.0)


def test_bound_params_regime_constructors():
    p = BoundParams.constant_elite_fraction(4, 4, 100, c=1.0)
    assert p.delta == pytest.approx(0.25)
    q = BoundParams.power_law_elite_fraction(16, 4, 100, eps1=0.5)
    assert q.delta == pytest.approx(0.25)
    with pytest.raises(ValueError):
        BoundParams.constant_elite_fraction(4, 4, 100, c=0.0)
    with pytest.raises(ValueError):
        BoundParams.power_law_elite_fraction(16, 4, 100, eps1=1.0)


def test_traverse_bound_domains():
    p = BoundParams(4, 4, 10, 0.25)
    with pytest.raises(ValueError):
        simple_traverse_bound(p, 1)
    with pytest.raises(ValueError):
        simple_traverse_bound(p, 11)
    with pytest.raises(ValueError):
        refined_traverse_bound(p, 2)
    with pytest.raises(ValueError):
        refined_traverse_bound(p, 8)


def test_refined_traverse_never_exceeds_simple():
    for n in (10, 20, 50):
        for mu in (1, 2, 4, 8):
            p = BoundParams(mu, 4, n, 0.5)
            for k in range(3, n - 2):
                assert refined_traverse_bound(p, k) <= simple_traverse_bound(p, k)


def test_refined_runtime_is_below_simple():
    for n in (10, 40, 100):
        for mu in (1, 2, 4):
            p = BoundParams(mu, 2, n, 0.5)
            assert (
                refined_runtime_bound(p).generations
                <= simple_runtime_bound(p).generations
            )


def test_runtime_bound_domains():
    with pytest.raises(ValueError):
        simple_runtime_bound(BoundParams(2, 2, 4, 0.5))
    with pytest.raises(ValueError):
        refined_runtime_bound(BoundParams(2, 2, 6, 0.5))


def test_evaluation_figures_are_twice_lambda_times_generations():
    p = BoundParams(4, 6, 50, 0.25)
    for bound in (simple_runtime_bound(p), refined_runtime_bound(p)):
        assert bound.evaluations == pytest.approx(12 * bound.generations)
        assert bound.ratio == pytest.approx(
            bound.generations / bound.asymptotic_generations
        )
