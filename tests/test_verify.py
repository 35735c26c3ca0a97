"""The verify suites' failure paths: each check fails when a function it
calls returns NaN or a wrong value, and names the failing case."""

import dataclasses
import math
import types

import pytest

from bitswap_ea import verify
from bitswap_ea.cli import main


def by_name(checks):
    return {c.name: c for c in checks}


def failing(checks, name):
    result = by_name(checks)[name]
    assert not result.passed, result
    return result.detail


# --- bound checks -------------------------------------------------------------


def test_square_sum_fails_on_a_nan_trigamma(monkeypatch):
    monkeypatch.setattr(verify, "trigamma", lambda x: math.nan)
    detail = failing(verify.bound_checks(), "square_sum_telescopes")
    assert detail == "worst gap nan over 100 draws"


def test_square_sum_names_a_wrong_gap(monkeypatch):
    real = verify.trigamma
    monkeypatch.setattr(verify, "trigamma", lambda x: real(x) + 1e-6 * (x > 500))
    detail = failing(verify.bound_checks(), "square_sum_telescopes")
    assert detail == "worst gap 1.00e-06 over 100 draws"


@pytest.mark.parametrize("generations", [math.nan, 1e12])
def test_refined_below_simple_fails_and_names_every_case(monkeypatch, generations):
    monkeypatch.setattr(verify, "refined_runtime_bound",
                        lambda params: types.SimpleNamespace(generations=generations))
    detail = failing(verify.bound_checks(), "refined_below_simple")
    cases = detail.split("; ")
    assert len(cases) == 12
    assert cases[0].startswith(f"n=16 mu=2: refined {generations:.1f}, simple ")
    assert cases[-1].startswith("n=128 mu=8: ")


def test_termwise_envelope_fails_on_a_nan_channel(monkeypatch):
    monkeypatch.setattr(verify, "phi3", lambda k, n: math.nan)
    detail = failing(verify.bound_checks(), "termwise_envelope_on_validity_region")
    assert detail.startswith("n=20 mu=2 k=3; n=20 mu=2 k=4; ")
    assert detail.endswith("n=100 mu=8 k=57")


def test_cube_sum_fails_without_a_closed_form(monkeypatch):
    real = verify.cubic_level_sum
    monkeypatch.setattr(verify, "cubic_level_sum", lambda *args: dataclasses.replace(
        real(*args), closed_form=None))
    detail = failing(verify.bound_checks(), "cube_sum_telescopes")
    assert detail == "worst gap nan over 100 draws"


# --- probability checks -------------------------------------------------------


@pytest.fixture
def probability_checks():
    return lambda: verify.probability_checks(trials=1000, seed=3)


def test_exact_vs_monte_carlo_fails_on_a_nan_estimate(monkeypatch, probability_checks):
    real = verify.monte_carlo_success
    monkeypatch.setattr(verify, "monte_carlo_success", lambda *args: dataclasses.replace(
        real(*args), p_at_least_one_new_elite=math.nan))
    detail = failing(probability_checks(), "exact_vs_monte_carlo")
    cases = detail.split("; ")
    assert [c.split(":")[0] for c in cases] == [
        f"{label}.p_at_least_one_new_elite" for label, _, _ in verify.SMALL_FIXTURES]
    assert all("mc=nan" in c for c in cases)


def test_event_probability_range_names_a_channel_that_should_vanish(
        monkeypatch, probability_checks):
    real = verify.event_probs
    monkeypatch.setattr(verify, "event_probs", lambda *args, **kwargs: dataclasses.replace(
        real(*args, **kwargs), p_e4=0.01))
    detail = failing(probability_checks(), "event_probability_range")
    assert "should zero the two-level-gap events" in detail
    assert all(case.startswith("alpha=") for case in detail.split("; "))


def test_swap_probability_range_names_the_channel(monkeypatch, probability_checks):
    monkeypatch.setattr(verify, "phi2", lambda k, n: 1.5)
    detail = failing(probability_checks(), "swap_probability_range")
    cases = detail.split("; ")
    assert len(cases) == 300
    assert all(case.startswith("phi2(") and case.endswith(")=1.5") for case in cases)


def test_sign_agreement_fails_on_a_nan_sum(monkeypatch, probability_checks):
    real = verify.event_probs
    monkeypatch.setattr(verify, "event_probs", lambda *args, **kwargs: dataclasses.replace(
        real(*args, **kwargs), p_e1=math.nan))
    detail = failing(probability_checks(), "analytic_sign_agreement_at_top_level")
    assert [case.split(": s=")[1].split()[0] for case in detail.split("; ")] == ["nan"] * 4


# --- pinned output ------------------------------------------------------------

# verify-bounds draws from random.Random and calls no numpy, so its default
# output is the same on every platform; it pins every passing detail string
VERIFY_BOUNDS_STDOUT = (
    'PASS quadratic_level_sum_values: m=3: 0.423611111 closed 0.42361111111111105; m=1: 0.111111111\n'
    'PASS cubic_level_sum_values: rho=1,m=2: 0.162037037; rho=0,m=3: 1.162037037\n'
    'PASS square_sum_telescopes: worst gap 2.22e-16 over 100 draws\n'
    'PASS cube_sum_telescopes: worst gap 2.22e-16 over 100 draws\n'
    'PASS polygamma_reference_points: psi0(1)=-0.577215664902 psi1(1)=1.644934066848 recurrence gap 5.55e-17\n'
    'PASS harmonic_reference_points: H(4)=2.0833333333333335 limit gap 5.00e-07\n'
    'PASS traverse_bound_values: simple k=2: 44.4444; mu=1: 1.3889; refined k=3: 1.4925\n'
    'PASS simple_runtime_value: n=6 mu=2: 31.4 (157/5 = 31.4)\n'
    'PASS inner_sum_partial_fractions: worst gap 0.00e+00 for n up to 512\n'
    'PASS asymptotic_tracks_exact: n=100 exact/asymptotic ratio 0.9613\n'
    'PASS refined_below_simple: refined bound below the simple one across the grid\n'
    'PASS termwise_envelope_on_validity_region: envelope dominates each term left of its breakdown point\n'
    '12/12 checks passed\n'
)


def test_verify_bounds_default_output_is_pinned(capsys):
    assert main(["verify-bounds"]) == 0
    assert capsys.readouterr().out == VERIFY_BOUNDS_STDOUT
