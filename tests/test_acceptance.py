"""Release gate: one test per acceptance criterion, each enforcing its stated
tolerance and time budget. Run with -v for one pass/fail line per criterion."""

import math
import os
import random
import statistics
import time

import pytest

from bitswap_ea.analytics import (
    cubic_level_sum,
    digamma,
    harmonic,
    phi2,
    phi4,
    quadratic_level_sum,
)
from bitswap_ea.cli import main
from bitswap_ea.engine import run_rls_baseline
from bitswap_ea.genome import make_rng, mix_seed, random_genome
from bitswap_ea.harness import ExperimentConfig, fit_scaling, run_sweep
from bitswap_ea.oracle import (
    exact_generation_success,
    monte_carlo_success,
    plateau_comparison,
)
from bitswap_ea.verify import SMALL_FIXTURES, bound_checks, probability_checks

# the CPUs this process may use, as perfbench counts them; the records come
# back in grid order, so no output depends on it
WORKERS = len(os.sched_getaffinity(0))


@pytest.fixture(scope="module")
def verify_checks():
    """The verify suites' checks by name: the reference values live there."""
    return {c.name: c for c in probability_checks() + bound_checks()}


def passed(checks, *names):
    for name in names:
        assert checks[name].passed, checks[name].detail


@pytest.fixture(scope="module")
def scaling_sweep():
    config = ExperimentConfig(
        n_values=(32, 64, 128, 256), mu_values=(2,), lam_values=(2,),
        seed_count=100, base_seed=20240817,
    )
    start = time.monotonic()
    records = run_sweep(config, workers=WORKERS, record_trace=True)
    return records, time.monotonic() - start


@pytest.fixture(scope="module")
def population_sweep():
    config = ExperimentConfig(
        n_values=(128,), mu_values=(2, 4, 8, 16), lam_values=(4,),
        seed_count=100, base_seed=20240818,
    )
    start = time.monotonic()
    records = run_sweep(config, workers=WORKERS, record_trace=True)
    return records, time.monotonic() - start


@pytest.fixture(scope="module")
def rls_runs():
    start = time.monotonic()
    records = [
        run_rls_baseline(100, mix_seed(777, 100, 1, 0, i)) for i in range(200)
    ]
    return records, time.monotonic() - start


def test_criterion_1_formula_identity_suite(verify_checks):
    # the reference values phi2(2,10), phi3(3,10) and phi4(3,10)
    passed(verify_checks, "swap_probability_values")
    start = time.monotonic()
    for n in range(2, 60):
        assert phi2(1, n) == 0.0
        assert phi4(2, n) == 0.0

    rng = random.Random(20240819)
    worst = 0.0
    for _ in range(100):
        r = 10 * (1 - rng.random())
        m = rng.randint(1, 1000)
        res = quadratic_level_sum(r * r, 2 * r, m)
        assert res.closed_form is not None
        worst = max(worst, abs(res.closed_form - res.value))
    for _ in range(100):
        rho = 10 * (1 - rng.random())
        m = rng.randint(1, 1000)
        res = cubic_level_sum(rho**3, 3 * rho * rho, 3 * rho, m)
        assert res.closed_form is not None
        worst = max(worst, abs(res.closed_form - res.value))
    assert worst <= 1e-9
    elapsed = time.monotonic() - start
    print(f"criterion 1: worst closed-form deviation {worst:.2e}, {elapsed:.2f}s")
    assert elapsed < 1.0


def test_criterion_2_special_functions(verify_checks):
    # psi_1(1) = pi^2/6 and H(1e6) - ln(1e6) against Euler's gamma
    passed(verify_checks, "polygamma_reference_points", "harmonic_reference_points")
    start = time.monotonic()
    rng = random.Random(20240819)
    worst = 0.0
    for _ in range(50):
        x = 0.1 + 30 * rng.random()
        worst = max(worst, abs(digamma(x + 1) - digamma(x) - 1 / x))
    assert worst <= 1e-10
    elapsed = time.monotonic() - start
    print(f"criterion 2: recurrence worst {worst:.2e}, "
          f"{verify_checks['harmonic_reference_points'].detail}, {elapsed:.2f}s")
    assert elapsed < 1.0


def test_criterion_3_oracle_agreement():
    start = time.monotonic()
    trials = 100_000
    for i, (label, spec, lam) in enumerate(SMALL_FIXTURES):
        assert spec.mu <= 4 and spec.fitness.n <= 8 and lam <= 4
        exact = exact_generation_success(spec, lam)
        mc = monte_carlo_success(spec, lam, trials, make_rng(20240819 + i))
        for e, m, s in (
            (float(exact.p_exactly_one_new_elite),
             mc.p_exactly_one_new_elite, mc.se_exactly_one),
            (float(exact.p_at_least_one_new_elite),
             mc.p_at_least_one_new_elite, mc.se_at_least_one),
        ):
            assert abs(m - e) <= 4 * max(s, 1e-12), (label, e, m, s)
        total = sum(exact.elite_count_distribution.values())
        assert abs(float(total) - 1.0) <= 1e-12
        print(f"criterion 3: {label} ok "
              f"(exact {float(exact.p_at_least_one_new_elite):.5f}, "
              f"mc {mc.p_at_least_one_new_elite:.5f})")
    elapsed = time.monotonic() - start
    print(f"criterion 3: {len(SMALL_FIXTURES)} fixtures x {trials} trials, {elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_4_representative_probe(verify_checks, tmp_path, capsys):
    # p_e = 0.1, p_e_star = 0.092236816 and the approximation failing there
    passed(verify_checks, "probe_reference_points")
    start = time.monotonic()
    rc = main(["probe-appendix-a", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 0
    lines = (tmp_path / "probe_region.csv").read_text().splitlines()
    assert len(lines) == 2 + 1015
    elapsed = time.monotonic() - start
    print(captured.out, end="")
    print(f"criterion 4: {verify_checks['probe_reference_points'].detail}, {elapsed:.2f}s")
    assert elapsed < 1.0


def test_criterion_5_plateau_ordering():
    start = time.monotonic()
    trials = 100_000
    sharp = plateau_comparison(12, 3, 4, 4, trials, make_rng(20240819))
    assert sharp.p_f2 <= sharp.p_f1
    assert sharp.p_f1 - sharp.p_f2 > 4 * sharp.combined_se

    flat = plateau_comparison(12, 1, 4, 4, trials, make_rng(20240820))
    assert abs(flat.p_f1 - flat.p_f2) <= 4 * flat.combined_se
    elapsed = time.monotonic() - start
    print(f"criterion 5: gamma=3 gap {sharp.p_f1 - sharp.p_f2:.4f} "
          f"(4se={4 * sharp.combined_se:.4f}); "
          f"gamma=1 gap {abs(flat.p_f1 - flat.p_f2):.4f} "
          f"(4se={4 * flat.combined_se:.4f}); {elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_6_scaling_law(scaling_sweep):
    records, elapsed = scaling_sweep
    fit = fit_scaling(records)
    assert fit.r_squared >= 0.98

    def cell_mean(n):
        gens = [r.generations for r in records if r.spec.n == n]
        assert len(gens) == 100
        return statistics.fmean(gens)

    ratio = cell_mean(256) / cell_mean(128)
    target = (256 * math.log(256)) / (128 * math.log(128))
    assert abs(ratio / target - 1) <= 0.15
    print(f"criterion 6: r_squared={fit.r_squared:.5f}, "
          f"ratio {ratio:.4f} vs target {target:.4f}, sweep {elapsed:.1f}s")
    assert elapsed < 300.0


def test_criterion_7_population_cost(population_sweep):
    records, elapsed = population_sweep

    def cell_mean_evals(mu):
        evals = [r.evaluations for r in records if r.mu == mu]
        assert len(evals) == 100
        return statistics.fmean(evals)

    ratio = cell_mean_evals(16) / cell_mean_evals(2)
    assert ratio <= 16.0
    print(f"criterion 7: evaluations(16)/evaluations(2)={ratio:.3f} "
          f"(linear-in-mu would be 8), sweep {elapsed:.1f}s")
    assert elapsed < 600.0


def test_criterion_8_rls_baseline(rls_runs):
    records, elapsed = rls_runs
    n = 100
    oracle = []
    for rec in records:
        z0 = n - random_genome(n, make_rng(rec.seed)).ones
        oracle.append(n * harmonic(z0))
    mean_steps = statistics.fmean(r.generations for r in records)
    mean_oracle = statistics.fmean(oracle)
    gap = abs(mean_steps - mean_oracle) / mean_oracle
    assert gap <= 0.05
    print(f"criterion 8: mean steps {mean_steps:.1f} vs harmonic oracle "
          f"{mean_oracle:.1f} (gap {gap:.2%}), {elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_9_engine_invariants(scaling_sweep, population_sweep, rls_runs):
    checked = 0
    for records, _ in (scaling_sweep, population_sweep):
        for rec in records:
            assert rec.terminated == "optimum"
            assert rec.evaluations == rec.mu + 2 * rec.lam * rec.generations
            assert len(rec.trace) == rec.generations + 1
            ks = [p.k for p in rec.trace]
            assert all(a <= b for a, b in zip(ks, ks[1:]))
            for p in rec.trace:
                assert p.alpha + p.beta1 + p.beta_minus1 == rec.mu
            checked += 1
    for rec in rls_runs[0]:
        assert rec.terminated == "optimum"
        assert rec.evaluations == rec.generations + 1
        ks = [p.k for p in rec.trace]
        assert all(a <= b for a, b in zip(ks, ks[1:]))
        for p in rec.trace:
            assert p.alpha + p.beta1 + p.beta_minus1 == 1
        checked += 1
    print(f"criterion 9: invariants hold on {checked} traced runs")
