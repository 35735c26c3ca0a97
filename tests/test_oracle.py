import math
from fractions import Fraction

import numpy as np
import pytest

from bitswap_ea.engine import one_generation
from bitswap_ea.fitness import FitnessSpec, evaluate, make_individual
from bitswap_ea.genome import Genome, Population, make_rng
from bitswap_ea.oracle import (
    DEFAULT_PROBE_GRID,
    ENUM_MAX_LAM,
    ENUM_MAX_MU,
    ENUM_MAX_N,
    ExactGenerationResult,
    PlateauComparison,
    PopulationSpec,
    exact_generation_success,
    monte_carlo_success,
    new_elite_count,
    plateau_comparison,
    probe_region,
    representative_probe,
)
from bitswap_ea.verify import MONOTONE_FIXTURES, SMALL_FIXTURES


def pop_from(texts, spec):
    return Population(
        tuple(make_individual(spec, Genome.from_string(t)) for t in texts)
    )


# --- new elite statistic ---------------------------------------------------


def test_new_elite_counts_additions_at_same_level():
    spec = FitnessSpec.onemax(4)
    after = pop_from(["1100", "1010", "1000"], spec)
    assert new_elite_count(2, 1, after) == 1


def test_new_elite_counts_everyone_after_level_up():
    spec = FitnessSpec.onemax(4)
    after = pop_from(["1110", "1100", "1100"], spec)
    assert new_elite_count(2, 2, after) == 1


def test_new_elite_zero_when_nothing_changed():
    spec = FitnessSpec.onemax(4)
    after = pop_from(["1100", "1100", "1000"], spec)
    assert new_elite_count(2, 2, after) == 0


# --- population specs --------------------------------------------------------


def test_population_spec_rejects_length_mismatch():
    with pytest.raises(ValueError):
        PopulationSpec.from_strings(["101", "01"], FitnessSpec.onemax(3))


def test_from_level_counts_builds_expected_levels():
    spec = PopulationSpec.from_level_counts(10, 5, 1, 2, 1)
    fits = sorted(ind.fitness for ind in spec.to_population().members)
    assert fits == [3, 4, 4, 5]
    assert spec.mu == 4


def test_from_level_counts_validation():
    with pytest.raises(ValueError):
        PopulationSpec.from_level_counts(10, 5, 0, 1, 0)
    with pytest.raises(ValueError):
        PopulationSpec.from_level_counts(10, 0, 1, 1, 0)
    with pytest.raises(ValueError):
        PopulationSpec.from_level_counts(10, 1, 1, 0, 1)
    with pytest.raises(ValueError):
        PopulationSpec.from_level_counts(10, 11, 1, 0, 0)


# --- exact enumeration -------------------------------------------------------


def test_two_member_crossing_pair_is_one_third():
    # {10, 01}: exactly one of the four swap outcomes per surviving pairing
    # produces a new best, and the overflow lottery keeps it 2/3 of the time
    spec = PopulationSpec.from_strings(["10", "01"], FitnessSpec.onemax(2))
    res = exact_generation_success(spec, 2)
    assert res.p_exactly_one_new_elite == Fraction(1, 3)
    assert res.p_at_least_one_new_elite == Fraction(1, 3)
    assert res.elite_count_distribution == {0: Fraction(2, 3), 1: Fraction(1, 3)}


def test_all_optimal_population_cannot_improve():
    spec = PopulationSpec.from_strings(["11", "11"], FitnessSpec.onemax(2))
    res = exact_generation_success(spec, 2)
    assert res.p_at_least_one_new_elite == 0
    assert res.elite_count_distribution == {0: Fraction(1)}


def test_distribution_is_exactly_normalized():
    spec = PopulationSpec.from_level_counts(8, 4, 1, 2, 1)
    res = exact_generation_success(spec, 4)
    assert sum(res.elite_count_distribution.values()) == Fraction(1)
    assert all(p >= 0 for p in res.elite_count_distribution.values())


def test_success_grows_with_lambda():
    spec = PopulationSpec.from_level_counts(8, 4, 1, 2, 1)
    probs = [
        exact_generation_success(spec, lam).p_at_least_one_new_elite
        for lam in (2, 4, 6)
    ]
    assert probs[0] < probs[1] < probs[2]


def test_enumeration_feasibility_guard():
    big_mu = PopulationSpec.from_level_counts(8, 4, 3, 2, 2)
    with pytest.raises(ValueError):
        exact_generation_success(big_mu, 2)
    ok = PopulationSpec.from_level_counts(8, 4, 1, 1, 0)
    with pytest.raises(ValueError):
        exact_generation_success(ok, 8)
    with pytest.raises(ValueError):
        exact_generation_success(ok, 3)
    long_n = PopulationSpec.from_level_counts(13, 4, 1, 1, 0)
    with pytest.raises(ValueError):
        exact_generation_success(long_n, 2)


def reference_exact_generation_success(spec, lam):
    """The enumeration position pair by position pair, in ``Fraction``s:
    winner law, every (member, position, bit value) child evaluated as a
    ``Genome``, the n^2 tally per parent pair, then the convolution over
    lambda/2 pairs and the fold through replace."""
    members = spec.to_population().members
    mu, n = len(members), spec.fitness.n
    k = max(ind.fitness for ind in members)
    alpha = sum(1 for ind in members if ind.fitness == k)

    win = [Fraction(0)] * mu
    unit = Fraction(1, mu * mu)
    for i in range(mu):
        for j in range(mu):
            fi, fj = members[i].fitness, members[j].fitness
            if fi > fj:
                win[i] += unit
            elif fj > fi:
                win[j] += unit
            else:
                win[i] += unit / 2
                win[j] += unit / 2

    def indicators(g):
        f = evaluate(spec.fitness, g)[0]
        return f > k, f == k

    texts = [str(g) for g in spec.genomes]
    bits = [[int(c) for c in t] for t in texts]
    child = [[[indicators(Genome.from_string(t[:a] + v + t[a + 1:])) for v in "01"]
              for a in range(n)] for t in texts]

    pair_law = {}
    for i in range(mu):
        if win[i] == 0:
            continue
        for j in range(mu):
            if win[j] == 0:
                continue
            tally = {}
            for a in range(n):
                for b in range(n):
                    h1, e1 = child[i][a][bits[j][b]]
                    h2, e2 = child[j][b][bits[i][a]]
                    key = (h1 + h2, e1 + e2)
                    tally[key] = tally.get(key, 0) + 1
            w = win[i] * win[j] * Fraction(1, n * n)
            for key, count in tally.items():
                pair_law[key] = pair_law.get(key, Fraction(0)) + w * count

    he_law = {(0, 0): Fraction(1)}
    for _ in range(lam // 2):
        nxt = {}
        for (hh, ee), p in he_law.items():
            for (dh, de), q in pair_law.items():
                key = (hh + dh, ee + de)
                nxt[key] = nxt.get(key, Fraction(0)) + p * q
        he_law = nxt

    dist = {}

    def add(count, p):
        dist[count] = dist.get(count, Fraction(0)) + p

    for (h, e), p in he_law.items():
        if alpha + h + e <= mu:
            add(h if h >= 1 else e, p)
            continue
        total = math.comb(alpha + e + h, mu)
        for j in range(max(0, mu - alpha - e), min(h, mu) + 1):
            pj = Fraction(math.comb(h, j) * math.comb(alpha + e, mu - j), total)
            add(j if j >= 1 else mu - alpha, p * pj)

    p_one = dist.get(1, Fraction(0))
    p_any = sum((p for c, p in dist.items() if c >= 1), Fraction(0))
    return ExactGenerationResult(p_one, p_any, dist)


def _random_population(rng, fitness, mu):
    bits = rng.integers(0, 2, size=(mu, fitness.n))
    return PopulationSpec.from_strings(["".join(map(str, row)) for row in bits], fitness)


def _reference_inputs():
    """(label, spec, lambda): the small and monotone fixtures, 40 random
    OneMax and plateau populations, and 12 random populations at the limits."""
    out = [(label, spec, lam) for label, spec, lam in SMALL_FIXTURES]
    out += [(f"monotone{i}-lam{lam}", spec, lam)
            for i, spec in enumerate(MONOTONE_FIXTURES) for lam in (2, 4, 6)]
    rng = np.random.default_rng(1515)
    for i in range(40):
        n = int(rng.integers(2, ENUM_MAX_N + 1))
        mu = int(rng.integers(2, ENUM_MAX_MU + 1))
        lam = int(rng.choice([2, 4, 6]))
        if i % 2:
            gamma = int(rng.choice([d for d in range(2, n + 1) if n % d == 0]))
            fitness = FitnessSpec.plateau(n, gamma)
        else:
            fitness = FitnessSpec.onemax(n)
        out.append((f"random{i}-{fitness.kind}", _random_population(rng, fitness, mu), lam))
    for i in range(12):
        spec = _random_population(rng, FitnessSpec.onemax(ENUM_MAX_N), ENUM_MAX_MU)
        out.append((f"limit{i}", spec, ENUM_MAX_LAM))
    return out


REFERENCE_INPUTS = _reference_inputs()


@pytest.mark.parametrize("spec,lam", [(spec, lam) for _, spec, lam in REFERENCE_INPUTS],
                         ids=[label for label, _, _ in REFERENCE_INPUTS])
def test_enumeration_equals_the_position_pair_reference(spec, lam):
    got = exact_generation_success(spec, lam)
    want = reference_exact_generation_success(spec, lam)
    assert got == want
    assert list(got.elite_count_distribution) == list(want.elite_count_distribution)


# --- Monte-Carlo agreement ---------------------------------------------------


def test_monte_carlo_requires_enough_trials():
    spec = PopulationSpec.from_strings(["10", "01"], FitnessSpec.onemax(2))
    with pytest.raises(ValueError):
        monte_carlo_success(spec, 2, 999, make_rng(1))


@pytest.mark.parametrize(
    "spec,lam,seed",
    [
        (PopulationSpec.from_strings(["10", "01"], FitnessSpec.onemax(2)), 2, 11),
        (PopulationSpec.from_level_counts(8, 4, 1, 2, 1), 4, 12),
        (PopulationSpec.from_level_counts(6, 3, 2, 1, 1), 2, 13),
    ],
)
def test_engine_matches_enumeration(spec, lam, seed):
    exact = exact_generation_success(spec, lam)
    mc = monte_carlo_success(spec, lam, 20_000, make_rng(seed))
    assert mc.p_exactly_one_new_elite == pytest.approx(
        float(exact.p_exactly_one_new_elite), abs=4 * mc.se_exactly_one + 1e-9
    )
    assert mc.p_at_least_one_new_elite == pytest.approx(
        float(exact.p_at_least_one_new_elite), abs=4 * mc.se_at_least_one + 1e-9
    )


@pytest.mark.parametrize("index,label,spec,lam",
                         [(i, *fixture) for i, fixture in enumerate(SMALL_FIXTURES)],
                         ids=[label for label, _, _ in SMALL_FIXTURES])
def test_scalar_engine_matches_enumeration(index, label, spec, lam):
    # The batched kernel carries the Monte-Carlo oracle; this keeps the
    # scalar step that runs use checked against the exact law as well.
    exact = exact_generation_success(spec, lam)
    pop = spec.to_population()
    k = max(m.fitness for m in pop.members)
    alpha = sum(1 for m in pop.members if m.fitness == k)
    rng = make_rng(31 + index)
    trials = 20_000
    gained = [new_elite_count(k, alpha, one_generation(pop, spec.fitness, lam, rng))
              for _ in range(trials)]
    for want, hits in ((exact.p_exactly_one_new_elite, gained.count(1)),
                       (exact.p_at_least_one_new_elite, trials - gained.count(0))):
        p = hits / trials
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(p - float(want)) <= 4 * se + 1e-9, (label, p, float(want), se)


def test_monte_carlo_rejects_odd_pool():
    spec = PopulationSpec.from_strings(["10", "01"], FitnessSpec.onemax(2))
    with pytest.raises(ValueError, match="lambda must be even and >= 2, got 3"):
        monte_carlo_success(spec, 3, 1000, make_rng(1))


def test_monte_carlo_reports_binomial_se():
    spec = PopulationSpec.from_strings(["10", "01"], FitnessSpec.onemax(2))
    mc = monte_carlo_success(spec, 2, 2_000, make_rng(3))
    p = mc.p_exactly_one_new_elite
    assert mc.se_exactly_one == pytest.approx(math.sqrt(p * (1 - p) / 2_000))
    assert sum(mc.elite_count_frequencies.values()) == pytest.approx(1.0)


# Hit counts of the seeded Monte-Carlo stream at 2 500 trials, one seed per
# population (3100 + index). At mu + lambda = 8 the trials span three blocks.
PINNED_TRIALS = 2_500
PINNED_ELITE_COUNTS = [
    {0: 1700, 1: 800},
    {0: 2500},
    {0: 133, 1: 1271, 2: 829, 3: 267},
    {0: 232, 1: 1557, 2: 711},
    {0: 95, 1: 1260, 2: 1145},
    {0: 56, 1: 1177, 2: 956, 3: 311},
    {0: 2063, 1: 437},
    {0: 1389, 1: 957, 2: 154},
]
PINNED_POPULATIONS = SMALL_FIXTURES + [
    ("lam6", PopulationSpec.from_strings(["110100", "011010"], FitnessSpec.onemax(6)), 6),
]


@pytest.mark.parametrize("index", range(len(PINNED_POPULATIONS)))
def test_monte_carlo_stream_is_pinned(index):
    label, spec, lam = PINNED_POPULATIONS[index]
    mc = monte_carlo_success(spec, lam, PINNED_TRIALS, make_rng(3100 + index))
    counts = {c: round(f * PINNED_TRIALS) for c, f in mc.elite_count_frequencies.items()}
    assert counts == PINNED_ELITE_COUNTS[index], label


# --- selection-count probe ---------------------------------------------------


def test_probe_equality_at_single_pair():
    res = representative_probe(0.3, 0.2, 2, 1)
    assert res.p_e == pytest.approx(0.06)
    assert res.p_e_star == pytest.approx(0.06)
    assert res.holds


def test_probe_zero_swap_probability_is_degenerate():
    res = representative_probe(0.5, 0.0, 6, 2)
    assert res.p_e == 0.0
    assert res.p_e_star == 0.0
    assert res.holds


def test_probe_validation():
    with pytest.raises(ValueError):
        representative_probe(1.2, 0.5, 4, 1)
    with pytest.raises(ValueError):
        representative_probe(0.5, -0.1, 4, 1)
    with pytest.raises(ValueError):
        representative_probe(0.5, 0.5, 5, 1)
    with pytest.raises(ValueError):
        representative_probe(0.5, 0.5, 4, 0)
    with pytest.raises(ValueError):
        representative_probe(0.5, 0.5, 4, 3)


def test_probe_region_only_trivial_points_hold():
    results = probe_region()
    m_counts = sum(lam // 2 for lam in DEFAULT_PROBE_GRID["lam"])
    grid_size = len(DEFAULT_PROBE_GRID["p_sel"]) * len(DEFAULT_PROBE_GRID["phi"])
    assert len(results) == m_counts * grid_size
    holding = [r for r in results if r.holds]
    assert len(holding) == grid_size
    assert all(r.lam == 2 and r.m == 1 for r in holding)


# --- plateau comparison ------------------------------------------------------


def test_plateau_comparison_validation():
    with pytest.raises(ValueError):
        plateau_comparison(10, 3, 4, 4, 1000, make_rng(1))
    with pytest.raises(ValueError):
        plateau_comparison(12, 3, 1, 4, 1000, make_rng(1))
    with pytest.raises(ValueError):
        plateau_comparison(6, 6, 4, 4, 1000, make_rng(1))


@pytest.mark.parametrize("lam,trials,message", [
    (4, 0, "trials must be >= 1, got 0"),
    (4, -5, "trials must be >= 1, got -5"),
    (3, 1000, "lambda must be even and >= 2, got 3"),
])
def test_plateau_comparison_rejects_bad_pool_or_trial_count(lam, trials, message):
    with pytest.raises(ValueError, match=message):
        plateau_comparison(12, 3, 4, lam, trials, make_rng(1))


def test_front_gain_is_harder_on_the_plateau():
    res = plateau_comparison(12, 3, 4, 4, 3_000, make_rng(5))
    assert res.ordering_holds
    assert res.p_f1 - res.p_f2 > 4 * res.combined_se


def test_single_bit_bins_remove_the_gap():
    res = plateau_comparison(12, 1, 4, 4, 3_000, make_rng(7))
    assert abs(res.p_f1 - res.p_f2) <= 4 * res.combined_se


@pytest.mark.parametrize("gamma,seed,front_hits", [(3, 3201, (2424, 1074)),
                                                   (1, 3202, (2255, 2263))])
def test_plateau_stream_is_pinned(gamma, seed, front_hits):
    res = plateau_comparison(12, gamma, 4, 4, PINNED_TRIALS, make_rng(seed))
    assert (round(res.p_f1 * PINNED_TRIALS), round(res.p_f2 * PINNED_TRIALS)) == front_hits


def test_standard_errors_shrink_with_sqrt_trials():
    a = plateau_comparison(12, 3, 4, 4, 1_000, make_rng(9))
    b = plateau_comparison(12, 3, 4, 4, 4_000, make_rng(9))
    assert b.se_f2 == pytest.approx(a.se_f2 / 2, rel=0.25)
    c = PlateauComparison(p_f1=0.5, se_f1=0.3, p_f2=0.25, se_f2=0.4, trials=10)
    assert c.combined_se == pytest.approx(0.5)
    assert c.ordering_holds
