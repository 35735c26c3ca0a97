import pytest
from hypothesis import given
from hypothesis import strategies as st

from bitswap_ea.fitness import (
    ONEMAX,
    PLATEAU,
    FitnessSpec,
    evaluate,
    is_optimum,
    make_individual,
)
from bitswap_ea.genome import Genome, make_rng, random_genome


def test_onemax_counts_ones():
    spec = FitnessSpec.onemax(6)
    assert evaluate(spec, Genome.from_string("101101")) == (4, 4)
    assert evaluate(spec, Genome.from_string("000000")) == (0, 0)
    assert evaluate(spec, Genome.from_string("111111")) == (6, 6)


def test_plateau_counts_complete_bins():
    spec = FitnessSpec.plateau(6, 3)
    assert evaluate(spec, Genome.from_string("111111")) == (2, 6)
    assert evaluate(spec, Genome.from_string("111110")) == (1, 5)
    assert evaluate(spec, Genome.from_string("110111")) == (1, 5)
    assert evaluate(spec, Genome.from_string("110110")) == (0, 4)


def test_plateau_bin_partition_is_contiguous():
    spec = FitnessSpec.plateau(9, 3)
    # exactly one full bin regardless of which one
    for text in ("111000000", "000111000", "000000111"):
        assert evaluate(spec, Genome.from_string(text))[0] == 1


def test_aux_is_always_the_ones_count():
    spec = FitnessSpec.plateau(8, 4)
    g = random_genome(8, make_rng(3))
    _, aux = evaluate(spec, g)
    assert aux == g.ones


@given(st.integers(1, 120), st.integers(0, 2**32 - 1))
def test_gamma_one_degenerates_to_ones_count(n, seed):
    g = random_genome(n, make_rng(seed))
    assert evaluate(FitnessSpec.plateau(n, 1), g) == evaluate(FitnessSpec.onemax(n), g)


def test_spec_validation():
    with pytest.raises(ValueError):
        FitnessSpec.plateau(10, 3)  # 3 does not divide 10
    with pytest.raises(ValueError):
        FitnessSpec.plateau(8, 0)
    with pytest.raises(ValueError):
        FitnessSpec(kind="onemax", n=8, gamma=2)
    with pytest.raises(ValueError):
        FitnessSpec.onemax(0)
    with pytest.raises(ValueError):
        FitnessSpec(kind="minimize_zeros", n=8)


@pytest.mark.parametrize("kind, gamma, expected", [
    (ONEMAX, None, FitnessSpec.onemax(12)),
    (PLATEAU, 1, FitnessSpec.plateau(12, 1)),
    (PLATEAU, 3, FitnessSpec.plateau(12, 3)),
    (ONEMAX, 1, FitnessSpec.onemax(12)),
    (ONEMAX, 3, None),
    (PLATEAU, None, FitnessSpec.plateau(12, 1)),
], ids=["run-no-gamma", "run-gamma1", "run-gamma3", "config-onemax-gamma1",
        "config-onemax-gamma3", "config-plateau-no-gamma"])
def test_spec_of_covers_flags_and_configs(kind, gamma, expected):
    # `run` passes PLATEAU exactly when --gamma is given, so --gamma 1 is
    # plateau(n, 1); a config passes its fitness and gamma keys as they are
    if expected is None:
        with pytest.raises(ValueError, match="gamma is only meaningful"):
            FitnessSpec.of(kind, 12, gamma)
    else:
        assert FitnessSpec.of(kind, 12, gamma) == expected


def test_bin_count_and_max_fitness():
    assert FitnessSpec.plateau(12, 3).bin_count == 4
    assert FitnessSpec.plateau(12, 3).max_fitness == 4
    assert FitnessSpec.onemax(12).max_fitness == 12


def test_is_optimum():
    spec = FitnessSpec.plateau(6, 2)
    assert is_optimum(spec, Genome.from_string("111111"))
    assert not is_optimum(spec, Genome.from_string("111101"))


def test_make_individual_caches_both_values():
    spec = FitnessSpec.plateau(6, 3)
    ind = make_individual(spec, Genome.from_string("111011"))
    assert ind.fitness == 1
    assert ind.aux == 5


@given(st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_plateau_fitness_bounded_by_bin_count(n_bins, seed):
    spec = FitnessSpec.plateau(3 * n_bins, 3)
    g = random_genome(3 * n_bins, make_rng(seed))
    fitness, aux = evaluate(spec, g)
    assert 0 <= fitness <= n_bins
    # a complete bin costs 3 ones, the rest can hold at most 2 each
    assert aux >= 3 * fitness
    assert aux <= 3 * fitness + 2 * (n_bins - fitness)
