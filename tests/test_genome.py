import pytest
from hypothesis import given
from hypothesis import strategies as st

from bitswap_ea.genome import (
    Genome,
    Individual,
    Population,
    make_rng,
    mix_seed,
    random_genome,
    random_genomes,
)


def test_string_round_trip():
    g = Genome.from_string("10110")
    assert str(g) == "10110"
    assert g.n == 5


def test_ones():
    assert Genome.from_string("1101").ones == 3


def test_validation():
    with pytest.raises(ValueError):
        Genome(0, 0)
    with pytest.raises(ValueError):
        Genome(3, 8)
    with pytest.raises(ValueError):
        Genome.from_string("10x")
    with pytest.raises(ValueError):
        Genome.from_string("")


# Frozen outputs of the seed mixer. Existing sweep results are addressed by
# these values, so a change here is a reproducibility break, not a refactor.
def test_mix_seed_frozen_values():
    assert mix_seed(0) == 16294208416658607535
    assert mix_seed(20240817, 64, 2, 2, 0) == 223227985495758994


def test_mix_seed_is_sensitive_to_every_part():
    base = mix_seed(1, 2, 3)
    assert mix_seed(1, 2, 4) != base
    assert mix_seed(1, 3, 3) != base
    assert mix_seed(2, 2, 3) != base
    assert 0 <= base < 2**64


def test_random_genome_deterministic():
    a = random_genome(50, make_rng(9))
    b = random_genome(50, make_rng(9))
    c = random_genome(50, make_rng(10))
    assert a == b
    assert a != c
    assert a.n == 50


@given(st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_random_genome_length_and_range(n, seed):
    g = random_genome(n, make_rng(seed))
    assert g.n == n
    assert 0 <= g.word < (1 << n)


@pytest.mark.parametrize("count, n", [(2, 32), (3, 7), (64, 128), (5, 33), (4, 1), (1, 9)])
def test_random_genomes_draw_as_one_call_per_genome(count, n):
    # one (count, n) draw gives the genomes, in order, and the generator state
    # of count draws of n bits, each bit string read leftmost first
    for seed in range(50):
        ours, ref = make_rng(seed), make_rng(seed)
        expected = [Genome.from_string("".join(map(str, ref.integers(0, 2, size=n))))
                    for _ in range(count)]
        assert random_genomes(n, count, ours) == expected
        assert ours.bit_generator.state == ref.bit_generator.state
        assert random_genome(n, make_rng(seed)) == expected[0]


def test_random_genome_bit_balance():
    # 2000 * 64 fair bits; allow 6 sigma around the mean
    total = sum(random_genome(64, make_rng(s)).ones for s in range(2000))
    mean = 2000 * 32
    assert abs(total - mean) < 6 * (2000 * 64 * 0.25) ** 0.5


def test_population_size():
    pop = Population(
        (
            Individual(2, 2, 0b110),
            Individual(1, 1, 0b100),
        )
    )
    assert pop.mu == 2
