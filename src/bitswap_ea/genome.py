"""Bitstring genomes, individuals, populations and the deterministic RNG contract.

Genomes are stored as packed machine words (a Python int) with position 0 at
the leftmost end, so ``str(genome)`` reads in index order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RandomSource = np.random.Generator

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def make_rng(seed: int) -> RandomSource:
    """Deterministic generator: identical seed, identical draw sequence."""
    return np.random.default_rng(seed)


def mix_seed(*parts: int) -> int:
    """Collapse integer parts into one 64-bit seed (splitmix64 finalizer).

    Used to derive per-replication seeds from a base seed plus cell
    coordinates, so every stream is independent of grid layout.
    """
    state = 0
    for part in parts:
        state = (state + _SPLITMIX_GAMMA + (int(part) & _MASK64)) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        state = z ^ (z >> 31)
    return state


@dataclass(frozen=True, slots=True)
class Genome:
    """Fixed-length bitstring. ``word`` packs the bits, leftmost bit first."""

    n: int
    word: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"genome length must be >= 1, got {self.n}")
        if not 0 <= self.word < (1 << self.n):
            raise ValueError("packed word out of range for genome length")

    @classmethod
    def from_string(cls, text: str) -> "Genome":
        if not text or set(text) - {"0", "1"}:
            raise ValueError(f"genome text must be nonempty 0/1 string, got {text!r}")
        return cls(len(text), int(text, 2))

    @property
    def ones(self) -> int:
        return self.word.bit_count()

    def __str__(self) -> str:
        return format(self.word, f"0{self.n}b")


def random_genomes(n: int, count: int, rng: RandomSource) -> list[Genome]:
    """``count`` uniform random genomes, each bit drawn independently fair.

    One ``rng.integers(0, 2, size=(count, n))`` call, a genome per row: the
    values and generator state of ``count`` calls with ``size=n``.
    """
    if n < 1:
        raise ValueError(f"genome length must be >= 1, got {n}")
    packed = np.packbits(rng.integers(0, 2, size=(count, n)).astype(np.uint8), axis=1)
    pad = (8 - n % 8) % 8
    return [Genome(n, int.from_bytes(row.tobytes(), "big") >> pad) for row in packed]


def random_genome(n: int, rng: RandomSource) -> Genome:
    """Uniform random genome: ``random_genomes``' one-member case."""
    return random_genomes(n, 1, rng)[0]


@dataclass(frozen=True, slots=True)
class Individual:
    """Genome plus its cached fitness and auxiliary value."""

    genome: Genome
    fitness: int
    aux: int


@dataclass(frozen=True, slots=True)
class Population:
    members: tuple[Individual, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("population must be nonempty")

    @property
    def mu(self) -> int:
        return len(self.members)
