"""Fitness functions: plain ones-counting and the plateau royal-road variant.

The plateau function splits the genome into ``n / gamma`` contiguous bins and
scores one point per bin that is all ones. The auxiliary value is always the
raw ones count; on plateaus it is the only signal that distinguishes members
of the same fitness level. ``gamma = 1`` degenerates to ones counting and is
allowed so the degeneracy is testable, but the plateau structure is only
meaningful for ``gamma >= 2``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .genome import Genome, Individual

ONEMAX = "onemax"
PLATEAU = "plateau_royal_road"


@dataclass(frozen=True, slots=True)
class FitnessSpec:
    kind: str
    n: int
    gamma: int | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.kind == ONEMAX:
            if self.gamma is not None:
                raise ValueError("gamma is only meaningful for the plateau function")
        elif self.kind == PLATEAU:
            if self.gamma is None or self.gamma < 1:
                raise ValueError(f"plateau bin width must be >= 1, got {self.gamma}")
            if self.n % self.gamma != 0:
                raise ValueError(f"n={self.n} is not a multiple of gamma={self.gamma}")
        else:
            raise ValueError(f"unknown fitness kind {self.kind!r}")

    @classmethod
    def of(cls, kind: str, n: int, gamma: int | None = None) -> "FitnessSpec":
        """The spec a config or command line names. OneMax takes no bin width
        or the degenerate 1; the plateau function without one has width 1."""
        if kind == ONEMAX and gamma == 1:
            gamma = None
        elif kind == PLATEAU and gamma is None:
            gamma = 1
        return cls(kind, n, gamma)

    @classmethod
    def onemax(cls, n: int) -> "FitnessSpec":
        return cls(ONEMAX, n)

    @classmethod
    def plateau(cls, n: int, gamma: int) -> "FitnessSpec":
        return cls(PLATEAU, n, gamma)

    @property
    def bin_count(self) -> int:
        if self.kind != PLATEAU:
            raise ValueError("bin_count is only defined for the plateau function")
        assert self.gamma is not None
        return self.n // self.gamma

    @property
    def max_fitness(self) -> int:
        return self.bin_count if self.kind == PLATEAU else self.n


def evaluate(spec: FitnessSpec, genome: Genome) -> tuple[int, int]:
    """Return (fitness, aux). Aux is the ones count for both kinds."""
    if genome.n != spec.n:
        raise ValueError(f"genome length {genome.n} does not match spec n={spec.n}")
    return evaluate_word(spec, genome.word)


def evaluate_word(spec: FitnessSpec, word: int) -> tuple[int, int]:
    """``evaluate`` on a packed word of ``spec.n`` bits, without the length check."""
    ones = word.bit_count()
    if spec.kind == ONEMAX:
        return ones, ones
    gamma = spec.gamma
    full = (1 << gamma) - 1
    fitness = 0
    for b in range(spec.bin_count):
        if (word >> (b * gamma)) & full == full:
            fitness += 1
    return fitness, ones


def make_individual(spec: FitnessSpec, genome: Genome) -> Individual:
    return Individual(*evaluate(spec, genome), genome.word)


def is_optimum(spec: FitnessSpec, genome: Genome) -> bool:
    """All-ones genome; equivalently fitness equals its maximum."""
    return evaluate(spec, genome)[0] == spec.max_fitness
