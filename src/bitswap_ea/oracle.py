"""Ground truth: exact one-generation enumeration, Monte-Carlo checks,
the selection-inequality probe, and the plateau comparison experiment.

The enumeration groups each member's swap positions into classes (the bit
there and what the two possible children score), tallies integer weights
over class pairs, convolves and folds them in integers, and makes one
``Fraction`` per elite count at the end.

The enumerator and the engine share one probability model: with-replacement
tournament draws, fair-coin ties, independent uniform swap positions, and the
elitist replace rule. Agreement tests are meaningless otherwise.

The Monte-Carlo oracles step their fixed populations with the engine's batched
kernel, ``one_generation_blocks``, which draws from the same law as the scalar
reference step, ``one_generation``. The enumerator evaluates its own swap
children and shares no table with the kernel, so it stays an independent
check on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .engine import classify_partition, one_generation_blocks
from .fitness import FitnessSpec, evaluate_word, make_individual
from .genome import Genome, Individual, Population, RandomSource

ENUM_MAX_MU = 6
ENUM_MAX_LAM = 6
ENUM_MAX_N = 12


@dataclass(frozen=True, slots=True)
class PopulationSpec:
    """Explicit small population, expanded deterministically from genomes."""

    genomes: tuple[Genome, ...]
    fitness: FitnessSpec

    def __post_init__(self) -> None:
        for g in self.genomes:
            if g.n != self.fitness.n:
                raise ValueError("genome length does not match fitness spec")

    @classmethod
    def from_strings(cls, texts: list[str], fitness: FitnessSpec) -> "PopulationSpec":
        return cls(tuple(Genome.from_string(t) for t in texts), fitness)

    @classmethod
    def from_level_counts(
        cls, n: int, k: int, alpha: int, beta1: int, beta_minus1: int
    ) -> "PopulationSpec":
        """Canonical ones-counting population: leading-ones genomes with
        alpha members at fitness k, beta1 at k-1, the rest at max(k-2, 0)."""
        if alpha < 1 or beta1 < 0 or beta_minus1 < 0:
            raise ValueError("counts must be alpha >= 1, beta1, beta_minus1 >= 0")
        if beta1 > 0 and k < 1 or beta_minus1 > 0 and k < 2:
            raise ValueError("lower levels need k high enough to sit below")
        if not 0 <= k <= n:
            raise ValueError(f"k must be in [0, n], got {k}")
        genomes = (
            [_leading_ones(n, k)] * alpha
            + [_leading_ones(n, k - 1)] * beta1
            + [_leading_ones(n, max(k - 2, 0))] * beta_minus1
        )
        return cls(tuple(genomes), FitnessSpec.onemax(n))

    @property
    def mu(self) -> int:
        return len(self.genomes)

    def to_population(self) -> Population:
        return Population(
            tuple(make_individual(self.fitness, g) for g in self.genomes)
        )


def _leading_ones(n: int, c: int) -> Genome:
    """The length-``n`` genome of ``c`` ones followed by zeros."""
    return Genome(n, ((1 << c) - 1) << (n - c))


def _top_level(members: tuple[Individual, ...]) -> tuple[int, int]:
    """The best fitness among ``members`` and how many of them hold it."""
    fitness = [ind.fitness for ind in members]
    best = max(fitness)
    return best, fitness.count(best)


def _bernoulli_se(hits: int, trials: int) -> float:
    """Standard error of the hit frequency ``hits / trials``."""
    p = hits / trials
    return math.sqrt(p * (1 - p) / trials)


def new_elite_count(before_k: int, before_alpha: int, after: Population) -> int:
    """Number of members at the next population's best level that were not
    already elite. A single swapped bit moves either fitness kind by at most
    one, so that level is the old one (increment over alpha counts) or one
    above it (every member there is new)."""
    best, at_best = _top_level(after.members)
    return at_best - before_alpha if best == before_k else at_best


@dataclass(frozen=True, slots=True)
class ExactGenerationResult:
    """Exact-rational law of the new-elite count after one generation."""

    alpha_before: int
    p_exactly_one_new_elite: Fraction
    p_at_least_one_new_elite: Fraction
    elite_count_distribution: dict[int, Fraction]


def exact_generation_success(spec: PopulationSpec, lam: int) -> ExactGenerationResult:
    """Full enumeration of one generation, exact to the rational arithmetic."""
    mu = spec.mu
    n = spec.fitness.n
    if lam < 2 or lam % 2 != 0:
        raise ValueError(f"lambda must be even and >= 2, got {lam}")
    if mu > ENUM_MAX_MU or lam > ENUM_MAX_LAM or n > ENUM_MAX_N:
        raise ValueError(
            f"enumeration limited to mu <= {ENUM_MAX_MU}, lambda <= {ENUM_MAX_LAM}, "
            f"n <= {ENUM_MAX_N}; got mu={mu}, lambda={lam}, n={n}"
        )

    members = spec.to_population().members
    k, alpha = _top_level(members)

    # Slot winner law in units of 1/(2 mu^2): both draws uniform with
    # replacement, a strict win adds 2 and a tie adds 1 to each side.
    win = [0] * mu
    for i in range(mu):
        for j in range(mu):
            fi, fj = members[i].fitness, members[j].fitness
            if fi > fj:
                win[i] += 2
            elif fj > fi:
                win[j] += 2
            else:
                win[i] += 1
                win[j] += 1

    # A swap sets position a of one parent to the other parent's bit at b.
    # Positions of a member fall into classes by (bit at a, the (above k,
    # at k) indicators of the child with a set to 0, the same with a set to
    # 1); each member keeps a count per class, in order of first position,
    # so the laws below meet their keys in the order a scan over position
    # pairs would, and the elite count distribution keeps that key order.
    def indicators(word: int) -> tuple[bool, bool]:
        f = evaluate_word(spec.fitness, word)[0]
        return f > k, f == k

    classes = []
    for ind in members:
        word = ind.genome.word
        tally: dict[tuple, int] = {}
        for a in range(n):
            bit = 1 << (n - 1 - a)
            key = (word & bit != 0, (indicators(word & ~bit), indicators(word | bit)))
            tally[key] = tally.get(key, 0) + 1
        classes.append(tally)

    # One pair's joint law of offspring one level above k (h) and at k (e),
    # in units of 1/D with D = (2 mu^2 n)^2. Pairs are iid given the fixed
    # parent population, so one law covers all. A class pair stands for
    # c_i * c_j position pairs of the same key and weight.
    pair_law: dict[tuple[int, int], int] = {}
    for i in range(mu):
        if win[i] == 0:
            continue
        for j in range(mu):
            if win[j] == 0:
                continue
            wij = win[i] * win[j]
            for (v1, row_i), c_i in classes[i].items():
                for (v2, row_j), c_j in classes[j].items():
                    h1, e1 = row_i[v2]
                    h2, e2 = row_j[v1]
                    key = (h1 + h2, e1 + e2)
                    pair_law[key] = pair_law.get(key, 0) + wij * c_i * c_j

    # The lambda/2 pairs' law, in units of 1/whole.
    whole = ((2 * mu * mu * n) ** 2) ** (lam // 2)
    he_law: dict[tuple[int, int], int] = {(0, 0): 1}
    for _ in range(lam // 2):
        nxt: dict[tuple[int, int], int] = {}
        for (hh, ee), p in he_law.items():
            for (dh, de), q in pair_law.items():
                key = (hh + dh, ee + de)
                nxt[key] = nxt.get(key, 0) + p * q
        he_law = nxt

    # Fold through replace, in units of 1/(whole * scale), where scale is a
    # multiple of every C(pool, mu). Without overflow every qualifying
    # offspring enters; with overflow a uniform mu-subset of the combined
    # elite pool survives, so the above-level survivor count is
    # hypergeometric.
    scale = math.lcm(*(math.comb(pool, mu) for pool in range(mu, alpha + lam + 1)))
    weights: dict[int, int] = {}

    def add(count: int, p: int) -> None:
        weights[count] = weights.get(count, 0) + p

    for (h, e), p in he_law.items():
        if alpha + h + e <= mu:
            add(h if h >= 1 else e, p * scale)
            continue
        unit = scale // math.comb(alpha + e + h, mu)
        for j in range(max(0, mu - alpha - e), min(h, mu) + 1):
            pj = math.comb(h, j) * math.comb(alpha + e, mu - j) * unit
            add(j if j >= 1 else mu - alpha, p * pj)

    dist = {c: Fraction(w, whole * scale) for c, w in weights.items()}
    p_one = dist.get(1, Fraction(0))
    p_any = sum((p for c, p in dist.items() if c >= 1), Fraction(0))
    return ExactGenerationResult(alpha, p_one, p_any, dist)


@dataclass(frozen=True, slots=True)
class MonteCarloResult:
    trials: int
    p_exactly_one_new_elite: float
    se_exactly_one: float
    p_at_least_one_new_elite: float
    se_at_least_one: float
    elite_count_frequencies: dict[int, float]


def monte_carlo_success(
    spec: PopulationSpec, lam: int, trials: int, rng: RandomSource
) -> MonteCarloResult:
    """Empirical law of the same events, from ``trials`` independent
    generations of the engine's law, stepped by ``one_generation_blocks``."""
    if trials < 1_000:
        raise ValueError(f"trials must be >= 1000, got {trials}")
    pop = spec.to_population()
    k, alpha = _top_level(pop.members)

    counts = np.zeros(pop.mu + 1, dtype=np.int64)
    for fitness, _ in one_generation_blocks(pop, spec.fitness, lam, trials, rng):
        # new_elite_count, row by row
        best = fitness.max(axis=1)
        at_best = (fitness == best[:, None]).sum(axis=1)
        gained = np.where(best == k, at_best - alpha, at_best)
        counts += np.bincount(gained, minlength=pop.mu + 1)
    one = int(counts[1])
    any_ = trials - int(counts[0])
    return MonteCarloResult(
        trials=trials,
        p_exactly_one_new_elite=one / trials,
        se_exactly_one=_bernoulli_se(one, trials),
        p_at_least_one_new_elite=any_ / trials,
        se_at_least_one=_bernoulli_se(any_, trials),
        elite_count_frequencies={c: int(h) / trials for c, h in enumerate(counts) if h},
    )


# --- selection-count probe ------------------------------------------------


@dataclass(frozen=True, slots=True)
class ProbeResult:
    """Single-representative event probability vs the multi-source sum."""

    p_sel: float
    phi: float
    lam: int
    m: int
    p_e: float
    p_e_star: float

    @property
    def holds(self) -> bool:
        return self.p_e_star >= self.p_e


def representative_probe(p_sel: float, phi: float, lam: int, m: int) -> ProbeResult:
    """Compare lambda/2 * p_sel * phi against the exact sum over r source
    pairs each carrying one success chance."""
    if not 0 <= p_sel <= 1 or not 0 <= phi <= 1:
        raise ValueError("p_sel and phi must be in [0, 1]")
    if lam < 2 or lam % 2 != 0:
        raise ValueError(f"lambda must be even and >= 2, got {lam}")
    half = lam // 2
    if not 1 <= m <= half:
        raise ValueError(f"m must be in [1, lambda/2], got {m}")

    p_e = half * p_sel * phi
    p_e_star = math.fsum(
        math.comb(half, r)
        * p_sel**r
        * (1 - p_sel) ** (half - r)
        * r
        * phi
        * (1 - phi) ** (r - 1)
        for r in range(1, m + 1)
    )
    return ProbeResult(p_sel, phi, lam, m, p_e, p_e_star)


DEFAULT_PROBE_GRID = {
    "p_sel": [0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9],
    "phi": [0.05, 0.1, 0.2, 0.3, 0.5],
    "lam": [2, 4, 6, 10, 16, 20],
}


def probe_region() -> list[ProbeResult]:
    """Probe results over the full (p_sel, phi, lambda, m) DEFAULT_PROBE_GRID."""
    g = DEFAULT_PROBE_GRID
    out = []
    for lam in g["lam"]:
        for m in range(1, lam // 2 + 1):
            for p_sel in g["p_sel"]:
                for phi in g["phi"]:
                    out.append(representative_probe(p_sel, phi, lam, m))
    return out


# --- plateau comparison ----------------------------------------------------


@dataclass(frozen=True, slots=True)
class PlateauComparison:
    p_f1: float
    se_f1: float
    p_f2: float
    se_f2: float
    trials: int

    @property
    def ordering_holds(self) -> bool:
        return self.p_f2 <= self.p_f1

    @property
    def combined_se(self) -> float:
        return math.sqrt(self.se_f1**2 + self.se_f2**2)


def _plateau_genomes(n: int, gamma: int, mu: int) -> list[Genome]:
    # Leading-ones genomes: the front member holds 2*gamma-1 ones (one full
    # bin plus a nearly full one), the others one fewer. Under bin counting
    # that is one super-elite member among fitness ties; under plain ones
    # counting, one elite member. At gamma=1 the two readings coincide.
    if n // gamma < 2 and gamma > 1:
        raise ValueError("need at least two bins to leave a partial bin")
    return [_leading_ones(n, 2 * gamma - 1)] + [_leading_ones(n, 2 * gamma - 2)] * (mu - 1)


def plateau_comparison(
    n: int, gamma: int, mu: int, lam: int, trials: int, rng: RandomSource
) -> PlateauComparison:
    """One-generation probability of gaining a front member, plain ones
    counting vs the plateau function, on populations with identical genomes.

    The front is the best (fitness, aux) pair; for plain ones counting that
    degenerates to the elite level. On plateaus selection and replacement see
    only the coarse fitness, so front offspring must survive an undirected
    replacement, which is the mechanism the comparison exposes.
    """
    # FitnessSpec checks n, the bin width and their fit before any genome.
    specs = (FitnessSpec.onemax(n), FitnessSpec.plateau(n, gamma))
    if mu < 2:
        raise ValueError(f"mu must be >= 2, got {mu}")
    genomes = _plateau_genomes(n, gamma, mu)

    results = []
    for spec in specs:
        pop = Population(tuple(make_individual(spec, g) for g in genomes))
        part = classify_partition(pop)
        hits = 0
        for fitness, aux in one_generation_blocks(pop, spec, lam, trials, rng):
            front = (fitness > part.k) | ((fitness == part.k) & (aux >= part.best_aux))
            hits += int((front.sum(axis=1) > part.alpha_star).sum())
        results.append((hits / trials, _bernoulli_se(hits, trials)))

    (p1, se1), (p2, se2) = results
    return PlateauComparison(p1, se1, p2, se2, trials)
