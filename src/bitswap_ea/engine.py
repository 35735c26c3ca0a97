"""Elitist (mu+lambda) engine built on one-bit-swap recombination.

Each generation runs ``lambda`` binary tournaments (drawn with replacement,
fair coin on fitness ties), pairs consecutive winners into ``lambda/2``
recombination pairs, exchanges one uniformly chosen bit value between the two
parents of each pair, and replaces the population elitist-first.

Draw layout. A generation draws its whole pool as ``lambda`` uniforms from
``[0, mu*mu*2*n)``, and ``decode_slot`` splits each slot's integer by mixed
radix into the two competitors, the tie coin and the winner's swap position. A
uniform integer over a product of ranges is a tuple of independent uniforms, so
this is the same law as one draw per decision. The public step draws with one
``rng.integers(0, mu*mu*2*n, size=lambda)``. ``run`` draws the same values,
leaving the same generator state, with ``_lemire_draw`` (numpy's Lemire step in
Python, without the sized call's overhead) when the pool has at most
``LEMIRE_MAX_LAMBDA`` slots and the guard ``_lemire_matches_numpy`` passed at
the process's first draw (a sweep with workers runs it before it forks);
otherwise with the sized call. ``replace`` then
takes a uniform ``k``-subset of ``m`` entrants as the first ``k`` of one
``rng.shuffle`` of their list, and draws nothing when ``k`` is 0 or
``m``; at most one of its subsets is partial, so a generation makes at most
two generator calls. numpy runs the same Fisher-Yates pass for
``rng.shuffle`` of ``m`` items as for ``rng.permutation(m)``, so the subset
and the generator's state after it are those of indexing through
``rng.permutation(m)``.

``one_generation_blocks`` steps one fixed population through many independent
generations at once, for the Monte-Carlo oracles. Per block of at most
``batch_rows(mu, lambda)`` trials it makes one ``rng.integers`` call for the
block's pools and one ``rng.random`` call for its replacement keys, so its
stream is its own; the scalar step above stays the reference for the kernel.
It reads lookup tables built once per call (``_SwapTable``), works one trial
per column, and yields column-major arrays.

``run`` holds its population as one list of ``(fitness, aux, word)`` records
after ``init_population`` and builds no ``Individual`` in its loop. Its
generation is one loop body that writes out each rule of the scalar step:
``decode_slot`` and ``_winner`` for every slot, ``one_bit_swap``'s exchange,
the evaluation (``word.bit_count()`` on OneMax, ``fitness.evaluate_word``
on the plateau function) and ``_replace``'s order and shuffles. It shares
``_split`` (the best level ``k`` and the members at and below it) and
``_scan`` (``classify_partition``'s rule) with the scalar step, which wraps
its ``Individual``s as ``(fitness, aux, individual)`` records and keeps each
rule as its own function. Its draws take the same values from the generator
in the same order, so a seed gives the run that repeated ``one_generation``
calls would give; the scalar step is the reference that the tests hold
``run`` to.

``run`` also knows where the elite ends. Replacement puts the retained members
first, in population order, then the new elite (offspring at ``k``), and every
entrant after them is below ``k``. So after a generation that does not raise
``k`` the next members at ``k`` are the first ``alpha`` records and the rest
are below it, the lists a scan would build, in the same order; ``run`` slices
there and scans with ``_split`` only at start-up and after a level gain. The
stop test is ``k == spec.max_fitness``.

A traced ``run`` builds each trace row from the last one with ``_carry``,
in work that grows with lambda, not mu: the new elite updates ``best_aux``
and ``alpha_star``; below ``k`` the offspring that entered and the survivors
that replacement's shuffle dropped (it shuffles the survivors' list in
place, so they are its tail) update the best lower level and ``beta1``. It
scans with ``_scan`` at start-up, after a level gain, when the elite fills
the population (after every overflow) and when no survivor is left at the
best lower level. An untraced ``run`` keeps none of these counts.

Trace rows are ``ElitismPartition`` named tuples. A pickled ``RunRecord``
carries its trace as one flat tuple of ints, six per row, which a sweep's
forked children send back far faster than a list of row objects.

Evaluation accounting is fixed at ``mu`` initial evaluations plus ``2*lambda``
per generation (two competitors per pool slot). It is the algorithm's charge,
not a count of ``evaluate`` calls: a swap of two equal bits returns its
parents, whose values are already known.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .fitness import ONEMAX, FitnessSpec, evaluate_word, make_individual
from .genome import (
    Genome,
    Individual,
    Population,
    RandomSource,
    make_rng,
    random_genome,
    random_genomes,
)

TERMINATED_OPTIMUM = "optimum"
TERMINATED_CAP = "generation_cap"

# ``fill_pool`` draws from ``[0, mu*mu*2*n)``; that bound must fit in int64.
INT64_MAX = 2**63 - 1

# The batched step takes at most this many entrants (trials times
# mu + lambda) per pair of draws, so its working arrays grow neither with the
# trial count nor with the population.
BATCH_ENTRANTS = 8192

# A record is one member or offspring as ``(fitness, aux, word)`` in ``run``,
# or ``(fitness, aux, individual)`` in the public scalar step.
_FITNESS = itemgetter(0)
_AUX = itemgetter(1)


def default_generation_cap(mu: int, n: int) -> int:
    return math.ceil(50.0 * mu * n * math.log(n + 1))


@dataclass(frozen=True, slots=True)
class EngineConfig:
    spec: FitnessSpec
    mu: int
    lam: int
    generation_cap: int | None = None

    def __post_init__(self) -> None:
        if self.mu < 2:
            raise ValueError(f"mu must be >= 2, got {self.mu}")
        if self.lam < 2 or self.lam % 2 != 0:
            raise ValueError(f"lambda must be even and >= 2, got {self.lam}")
        if self.generation_cap is not None and self.generation_cap < 0:
            raise ValueError("generation cap must be >= 0")
        if self.mu * self.mu * 2 * self.spec.n > INT64_MAX:
            raise ValueError(
                f"mu*mu*2*n = {self.mu * self.mu * 2 * self.spec.n} does not fit "
                "the int64 pool draw"
            )

    @property
    def cap(self) -> int:
        if self.generation_cap is not None:
            return self.generation_cap
        return default_generation_cap(self.mu, self.spec.n)


class ElitismPartition(NamedTuple):
    """Population split by fitness level.

    ``alpha`` counts members at the best fitness ``k``, ``beta1`` those at the
    best strictly lower fitness actually present, ``beta_minus1`` the rest.
    ``alpha_star`` counts best-fitness members that also have the maximal
    auxiliary value (``best_aux``).
    """

    alpha: int
    beta1: int
    beta_minus1: int
    alpha_star: int
    k: int
    best_aux: int

    @property
    def total(self) -> int:
        return self.alpha + self.beta1 + self.beta_minus1


@dataclass(slots=True)
class RunRecord:
    seed: int
    spec: FitnessSpec
    mu: int
    lam: int
    generations: int
    evaluations: int
    terminated: str
    trace: list[ElitismPartition] = field(default_factory=list)

    def __reduce__(self):
        # the trace travels flat: one tuple of ints pickles and loads several
        # times faster than a list of row objects
        return _rebuild_record, (
            self.seed, self.spec, self.mu, self.lam, self.generations,
            self.evaluations, self.terminated, tuple(chain.from_iterable(self.trace)),
        )


_ROW_WIDTH = len(ElitismPartition._fields)


def _rebuild_record(seed, spec, mu, lam, generations, evaluations, terminated, flat):
    """``RunRecord.__reduce__``'s inverse: cut the flat trace back into rows."""
    trace = list(map(ElitismPartition._make, zip(*[iter(flat)] * _ROW_WIDTH)))
    return RunRecord(seed, spec, mu, lam, generations, evaluations, terminated, trace)


def _split(records: list[tuple]) -> tuple[int, list[tuple], list[tuple]]:
    """``(k, retained, survivors)``: the best fitness, then the records at it
    and those below it, each in population order."""
    k = max(map(_FITNESS, records))
    retained, survivors = [], []
    for r in records:
        (retained if r[0] == k else survivors).append(r)
    return k, retained, survivors


def _scan(k: int, retained: list[tuple], survivors: list[tuple]) -> tuple[ElitismPartition, int]:
    """``classify_partition`` from ``_split``'s lists, and the best level
    below ``k`` (-1 when there are no survivors)."""
    top_aux = list(map(_AUX, retained))
    best_aux = max(top_aux)
    lower = list(map(_FITNESS, survivors))
    low = max(lower) if lower else -1
    beta1 = lower.count(low)
    return ElitismPartition._make(
        (len(retained), beta1, len(lower) - beta1, top_aux.count(best_aux), k, best_aux)
    ), low


def _carry(
    row: ElitismPartition, low: int, pop: list[tuple], alpha: int,
    previous: list[tuple], lam: int,
) -> tuple[ElitismPartition, int]:
    """The trace row and best lower level after a generation that did not
    raise ``k``, from the previous ones and what the generation changed.

    ``pop`` is the next population in ``_replace``'s order, its first
    ``alpha`` members at ``k``, and ``previous`` the survivors that
    replacement was given, shuffled as it left them. The new elite joined
    the members at ``k``; below ``k`` the offspring that entered lead
    ``pop[alpha:]`` and the dropped survivors are the tail of ``previous``.
    ``alpha`` is below ``mu``, so there was no overflow. Scans, as ``_scan``
    does, only when no survivor is left at ``low``.
    """
    mu = len(pop)
    start, beta1, _, alpha_star, k, best_aux = row
    for _, aux, _ in pop[start:alpha]:
        if aux > best_aux:
            best_aux, alpha_star = aux, 1
        elif aux == best_aux:
            alpha_star += 1
    # the slots below ``k`` and the offspring below it: the fewer of them entered
    space, rest = mu - alpha, lam - alpha + start
    entered = rest if rest < space else space
    for fitness, _, _ in previous[space - entered:]:
        if fitness == low:
            beta1 -= 1
    for fitness, _, _ in pop[alpha:alpha + entered]:
        if fitness > low:
            low, beta1 = fitness, 1
        elif fitness == low:
            beta1 += 1
    if not beta1:
        return _scan(k, pop[:alpha], pop[alpha:])
    row = (alpha, beta1, mu - alpha - beta1, alpha_star, k, best_aux)
    return ElitismPartition._make(row), low


def _records(members) -> list[tuple]:
    """``Individual``s as ``(fitness, aux, individual)`` records."""
    return [(ind.fitness, ind.aux, ind) for ind in members]


def classify_partition(pop: Population) -> ElitismPartition:
    return _scan(*_split(_records(pop.members)))[0]


def decode_slot(code: int, mu: int, n: int) -> tuple[int, int, int, int]:
    """Split one pool-slot draw from ``[0, mu*mu*2*n)`` into its parts.

    Mixed radix, most significant first: competitors ``i`` and ``j`` (base
    ``mu`` each), the tie coin (base 2) and the winner's swap position (base
    ``n``). A uniform code gives four independent uniforms.
    """
    rest, pos = divmod(code, n)
    rest, coin = divmod(rest, 2)
    i, j = divmod(rest, mu)
    return i, j, coin, pos


def _winner(records: list[tuple], i: int, j: int, coin: int) -> tuple:
    """Records ``i`` and ``j`` compete; higher fitness wins, ``coin`` breaks ties."""
    a, b = records[i], records[j]
    if a[0] > b[0]:
        return a
    if b[0] > a[0]:
        return b
    return b if coin else a


def _lemire_draw(rng: RandomSource, bound: int, count: int) -> Callable[[], list[int]]:
    """``count`` uniforms from ``[0, bound)`` per call: the values of
    ``rng.integers(0, bound, size=count)`` and the generator state after it,
    from numpy's own Lemire step written in Python over the bit generator's
    ``next_uint32`` (``next_uint64`` past 32 bits); no draw for a bound of 1."""
    width = 32 if bound <= 1 << 32 else 64
    ctypes = rng.bit_generator.ctypes
    nxt, state = getattr(ctypes, f"next_uint{width}"), ctypes.state
    mask, threshold = (1 << width) - 1, ((1 << width) - bound) % bound

    def draw() -> list[int]:
        out = []
        for _ in range(count):
            m = nxt(state) * bound
            while m & mask < threshold:
                m = nxt(state) * bound
            out.append(m >> width)
        return out

    return draw if bound > 1 else lambda: [0] * count


@cache
def _lemire_matches_numpy() -> bool:
    """The guard, once per process: ``_lemire_draw`` against a live
    ``Generator`` at fixed seeds, in values and state. 3 * 2**30 rejects a
    quarter of the raw draws; odd counts flip PCG64's buffered uint32 half."""
    for seed in (0, 1, 12345):
        ours, ref = make_rng(seed), make_rng(seed)
        for bound in (8, 2**11 - 1, 2**11, 2**11 + 1, 3 * 2**30,
                      2**32 - 1, 2**32, 2**32 + 1, INT64_MAX):
            for count in (1, 2, 5):
                expected = ref.integers(0, bound, size=count).tolist()
                if _lemire_draw(ours, bound, count)() != expected:
                    return False
            if ours.bit_generator.state != ref.bit_generator.state:
                return False
    return True


# Each ``next_uint32`` through ctypes costs about 0.7 us, the sized call 6 to
# 9 us whatever its size. Best of 7 x 20 000 draws, Python against numpy, in
# us (2 vCPUs, Python 3.11.7, numpy 2.4.6): lambda = 2 1.1-2.0 against 5.9-8.1,
# 8 5.8-7.1 against 6.4-9.1, 10 5.2-9.0 against 6.5-9.3, 12 10.4 against 9.1.
LEMIRE_MAX_LAMBDA = 8


def _run_draw(rng: RandomSource, bound: int, count: int) -> Callable[[], list[int]]:
    """The draw of ``run`` and ``run_rls_baseline``: ``_lemire_draw`` for at
    most ``LEMIRE_MAX_LAMBDA`` slots once the guard has passed, else numpy's."""
    if count > LEMIRE_MAX_LAMBDA or not _lemire_matches_numpy():
        return lambda: rng.integers(0, bound, size=count).tolist()
    return _lemire_draw(rng, bound, count)


def tournament_select(pop: Population, i: int, j: int, coin: int) -> Individual:
    """Members ``i`` and ``j`` compete; higher fitness wins, ``coin`` breaks ties."""
    return _winner(_records(pop.members), i, j, coin)[2]


def fill_pool(
    pop: Population, lam: int, n: int, rng: RandomSource
) -> list[tuple[Individual, Individual, int, int]]:
    """Run lambda tournaments from one draw and pair consecutive winners.

    Each pair carries its two winners' swap positions.
    """
    records, mu = _records(pop.members), pop.mu
    slots = []
    for code in rng.integers(0, mu * mu * 2 * n, size=lam).tolist():
        i, j, coin, pos = decode_slot(code, mu, n)
        slots.append((_winner(records, i, j, coin)[2], pos))
    return [(a, b, i, j) for (a, i), (b, j) in zip(slots[::2], slots[1::2])]


def one_bit_swap(
    p1: Individual, p2: Individual, i: int, j: int, spec: FitnessSpec
) -> tuple[Individual, Individual]:
    """Exchange the bit value at position ``i`` of ``p1`` with position ``j`` of ``p2``.

    Equal values leave both genomes as they are, so the parents are returned;
    unequal ones flip one bit of each genome.
    """
    n = spec.n
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"swap positions {i}, {j} out of range for n={n}")
    m1, m2 = 1 << (n - 1 - i), 1 << (n - 1 - j)
    w1, w2 = p1.genome.word, p2.genome.word
    if (w1 & m1 == 0) == (w2 & m2 == 0):
        return p1, p2
    return (make_individual(spec, Genome(n, w1 ^ m1)),
            make_individual(spec, Genome(n, w2 ^ m2)))


def _uniform_subset(items: list, k: int, rng: RandomSource) -> list:
    """A uniform ``k``-subset of ``items`` (all of them when ``k >= len(items)``).

    Draws only when ``0 < k < len(items)``: shuffles ``items`` in place and
    returns its first ``k``, so the ones it drops are its tail. The same
    elements, order and draws as ``[items[i] for i in rng.permutation(m)[:k]]``.
    """
    if 0 < k < len(items):
        rng.shuffle(items)
    return items[:k]


def _replace(
    k: int, retained: list[tuple], survivors: list[tuple], offspring: list[tuple],
    rng: RandomSource,
) -> list[tuple]:
    """``replace``'s rule on records: the next population, in order.

    ``k``, ``retained`` and ``survivors`` are ``_split`` of the members. The
    order is retained members, new elite (offspring at or above ``k``), a
    subset of the other offspring, then a subset of the survivors; on overflow
    it is a uniform ``mu``-subset of retained plus new elite. Each subset is
    ``_uniform_subset``'s, which shuffles its list in place, so the survivors
    it drops are the tail of ``survivors``.
    """
    mu = len(retained) + len(survivors)
    pop = retained + [o for o in offspring if o[0] >= k]
    if len(pop) > mu:
        return _uniform_subset(pop, mu, rng)
    rest = [o for o in offspring if o[0] < k]
    pop += _uniform_subset(rest, mu - len(pop), rng)
    return pop + _uniform_subset(survivors, mu - len(pop), rng)


def replace(
    pop: Population, offspring: list[Individual], rng: RandomSource
) -> Population:
    """Elitist replacement.

    All members at the current best fitness are retained. The remaining slots
    are filled first by offspring at or above that fitness, then by the other
    offspring drawn uniformly without replacement. If retained plus qualifying
    offspring overflow ``mu``, a uniform ``mu``-subset of that combined elite
    survives. If the offspring run out before the population is full,
    uniformly chosen non-elite survivors stay.
    """
    kept = _replace(*_split(_records(pop.members)), _records(offspring), rng)
    assert len(kept) == pop.mu
    return Population(tuple(r[2] for r in kept))


def one_generation(
    pop: Population, spec: FitnessSpec, lam: int, rng: RandomSource
) -> Population:
    """Pool, swap, replace: one full generation step."""
    offspring: list[Individual] = []
    for p1, p2, i, j in fill_pool(pop, lam, spec.n, rng):
        offspring.extend(one_bit_swap(p1, p2, i, j, spec))
    return replace(pop, offspring, rng)


@dataclass(frozen=True, slots=True)
class _SwapTable:
    """Lookup tables of a fixed population, built once for the batched step.

    ``fitness`` and ``aux`` hold the members' values. ``winner[code // n]``
    is ``m*n`` for the member ``m`` that wins a slot's tournament, by
    ``_winner``'s rule, and ``bits[m*n + p]`` is bit ``p`` of member ``m``.
    Column ``2*(m*n + p) + s`` of ``children`` holds the (fitness, aux) of
    member ``m`` with bit ``p`` flipped when ``s`` is 1 and as it is when
    ``s`` is 0: a swap of two unequal bits flips one bit of each parent.
    """

    fitness: np.ndarray
    aux: np.ndarray
    winner: np.ndarray
    bits: np.ndarray
    children: np.ndarray

    @classmethod
    def build(cls, pop: Population, spec: FitnessSpec) -> "_SwapTable":
        mu, n = pop.mu, spec.n
        ranks = [(ind.fitness, ind.aux, m) for m, ind in enumerate(pop.members)]
        winner = [_winner(ranks, *decode_slot(q * n, mu, n)[:3])[2] * n for q in range(2 * mu * mu)]
        masks = [1 << (n - 1 - p) for p in range(n)]
        words = [ind.genome.word for ind in pop.members]
        children = [value for (f, a, _), w in zip(ranks, words) for mask in masks
                    for value in ((f, a), evaluate_word(spec, w ^ mask))]
        fitness, aux, _ = np.array(ranks, dtype=np.int64).T
        return cls(
            fitness, aux,
            winner=np.array(winner, dtype=np.intp),
            bits=np.array([w & mask != 0 for w in words for mask in masks]),
            children=np.array(children, dtype=np.int64).T.copy(),
        )


def _batch_offspring(
    table: _SwapTable, codes: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Offspring ``(fitness, aux)`` of each row of pool codes, in pool order.

    Row by row this is ``fill_pool`` then ``one_bit_swap``: slot ``t`` is
    paired with slot ``t ^ 1`` and its child is its winner with the winner's
    swap position set to the partner's bit there. The results are views of
    ``(lambda, rows)`` arrays, one trial per column.
    """
    q, pos = np.divmod(codes.T, n, order="C")
    at = table.winner[q]
    at += pos
    mine = table.bits[at]
    # unequal bits flip the swap position of both winners in a pair
    pairs = at.reshape(-1, 2, len(codes))
    pairs *= 2
    pairs += (mine[0::2] != mine[1::2])[:, None]
    return table.children[0][at].T, table.children[1][at].T


def _batch_replace(
    table: _SwapTable, off_fitness: np.ndarray, off_aux: np.ndarray, keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``replace`` on each row: keep the ``mu`` smallest (class, key) entrants.

    Class 0 holds the members at the best fitness and the offspring at or
    above it, class 1 the other offspring, class 2 the other members. With
    iid uniform keys (``keys[:, :mu]`` for the members) the kept set is
    ``replace``'s: all of class 0 or a uniform ``mu``-subset of it, then
    uniform subsets of class 1 and class 2. The results are column-major.
    """
    mu, rows = len(table.fitness), len(keys)
    best = table.fitness.max()
    # one trial per column: entrant e of trial r sits at e*rows + r
    ranked = keys.T.copy()
    ranked[:mu] += np.where(table.fitness == best, 0.0, 2.0)[:, None]
    ranked[mu:] += off_fitness.T < best
    flat = np.argpartition(ranked.T, mu - 1, axis=1)[:, :mu].T.copy()
    flat *= rows
    flat += np.arange(rows)
    entrants = np.empty((2, *ranked.shape), dtype=np.int64)
    entrants[:, :mu] = np.stack([table.fitness, table.aux])[:, :, None]
    entrants[0, mu:], entrants[1, mu:] = off_fitness.T, off_aux.T
    fitness, aux = entrants.reshape(2, -1).take(flat, axis=1)
    return fitness.T, aux.T


def batch_rows(mu: int, lam: int) -> int:
    """Trials per block of ``one_generation_blocks`` at this shape."""
    return max(1, BATCH_ENTRANTS // (mu + lam))


def one_generation_blocks(
    pop: Population, spec: FitnessSpec, lam: int, trials: int, rng: RandomSource
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``trials`` independent ``one_generation`` steps of one fixed population.

    Yields the next populations' fitness and aux values block by block, as
    two column-major ``rows x mu`` integer arrays (the order within a row
    carries no meaning), so a caller that reduces each block as it comes
    holds memory flat in ``trials``. Each block of at most ``batch_rows(mu,
    lam)`` trials makes two generator calls: ``rng.integers(0, mu*mu*2*n,
    size=(rows, lam))`` for the pools, decoded as ``decode_slot`` does, and
    ``rng.random((rows, mu+lam))`` for the replacement keys. The arguments
    are checked at the first iteration.
    """
    if lam < 2 or lam % 2 != 0:
        raise ValueError(f"lambda must be even and >= 2, got {lam}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    mu, n = pop.mu, spec.n
    table = _SwapTable.build(pop, spec)
    block = batch_rows(mu, lam)
    for start in range(0, trials, block):
        rows = min(block, trials - start)
        codes = rng.integers(0, mu * mu * 2 * n, size=(rows, lam))
        keys = rng.random((rows, mu + lam))
        yield _batch_replace(table, *_batch_offspring(table, codes, n), keys)


def init_population(config: EngineConfig, rng: RandomSource) -> Population:
    spec = config.spec
    return Population(tuple(
        make_individual(spec, g) for g in random_genomes(spec.n, config.mu, rng)
    ))


def run(config: EngineConfig, seed: int, record_trace: bool = True) -> RunRecord:
    """Run to the optimum or the generation cap; trace includes the initial state.

    After ``init_population`` the population is a list of ``(fitness, aux,
    word)`` records, stepped by one loop that writes out the rules and draws
    of ``one_generation``: a seed gives the run that repeated
    ``one_generation`` calls would give.
    """
    rng = make_rng(seed)
    spec = config.spec
    n, mu, lam, cap, top = spec.n, config.mu, config.lam, config.cap, spec.max_fitness
    onemax = spec.kind == ONEMAX
    pop = [(ind.fitness, ind.aux, ind.genome.word)
           for ind in init_population(config, rng).members]
    k, retained, survivors = _split(pop)
    draw, shuffle = _run_draw(rng, mu * mu * 2 * n, lam), rng.shuffle
    masks = [1 << (n - 1 - p) for p in range(n)]
    trace = []
    generations = 0
    if record_trace:
        row, low = _scan(k, retained, survivors)

    while True:
        if record_trace:
            trace.append(row)
        if k == top:
            terminated = TERMINATED_OPTIMUM
            break
        if generations >= cap:
            terminated = TERMINATED_CAP
            break
        # the offspring at or above ``k`` (the new elite) and below it, in pool order
        elite, rest = [], []
        gain = False
        codes = iter(draw())
        for c1, c2 in zip(codes, codes):
            # ``decode_slot`` and ``_winner`` for both slots of the pair
            q, p1 = divmod(c1, n)
            q, coin = divmod(q, 2)
            a, b = pop[q // mu], pop[q % mu]
            if a[0] < b[0] or coin and a[0] == b[0]:
                a = b
            q, p2 = divmod(c2, n)
            q, coin = divmod(q, 2)
            b, c = pop[q // mu], pop[q % mu]
            if b[0] < c[0] or coin and b[0] == c[0]:
                b = c
            # ``one_bit_swap``: unequal bits flip one bit of each winner
            w1, w2, m1, m2 = a[2], b[2], masks[p1], masks[p2]
            if (w1 & m1 == 0) != (w2 & m2 == 0):
                w1 ^= m1
                w2 ^= m2
                if onemax:
                    f1, f2 = w1.bit_count(), w2.bit_count()
                    a, b = (f1, f1, w1), (f2, f2, w2)
                else:
                    a, b = (*evaluate_word(spec, w1), w1), (*evaluate_word(spec, w2), w2)
                if a[0] > k or b[0] > k:
                    gain = True
            (elite if a[0] >= k else rest).append(a)
            (elite if b[0] >= k else rest).append(b)
        # ``_replace``: shuffled in place, so the survivors it drops are the
        # tail of ``survivors``
        pop = retained + elite
        if len(pop) > mu:
            shuffle(pop)
            del pop[mu:]
        else:
            space = mu - len(pop)
            if 0 < space < len(rest):
                shuffle(rest)
            pop += rest[:space]
            space = mu - len(pop)
            if 0 < space < len(survivors):
                shuffle(survivors)
            pop += survivors[:space]
        generations += 1
        if gain:
            k, retained, survivors = _split(pop)
            if record_trace:
                row, low = _scan(k, retained, survivors)
        else:
            # no level gain: the retained members and the new elite lead
            # ``pop`` and everything after them is below ``k``
            alpha = min(mu, len(retained) + len(elite))
            if record_trace:
                # a full elite is scanned: after an overflow a shuffle chose
                # which members at ``k`` stayed
                row, low = (_carry(row, low, pop, alpha, survivors, lam) if alpha < mu
                            else _scan(k, pop, []))
            retained, survivors = pop[:alpha], pop[alpha:]

    return RunRecord(
        seed=seed,
        spec=spec,
        mu=config.mu,
        lam=lam,
        generations=generations,
        evaluations=config.mu + 2 * lam * generations,
        terminated=terminated,
        trace=trace,
    )


def run_rls_baseline(n: int, seed: int) -> RunRecord:
    """Single-individual baseline: flip one uniform bit, keep it unless fitness drops.

    Runs to the optimum or ``default_generation_cap(1, n)`` and traces every
    step. One evaluation per step plus one for the initial individual, so
    ``evaluations = generations + 1`` here (the engine's ``2*lambda`` rule does
    not apply to a walk without a pool).
    """
    spec = FitnessSpec.onemax(n)
    rng = make_rng(seed)
    word = random_genome(n, rng).word
    fitness, aux = evaluate_word(spec, word)
    cap = default_generation_cap(1, n)
    steps = 0
    trace = [ElitismPartition(1, 0, 0, 1, fitness, aux)]

    draw = _run_draw(rng, n, 1)
    while fitness < n and steps < cap:
        pos, = draw()
        flipped = word ^ (1 << (n - 1 - pos))
        new_fitness, new_aux = evaluate_word(spec, flipped)
        if new_fitness >= fitness:
            word, fitness, aux = flipped, new_fitness, new_aux
        steps += 1
        trace.append(ElitismPartition(1, 0, 0, 1, fitness, aux))

    return RunRecord(
        seed=seed,
        spec=spec,
        mu=1,
        lam=0,
        generations=steps,
        evaluations=steps + 1,
        terminated=TERMINATED_OPTIMUM if fitness == n else TERMINATED_CAP,
        trace=trace,
    )
