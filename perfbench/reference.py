"""Exact OneMax reference built on ones counts alone, independent of ``src/``.

Under OneMax a one-bit swap reads one uniform bit of each parent: parent one
loses bit ``v1`` (a one with probability ``a/n`` for ``a`` ones) and gains
parent two's bit ``v2``, which is drawn the same way and independently. The
offspring therefore hold ``a + d`` and ``b - d`` ones with ``d = v2 - v1``,
and tournament selection and elitist replacement read only fitness, which is
the ones count. So the multiset of the population's ones counts is a lossless
Markov state, and the whole law of one generation follows from it without
touching a genome.

States are tuples of ones counts sorted from high to low.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

BELOW = -1  # stands for every count under the elite level when only the elite matters


def _add(law: dict, key, p: Fraction) -> None:
    law[key] = law.get(key, Fraction(0)) + p


def _winner_law(state: tuple[int, ...]) -> dict[int, Fraction]:
    """Ones count of a binary-tournament winner: two uniform draws with
    replacement, the higher count wins; a tie leaves the count unchanged."""
    mu = len(state)
    law: dict[int, Fraction] = {}
    for a in state:
        for b in state:
            _add(law, max(a, b), Fraction(1, mu * mu))
    return law


def _pair_law(state: tuple[int, ...], n: int, floor: int | None) -> dict[tuple[int, int], Fraction]:
    """Offspring counts of one recombination pair. With ``floor`` set, counts
    below it are merged into ``BELOW``."""
    win = _winner_law(state)
    law: dict[tuple[int, int], Fraction] = {}
    for a, pa in win.items():
        for b, pb in win.items():
            up = Fraction(n - a, n) * Fraction(b, n)    # v1 = 0, v2 = 1
            down = Fraction(a, n) * Fraction(n - b, n)  # v1 = 1, v2 = 0
            for d, pd in ((1, up), (-1, down), (0, 1 - up - down)):
                if pd == 0:
                    continue
                kids = (a + d, b - d)
                if floor is not None:
                    kids = tuple(c if c >= floor else BELOW for c in kids)
                _add(law, tuple(sorted(kids, reverse=True)), pa * pb * pd)
    return law


def _offspring_law(state, n: int, lam: int, floor: int | None) -> dict[tuple[int, ...], Fraction]:
    """Multiset of all ``lam`` offspring counts: ``lam / 2`` independent pairs."""
    pair = _pair_law(state, n, floor)
    law: dict[tuple[int, ...], Fraction] = {(): Fraction(1)}
    for _ in range(lam // 2):
        nxt: dict[tuple[int, ...], Fraction] = {}
        for kids, p in law.items():
            for more, q in pair.items():
                _add(nxt, tuple(sorted(kids + more, reverse=True)), p * q)
        law = nxt
    return law


def _uniform_subsets(values: list[int], size: int) -> dict[tuple[int, ...], Fraction]:
    """Law of the multiset kept when ``size`` of ``values`` are drawn uniformly
    without replacement."""
    law: dict[tuple[int, ...], Fraction] = {}
    picks = list(combinations(range(len(values)), size))
    for pick in picks:
        _add(law, tuple(sorted((values[i] for i in pick), reverse=True)),
             Fraction(1, len(picks)))
    return law


def _replace_law(state: tuple[int, ...], kids: tuple[int, ...]) -> dict[tuple[int, ...], Fraction]:
    """Elitist replacement: every member at the best count stays; offspring at
    or above it join; on overflow a uniform ``mu``-subset of that elite
    survives; otherwise the free slots take a uniform subset of the weaker
    offspring, then of the weaker old members."""
    mu = len(state)
    k = max(state)
    retained = [c for c in state if c == k]
    survivors = [c for c in state if c < k]
    elite = [c for c in kids if c >= k]
    rest = [c for c in kids if c < k]
    if len(retained) + len(elite) > mu:
        return _uniform_subsets(retained + elite, mu)
    law: dict[tuple[int, ...], Fraction] = {}
    base = retained + elite
    take = min(mu - len(base), len(rest))
    for from_rest, p in _uniform_subsets(rest, take).items():
        fill = mu - len(base) - take
        for from_old, q in _uniform_subsets(survivors, fill).items():
            _add(law, tuple(sorted(base + list(from_rest) + list(from_old), reverse=True)), p * q)
    return law


def next_state_law(state: tuple[int, ...], n: int, lam: int) -> dict[tuple[int, ...], Fraction]:
    """Exact law of the next population's ones counts after one generation."""
    state = tuple(sorted(state, reverse=True))
    law: dict[tuple[int, ...], Fraction] = {}
    for kids, p in _offspring_law(state, n, lam, None).items():
        for nxt, q in _replace_law(state, kids).items():
            _add(law, nxt, p * q)
    return law


def new_elite_law(state: tuple[int, ...], n: int, lam: int) -> dict[int, Fraction]:
    """Exact law of the new-elite count after one generation: members at the
    next best level minus the old elite when the level stays, every member
    there when it rises."""
    k = max(state)
    alpha = state.count(k)
    merged = tuple(sorted((c if c >= k else BELOW for c in state), reverse=True))
    law: dict[int, Fraction] = {}
    for kids, p in _offspring_law(state, n, lam, k).items():
        for nxt, q in _replace_law(merged, kids).items():
            top = max(nxt)
            count = nxt.count(top)
            _add(law, count - alpha if top == k else count, p * q)
    return law


def expected_generations(n: int) -> float:
    """Exact expected generation count to the optimum for mu = lambda = 2
    under uniform random initialisation, conditioned on a population that is
    not all-zero (that population is absorbing: a swap conserves ones and
    selection makes none).

    The best count never falls, so the chain is block-triangular in it and is
    solved level by level from the top. Transition probabilities are exact
    fractions; each level's linear solve is float64, which keeps the result
    exact to rounding. Sized for ``n <= 64``.
    """
    if not 1 <= n <= 64:
        raise ValueError(f"n must be in [1, 64], got {n}")
    t: dict[tuple[int, int], float] = {}
    for k in range(n, 0, -1):
        level = [(k, c) for c in range(k + 1)]
        if k == n:
            t.update((s, 0.0) for s in level)
            continue
        index = {s: i for i, s in enumerate(level)}
        a = np.eye(len(level))
        rhs = np.ones(len(level))
        for i, s in enumerate(level):
            for nxt, p in next_state_law(s, n, 2).items():
                if nxt in index:
                    a[i, index[nxt]] -= float(p)
                else:
                    rhs[i] += float(p) * t[nxt]
        t.update(zip(level, np.linalg.solve(a, rhs)))
    p_ones = [math.comb(n, c) / 2.0**n for c in range(n + 1)]
    total = 0.0
    for (k, c), steps in t.items():
        total += (1 if k == c else 2) * p_ones[k] * p_ones[c] * steps
    return total / (1.0 - 4.0**-n)
