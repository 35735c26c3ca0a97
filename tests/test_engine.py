import itertools
import math
import pickle
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitswap_ea.engine import (
    BATCH_ENTRANTS,
    INT64_MAX,
    ElitismPartition,
    EngineConfig,
    _batch_offspring,
    _batch_replace,
    _lemire_draw,
    _lemire_matches_numpy,
    _SwapTable,
    batch_rows,
    classify_partition,
    decode_slot,
    default_generation_cap,
    fill_pool,
    init_population,
    one_bit_swap,
    one_generation,
    one_generation_blocks,
    replace,
    run,
    run_rls_baseline,
    tournament_select,
)
from bitswap_ea.fitness import FitnessSpec, make_individual
from bitswap_ea.genome import Genome, Individual, Population, make_rng


def best(pop):
    return max(ind.fitness for ind in pop.members)


class ForcedRng:
    """Scripted stand-in for the generator: pops queued return values so a
    single decision path can be pinned down, and records every call. A draw
    that was not queued raises ``IndexError``."""

    def __init__(self, integers=(), orders=()):
        self._integers = list(integers)
        self._orders = list(orders)
        self.calls = []

    def integers(self, low, high=None, size=None):
        self.calls.append(("integers", low, high, size))
        value = self._integers.pop(0)
        return np.asarray(value) if size is not None else value

    def shuffle(self, x):
        """Reorder ``x`` in place so that ``x[t]`` becomes the old
        ``x[order[t]]``, as indexing through a permutation would."""
        self.calls.append(("shuffle", len(x)))
        x[:] = [x[i] for i in self._orders.pop(0)]

    def exhausted(self) -> bool:
        return not self._integers and not self._orders


def slot(i: int, j: int, coin: int, pos: int, mu: int, n: int) -> int:
    """The pool-slot draw that ``decode_slot`` splits into these parts."""
    return ((i * mu + j) * 2 + coin) * n + pos


def ind(text: str, spec: FitnessSpec | None = None) -> Individual:
    spec = spec or FitnessSpec.onemax(len(text))
    return make_individual(spec, Genome.from_string(text))


def fake(fitness: int, aux: int | None = None) -> Individual:
    # fitness stamped directly; genome content irrelevant to replace logic
    return Individual(fitness, fitness if aux is None else aux, 0)


def bits(member: Individual, n: int) -> str:
    return str(Genome(n, member.word))


def test_tournament_picks_higher_fitness():
    pop = Population((fake(5), fake(3)))
    for coin in (0, 1):
        assert tournament_select(pop, 0, 1, coin).fitness == 5
        assert tournament_select(pop, 1, 0, coin).fitness == 5


def test_tournament_tie_uses_fair_coin():
    a, b = fake(4, aux=1), fake(4, aux=2)
    pop = Population((a, b))
    assert tournament_select(pop, 0, 1, 0) is a
    assert tournament_select(pop, 0, 1, 1) is b


def test_tournament_may_draw_a_member_against_itself():
    pop = Population((fake(5), fake(3)))
    assert tournament_select(pop, 1, 1, 0).fitness == 3


def test_fill_pool_pairs_consecutive_winners():
    pop = Population((fake(5), fake(3)))
    codes = [slot(0, 1, 1, 6, 2, 8), slot(1, 0, 0, 2, 2, 8),
             slot(0, 0, 1, 7, 2, 8), slot(1, 1, 0, 0, 2, 8)]
    rng = ForcedRng(integers=[codes])
    pairs = fill_pool(pop, 4, 8, rng)
    assert [(a.fitness, b.fitness, i, j) for a, b, i, j in pairs] == [
        (5, 5, 6, 2), (5, 3, 7, 0)]
    # the whole pool is one draw over mu*mu*2*n codes
    assert rng.calls == [("integers", 0, 2 * 2 * 2 * 8, 4)]
    assert rng.exhausted()


def test_decode_slot_gives_every_tuple_exactly_once():
    mu, n = 3, 4
    decoded = [decode_slot(code, mu, n) for code in range(mu * mu * 2 * n)]
    expected = [(i, j, coin, pos) for i in range(mu) for j in range(mu)
                for coin in range(2) for pos in range(n)]
    assert sorted(decoded) == expected
    assert all(slot(*parts, mu, n) == code for code, parts in enumerate(decoded))


def test_one_generation_makes_at_most_two_draws():
    spec = FitnessSpec.onemax(8)
    pop = init_population(EngineConfig(spec, mu=4, lam=6), make_rng(3))
    calls = []

    class Recording:
        def __init__(self, rng):
            self._rng = rng

        def integers(self, *args, **kwargs):
            calls.append("integers")
            return self._rng.integers(*args, **kwargs)

        def shuffle(self, x):
            calls.append("shuffle")
            self._rng.shuffle(x)

    rng = Recording(make_rng(5))
    seen = set()
    for _ in range(200):
        calls.clear()
        pop = one_generation(pop, spec, 6, rng)
        # one pool draw, then at most one partial subset in replace
        assert calls in (["integers"], ["integers", "shuffle"])
        seen.add(len(calls))
    assert seen == {1, 2}


def test_one_bit_swap_exchanges_bit_values():
    spec = FitnessSpec.onemax(2)
    p1, p2 = ind("10"), ind("01")
    o1, o2 = one_bit_swap(p1, p2, 0, 0, spec)
    assert bits(o1, 2) == "00"
    assert bits(o2, 2) == "11"
    assert (o1.fitness, o2.fitness) == (0, 2)
    # position i belongs to the first parent, j to the second
    o1, o2 = one_bit_swap(ind("10"), ind("10"), 0, 1, spec)
    assert (bits(o1, 2), bits(o2, 2)) == ("00", "11")


def test_one_bit_swap_same_value_copies_parents():
    spec = FitnessSpec.onemax(3)
    p1, p2 = ind("110"), ind("011")
    o1, o2 = one_bit_swap(p1, p2, 0, 2, spec)
    assert bits(o1, 3) == "110"
    assert bits(o2, 3) == "011"


def test_replace_fills_with_best_offspring_then_rest():
    pop = Population((fake(5), fake(3), fake(3)))
    offspring = [fake(6), fake(2), fake(1)]
    # one slot remains after the new elite; a uniform pick of the other
    # offspring fills it
    rng = ForcedRng(orders=[[1, 0]])
    new = replace(pop, offspring, rng)
    assert sorted(i.fitness for i in new.members) == [1, 5, 6]
    assert rng.calls == [("shuffle", 2)]


def test_replace_keeps_every_current_best():
    pop = Population((fake(7), fake(7), fake(1)))
    offspring = [fake(2), fake(2)]
    rng = ForcedRng(orders=[[0, 1]])
    new = replace(pop, offspring, rng)
    fits = sorted(i.fitness for i in new.members)
    assert fits[1:] == [7, 7]
    assert fits[0] == 2
    assert rng.exhausted()


def test_replace_without_enough_offspring_keeps_survivors():
    pop = Population((fake(5), fake(3), fake(2)))
    # the lone offspring takes its slot without a draw; one of the two
    # non-elite survivors is drawn for the last slot
    rng = ForcedRng(orders=[[0, 1]])
    new = replace(pop, [fake(1)], rng)
    assert sorted(i.fitness for i in new.members) == [1, 3, 5]
    assert rng.calls == [("shuffle", 2)]


def test_replace_overflow_takes_uniform_subset_of_elite_pool():
    # all members already best; a qualifying offspring competes uniformly
    pop = Population((fake(4, aux=0), fake(4, aux=1)))
    offspring = [fake(4, aux=9), fake(0)]
    rng = ForcedRng(orders=[[0, 2, 1]])
    new = replace(pop, offspring, rng)
    auxes = sorted(i.aux for i in new.members)
    assert auxes == [0, 9]
    assert len(new.members) == 2
    assert rng.calls == [("shuffle", 3)]


def test_replace_changes_at_most_the_non_elite_slots():
    # non-overflow path: retained elites survive identically
    pop = Population((fake(9), fake(9), fake(2), fake(1)))
    offspring = [fake(9), fake(3)]
    new = replace(pop, offspring, ForcedRng())
    assert sum(1 for i in new.members if i.fitness == 9) == 3
    changed = 4 - sum(1 for i in pop.members if i in new.members)
    assert changed <= 4 - 2


@pytest.mark.parametrize("members,offspring", [
    # exactly mu elite: the whole combined list, nothing drawn
    ((fake(4), fake(4), fake(1)), [fake(4), fake(0)]),
    # every other offspring fits: whole list; no survivor slot left
    ((fake(4), fake(2), fake(1)), [fake(3), fake(3)]),
    # no offspring at all: both survivors stay, whole list
    ((fake(4), fake(2), fake(1)), []),
    # no slots left after the new elite: empty subsets
    ((fake(4), fake(2), fake(1)), [fake(5), fake(4)]),
])
def test_replace_draws_nothing_for_empty_or_whole_subsets(members, offspring):
    pop = Population(members)
    new = replace(pop, offspring, ForcedRng())
    assert len(new.members) == pop.mu
    assert best(new) >= best(pop)


@pytest.mark.parametrize("seed", [0, 2024])
def test_uniform_subset_draws_as_indexing_through_a_permutation(seed):
    # ``replace`` and ``run`` take a uniform k-subset of a list as the head of
    # one ``rng.shuffle`` of it. rng.shuffle and rng.permutation run the same
    # Fisher-Yates pass; this pins that numpy behaviour, on which every seeded
    # run depends
    rng, twin = make_rng(seed), make_rng(seed)
    for m in range(1, 71):
        items = list(range(100, 100 + m))
        for k in range(m + 1):
            owned = items[:]
            rng.shuffle(owned)
            order = twin.permutation(m).tolist()
            # the subset leads the list and the dropped items are its tail
            # (``_carry`` reads the dropped survivors there)
            assert owned[:k] == [items[i] for i in order[:k]]
            assert owned[k:] == [items[i] for i in order[k:]]
            assert rng.bit_generator.state == twin.bit_generator.state


# the guard's bounds, and 1, which the walk of n = 1 asks for
DRAW_BOUNDS = [1, 8, 2**11 - 1, 2**11, 2**11 + 1, 3 * 2**30,
               2**32 - 1, 2**32, 2**32 + 1, INT64_MAX]


def _buffered(seed: int, value: int):
    """A generator whose next ``next_uint32`` returns ``value``: PCG64 keeps
    the spare half of a 64-bit output for the next 32-bit draw."""
    rng = make_rng(seed)
    rng.bit_generator.state = {**rng.bit_generator.state, "has_uint32": 1, "uinteger": value}
    return rng


def _one_width(rng, width: int):
    """``rng`` seen through a bit generator that fails any raw draw but
    ``next_uint{width}``."""
    real = rng.bit_generator.ctypes

    def only(bits):
        def next_raw(state):
            assert bits == width, f"a {bits}-bit raw draw where numpy makes {width}-bit ones"
            return getattr(real, f"next_uint{bits}")(state)
        return next_raw

    ctypes = SimpleNamespace(state=real.state, next_uint32=only(32), next_uint64=only(64))
    return SimpleNamespace(bit_generator=SimpleNamespace(ctypes=ctypes))


def test_fast_draw_equals_numpy():
    # run's pool draw must be numpy's sized call, value for value, and leave
    # the generator as numpy does. numpy draws 32-bit words up to a bound of
    # 2**32 and 64-bit ones past it (checked first: a draw that takes 32-bit
    # words for a larger bound never gets past its rejection loop)
    for bound in DRAW_BOUNDS[1:]:
        ours, ref = make_rng(7), make_rng(7)
        width = 32 if bound <= 2**32 else 64
        assert _lemire_draw(_one_width(ours, width), bound, 3)() == \
            ref.integers(0, bound, size=3).tolist()
        assert ours.bit_generator.state == ref.bit_generator.state
    assert _lemire_matches_numpy()  # the guard agrees on this numpy
    buffered = set()
    for seed in range(200):
        ours, ref = make_rng(seed), make_rng(seed)
        for bound in DRAW_BOUNDS:
            for count in (1, 2, 3, 6):
                buffered.add(ref.bit_generator.state["has_uint32"])
                expected = ref.integers(0, bound, size=count).tolist()
                assert _lemire_draw(ours, bound, count)() == expected, (seed, bound, count)
                assert ours.bit_generator.state == ref.bit_generator.state, (seed, bound, count)
                # the engine's other draws in between, on whole 64-bit words
                # (shuffle, random) and on 32-bit halves (integers)
                seen = []
                for rng in (ours, ref):
                    items = list(range(5))
                    rng.shuffle(items)
                    seen.append((items, rng.random(), rng.integers(0, 7, size=3).tolist(),
                                 rng.integers(0, 5)))
                assert seen[0] == seen[1]
    assert buffered == {0, 1}
    # Lemire's rejection edge, which random draws reach with probability
    # 2**-32 for odd bounds: a raw draw whose low word (raw * bound mod 2**32)
    # lands just below, at, or just above the threshold (2**32 - bound) % bound
    for bound in (2**11 - 1, 2**11 + 1, 3 * 2**30, 2**32 - 1):
        threshold = (2**32 - bound) % bound
        step = bound & -bound  # the low words are the multiples of this
        inverse = pow(bound // step, -1, 2**32 // step)
        for low in (threshold - step, threshold, threshold + step):
            raw = (low // step * inverse) % (2**32 // step)
            assert raw * bound % 2**32 == low
            ours, ref = _buffered(bound, raw), _buffered(bound, raw)
            assert _lemire_draw(ours, bound, 3)() == ref.integers(0, bound, size=3).tolist()
            assert ours.bit_generator.state == ref.bit_generator.state, (bound, low)


def test_elitism_partition_is_an_immutable_named_row():
    assert ElitismPartition._fields == (
        "alpha", "beta1", "beta_minus1", "alpha_star", "k", "best_aux")
    part = ElitismPartition(alpha=2, beta1=1, beta_minus1=3, alpha_star=1, k=7, best_aux=4)
    assert part == ElitismPartition(2, 1, 3, 1, 7, 4)
    assert (part.k, part.best_aux, part.alpha + part.beta1 + part.beta_minus1) == (7, 4, 6)
    with pytest.raises(AttributeError):
        part.alpha = 5


@pytest.mark.parametrize("record_trace", [True, False])
def test_run_record_survives_a_pickle_round_trip(record_trace):
    rec = run(EngineConfig(FitnessSpec.plateau(12, 3), 4, 4), 3, record_trace)
    back = pickle.loads(pickle.dumps(rec))
    assert back == rec
    if record_trace:
        assert len(back.trace) == rec.generations + 1
        assert all(type(row) is ElitismPartition for row in back.trace)
    else:
        assert back.trace == []


def test_classify_partition_counts_three_levels():
    pop = Population((fake(5, aux=2), fake(5, aux=7), fake(3), fake(3), fake(2)))
    part = classify_partition(pop)
    assert (part.alpha, part.beta1, part.beta_minus1) == (2, 2, 1)
    assert part.k == 5
    assert part.alpha_star == 1
    assert part.best_aux == 7
    assert part.alpha + part.beta1 + part.beta_minus1 == 5


def test_classify_partition_all_equal():
    part = classify_partition(Population((fake(4), fake(4))))
    assert (part.alpha, part.beta1, part.beta_minus1) == (2, 0, 0)
    assert part.alpha_star == 2


def test_classify_partition_super_elite_on_plateau():
    spec = FitnessSpec.plateau(6, 3)
    pop = Population((ind("111110", spec), ind("111100", spec)))
    part = classify_partition(pop)
    assert part.alpha == 2
    assert part.alpha_star == 1  # only one member carries aux 5 at the top


def test_default_generation_cap():
    assert default_generation_cap(2, 16) == math.ceil(50 * 2 * 16 * math.log(17))
    cfg = EngineConfig(FitnessSpec.onemax(16), mu=2, lam=2)
    assert cfg.cap == default_generation_cap(2, 16)
    assert EngineConfig(FitnessSpec.onemax(16), 2, 2, generation_cap=7).cap == 7


def test_engine_config_validation():
    spec = FitnessSpec.onemax(8)
    with pytest.raises(ValueError):
        EngineConfig(spec, mu=1, lam=2)
    with pytest.raises(ValueError):
        EngineConfig(spec, mu=2, lam=3)
    with pytest.raises(ValueError):
        EngineConfig(spec, mu=2, lam=0)


def test_engine_config_rejects_pool_draw_beyond_int64():
    # mu*mu*2*n = 3 * 2**61 fits; 4 * 2**61 = 2**63 does not
    EngineConfig(FitnessSpec.onemax(3), mu=2**30, lam=2)
    with pytest.raises(ValueError, match="int64"):
        EngineConfig(FitnessSpec.onemax(4), mu=2**30, lam=2)


def test_run_is_deterministic():
    cfg = EngineConfig(FitnessSpec.onemax(24), mu=2, lam=2)
    a = run(cfg, seed=123)
    b = run(cfg, seed=123)
    assert a.generations == b.generations
    assert a.evaluations == b.evaluations
    assert [p.alpha for p in a.trace] == [p.alpha for p in b.trace]
    assert a.seed == 123


def test_run_reaches_optimum_and_accounts_evaluations():
    cfg = EngineConfig(FitnessSpec.onemax(20), mu=3, lam=4)
    rec = run(cfg, seed=5)
    assert rec.terminated == "optimum"
    assert rec.trace[-1].k == 20
    assert rec.evaluations == 3 + 2 * 4 * rec.generations
    assert len(rec.trace) == rec.generations + 1


def test_run_trace_invariants():
    cfg = EngineConfig(FitnessSpec.onemax(32), mu=4, lam=4)
    rec = run(cfg, seed=11)
    ks = [p.k for p in rec.trace]
    assert all(a <= b for a, b in zip(ks, ks[1:]))
    assert all(p.alpha + p.beta1 + p.beta_minus1 == 4 for p in rec.trace)
    assert all(1 <= p.alpha and p.alpha_star <= p.alpha for p in rec.trace)


def test_run_respects_generation_cap():
    cfg = EngineConfig(FitnessSpec.onemax(64), mu=2, lam=2, generation_cap=3)
    rec = run(cfg, seed=1)
    assert rec.terminated == "generation_cap"
    assert rec.generations == 3


def test_run_on_plateau_fitness():
    cfg = EngineConfig(FitnessSpec.plateau(8, 2), mu=2, lam=2)
    rec = run(cfg, seed=3)
    assert rec.terminated == "optimum"
    assert rec.trace[-1].k == 4
    assert rec.trace[-1].best_aux == 8


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10_000))
def test_smoke_reaches_optimum_within_comfortable_cap(seed):
    n = 48
    cap = math.ceil(10 * n * math.log(n) * 2)
    cfg = EngineConfig(FitnessSpec.onemax(n), mu=2, lam=2, generation_cap=cap)
    assert run(cfg, seed, record_trace=False).terminated == "optimum"


def test_smoke_100_fixed_seeds_at_n128():
    n = 128
    cap = math.ceil(10 * n * math.log(n) * 2)
    cfg = EngineConfig(FitnessSpec.onemax(n), mu=2, lam=2, generation_cap=cap)
    hits = sum(run(cfg, s, record_trace=False).terminated == "optimum"
               for s in range(100))
    assert hits == 100


def test_one_generation_never_loses_the_best():
    spec = FitnessSpec.onemax(10)
    rng = make_rng(17)
    cfg = EngineConfig(spec, mu=3, lam=4)
    pop = init_population(cfg, rng)
    for _ in range(50):
        new = one_generation(pop, spec, 4, rng)
        assert best(new) >= best(pop)
        pop = new


# --- batched one-generation kernel -----------------------------------------


def _tied_population(spec: FitnessSpec, texts: list[str]) -> Population:
    return Population(tuple(ind(t, spec) for t in texts))


@pytest.mark.parametrize("spec,texts", [
    # fitness ties (coin decides) and a strictly worse member
    (FitnessSpec.onemax(4), ["1100", "0110", "1000"]),
    # plateau: equal bin counts with different aux, swaps that cross a bin
    (FitnessSpec.plateau(6, 3), ["111110", "111011", "011100"]),
])
@pytest.mark.parametrize("lam", [2, 6])
def test_batch_offspring_match_scalar_slots(spec, texts, lam):
    pop = _tied_population(spec, texts)
    mu, n = pop.mu, spec.n
    if lam == 2:  # every pair of slot codes
        codes = np.array(list(itertools.product(range(mu * mu * 2 * n), repeat=2)))
    else:
        codes = make_rng(4).integers(0, mu * mu * 2 * n, size=(2000, lam))
    decoded = decode_slot(codes, mu, n)
    fitness, aux = _batch_offspring(_SwapTable.build(pop, spec), codes, n)
    for r, row in enumerate(codes.tolist()):
        parts = [decode_slot(code, mu, n) for code in row]
        assert [tuple(int(d[r, t]) for d in decoded) for t in range(lam)] == parts
        winners = [tournament_select(pop, i, j, coin) for i, j, coin, _ in parts]
        expected = []
        for t in range(0, lam, 2):
            expected.extend(one_bit_swap(winners[t], winners[t + 1],
                                         parts[t][3], parts[t + 1][3], spec))
        assert fitness[r].tolist() == [o.fitness for o in expected]
        assert aux[r].tolist() == [o.aux for o in expected]


def test_batch_replace_follows_the_elitist_rule():
    # aux values name each entrant, so every kept one can be classed
    mu, lam, rows = 4, 6, 3000
    rng = make_rng(8)
    member_fitness = np.array([5, 5, 3, 2])
    table = _SwapTable(member_fitness, np.arange(mu), None, None, None)
    off_fitness = rng.integers(3, 7, size=(rows, lam))
    off_aux = np.broadcast_to(np.arange(mu, mu + lam), (rows, lam))
    fitness, aux = _batch_replace(table, off_fitness, off_aux, rng.random((rows, mu + lam)))
    assert fitness.shape == aux.shape == (rows, mu)
    for r in range(rows):
        entrant = list(zip(member_fitness.tolist(), range(mu))) + list(
            zip(off_fitness[r].tolist(), range(mu, mu + lam)))
        classes = [0 if f >= 5 else 1 if e >= mu else 2 for f, e in entrant]
        kept = aux[r].tolist()
        assert len(set(kept)) == mu
        assert fitness[r].tolist() == [entrant[e][0] for e in kept]
        left = mu
        for c in (0, 1, 2):
            want = min(left, classes.count(c))
            assert sum(classes[e] == c for e in kept) == want
            left -= want


def _all_rows(pop, spec, lam, trials, rng):
    fitness, aux = zip(*one_generation_blocks(pop, spec, lam, trials, rng))
    return np.concatenate(fitness), np.concatenate(aux)


def test_batch_blocks_return_every_trial_and_draw_as_one_call():
    spec = FitnessSpec.onemax(6)
    pop = _tied_population(spec, ["110100", "011100", "100000"])
    block = batch_rows(3, 4)
    fitness, aux = _all_rows(pop, spec, 4, block + 1, make_rng(6))
    assert fitness.shape == aux.shape == (block + 1, 3)
    assert (fitness.max(axis=1) >= 3).all()
    # a block boundary neither drops nor redraws trials
    rng = make_rng(6)
    head = _all_rows(pop, spec, 4, block, rng)
    tail = _all_rows(pop, spec, 4, 1, rng)
    assert np.array_equal(fitness, np.concatenate([head[0], tail[0]]))
    assert np.array_equal(aux, np.concatenate([head[1], tail[1]]))


def test_batch_blocks_bound_the_entrants_per_block():
    assert batch_rows(4, 4) * 8 <= BATCH_ENTRANTS < (batch_rows(4, 4) + 1) * 8
    # a population wider than the budget still steps one trial per block
    assert batch_rows(BATCH_ENTRANTS, 2) == 1


@pytest.mark.parametrize("lam,trials,message", [
    (3, 10, "lambda must be even and >= 2, got 3"),
    (0, 10, "lambda must be even and >= 2, got 0"),
    (2, 0, "trials must be >= 1, got 0"),
    (2, -5, "trials must be >= 1, got -5"),
])
def test_batch_rejects_bad_pool_or_trial_count(lam, trials, message):
    spec = FitnessSpec.onemax(4)
    pop = _tied_population(spec, ["1100", "0110"])
    with pytest.raises(ValueError, match=message):
        next(one_generation_blocks(pop, spec, lam, trials, make_rng(1)))


def test_rls_baseline_accounting_and_trace():
    rec = run_rls_baseline(100, seed=4)
    assert rec.terminated == "optimum"
    assert rec.evaluations == rec.generations + 1
    assert rec.mu == 1 and rec.lam == 0
    ks = [p.k for p in rec.trace]
    assert all(a <= b for a, b in zip(ks, ks[1:]))
    assert ks[-1] == 100
    assert all(p.alpha + p.beta1 + p.beta_minus1 == 1 for p in rec.trace)


def test_rls_baseline_deterministic():
    a = run_rls_baseline(60, seed=9)
    b = run_rls_baseline(60, seed=9)
    assert a.generations == b.generations


def test_rls_n1_needs_about_one_step():
    # from the all-zero start, success probability is 1 per step
    steps = [run_rls_baseline(1, seed=s).generations for s in range(50)]
    assert all(s <= 1 for s in steps)
