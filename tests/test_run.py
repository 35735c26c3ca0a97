"""Whole runs: ``run`` against the public scalar step, fixed values, exact E[T].

``run`` steps its members' ``(fitness, aux, word)`` records and writes the
tournament, swap, evaluation and replacement out in one loop, but must give,
seed for seed, the run that repeated ``one_generation`` calls give. The scalar
step keeps each of those rules as its own function (``fill_pool``,
``one_bit_swap``, ``replace``), so holding ``run`` to it checks the rules, not
only the bookkeeping. These tests pin that stream.
"""

import math
import os
import statistics
import subprocess
import sys

import pytest

import bitswap_ea
from bitswap_ea import engine
from bitswap_ea.engine import (
    TERMINATED_CAP,
    TERMINATED_OPTIMUM,
    ElitismPartition,
    EngineConfig,
    RunRecord,
    _scan,
    _split,
    classify_partition,
    init_population,
    one_generation,
    run,
    run_rls_baseline,
)
from bitswap_ea.fitness import FitnessSpec, evaluate
from bitswap_ea.genome import Genome, make_rng, mix_seed, random_genome

SEEDS = range(200)


def best(pop) -> int:
    return max(ind.fitness for ind in pop.members)


def reference_run(config: EngineConfig, seed: int, record_trace: bool = True) -> RunRecord:
    """``run`` rebuilt from the public step: one ``one_generation`` per
    generation, the optimum judged on the best member's stored fitness."""
    rng = make_rng(seed)
    spec = config.spec
    pop = init_population(config, rng)
    trace = [classify_partition(pop)] if record_trace else []
    generations = 0
    while best(pop) != spec.max_fitness and generations < config.cap:
        pop = one_generation(pop, spec, config.lam, rng)
        generations += 1
        if record_trace:
            trace.append(classify_partition(pop))
    terminated = (TERMINATED_OPTIMUM if best(pop) == spec.max_fitness
                  else TERMINATED_CAP)
    return RunRecord(seed, spec, config.mu, config.lam, generations,
                     config.mu + 2 * config.lam * generations, terminated, trace)


@pytest.mark.parametrize(
    "config, record_trace, seeds",
    [
        (EngineConfig(FitnessSpec.onemax(32), 2, 2), True, SEEDS),
        (EngineConfig(FitnessSpec.onemax(12), 3, 6), True, SEEDS),
        (EngineConfig(FitnessSpec.onemax(64), 16, 2), True, SEEDS),
        (EngineConfig(FitnessSpec.onemax(128), 64, 2), True, range(8)),
        (EngineConfig(FitnessSpec.plateau(12, 3), 4, 4), True, SEEDS),
        (EngineConfig(FitnessSpec.plateau(12, 1), 4, 4), True, SEEDS),
        (EngineConfig(FitnessSpec.plateau(16, 4), 8, 6), True, range(50)),
        (EngineConfig(FitnessSpec.onemax(128), 32, 2), True, range(8)),
        (EngineConfig(FitnessSpec.plateau(24, 3), 12, 8), True, SEEDS),
        (EngineConfig(FitnessSpec.plateau(12, 3), 4, 4, generation_cap=5), True, SEEDS),
        (EngineConfig(FitnessSpec.onemax(32), 2, 2, generation_cap=5), True, SEEDS),
        (EngineConfig(FitnessSpec.onemax(32), 2, 2), False, SEEDS),
        (EngineConfig(FitnessSpec.plateau(12, 3), 4, 4), False, SEEDS),
        (EngineConfig(FitnessSpec.onemax(12), 3, 6), False, SEEDS),
    ],
    ids=["onemax32-2-2", "onemax12-3-6", "onemax64-16-2", "onemax128-64-2",
         "plateau12g3-4-4", "plateau12g1-4-4", "plateau16g4-8-6", "onemax128-32-2",
         "plateau24g3-12-8", "plateau-cap5", "onemax-cap5", "onemax-untraced",
         "plateau-untraced", "onemax12-3-6-untraced"],
)
def test_run_equals_the_public_step_seed_for_seed(config, record_trace, seeds):
    # seed 34 of plateau16g4-8-6 falls into the absorbing all-zero population
    trapped = {34} if config == EngineConfig(FitnessSpec.plateau(16, 4), 8, 6) else set()
    for seed in seeds:
        record = run(config, seed, record_trace)
        if config.generation_cap is None:
            # a defect that traps runs fails here, before the slow reference
            # replays the whole generation cap
            assert (record.terminated == TERMINATED_CAP) == (seed in trapped), seed
        assert record == reference_run(config, seed, record_trace)


def _refuse(*args):
    raise AssertionError("the Python draw ran")


def test_run_falls_back_to_numpy_when_the_guard_fails(monkeypatch):
    monkeypatch.setattr(engine, "_lemire_matches_numpy", lambda: False)
    monkeypatch.setattr(engine, "_lemire_draw", _refuse)
    for config in (EngineConfig(FitnessSpec.onemax(32), 2, 2),
                   EngineConfig(FitnessSpec.onemax(12), 3, 6)):
        for seed in range(50):
            assert run(config, seed) == reference_run(config, seed)
    assert run_rls_baseline(60, 3) == reference_rls(60, 3)


def test_guard_keeps_a_wrong_draw_out_of_run(monkeypatch):
    right = engine._lemire_draw

    def wrong(rng, bound, count):
        draw = right(rng, bound, count)
        return lambda: [(x + 1) % bound for x in draw()]

    monkeypatch.setattr(engine, "_lemire_draw", wrong)
    engine._lemire_matches_numpy.cache_clear()
    try:
        config = EngineConfig(FitnessSpec.onemax(32), 2, 2)
        for seed in range(20):
            assert run(config, seed) == reference_run(config, seed)
        assert engine._lemire_matches_numpy() is False
    finally:
        engine._lemire_matches_numpy.cache_clear()


def test_run_draws_large_pools_with_numpy(monkeypatch):
    monkeypatch.setattr(engine, "_lemire_draw", _refuse)
    config = EngineConfig(FitnessSpec.onemax(16), 2, engine.LEMIRE_MAX_LAMBDA + 2)
    for seed in range(20):
        assert run(config, seed) == reference_run(config, seed)


def test_import_runs_no_draw_guard():
    # the guard runs at the first draw, so it adds nothing to import time
    src = os.path.dirname(os.path.dirname(bitswap_ea.__file__))
    code = ("import bitswap_ea, bitswap_ea.cli; from bitswap_ea import engine; "
            "print(engine._lemire_matches_numpy.cache_info().misses)")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["0"]


def reference_rls(n: int, seed: int) -> RunRecord:
    """``run_rls_baseline`` with numpy's scalar draw for each step's position."""
    spec = FitnessSpec.onemax(n)
    rng = make_rng(seed)
    genome = random_genome(n, rng)
    fitness, aux = evaluate(spec, genome)
    trace = [ElitismPartition(1, 0, 0, 1, fitness, aux)]
    cap = engine.default_generation_cap(1, n)
    while fitness < n and len(trace) <= cap:
        pos = int(rng.integers(0, n))
        text = str(genome)
        flipped = Genome.from_string(text[:pos] + "10"[int(text[pos])] + text[pos + 1:])
        new_fitness, new_aux = evaluate(spec, flipped)
        if new_fitness >= fitness:
            genome, fitness, aux = flipped, new_fitness, new_aux
        trace.append(ElitismPartition(1, 0, 0, 1, fitness, aux))
    steps = len(trace) - 1
    return RunRecord(seed, spec, 1, 0, steps, steps + 1,
                     TERMINATED_OPTIMUM if fitness == n else TERMINATED_CAP, trace)


@pytest.mark.parametrize("n", [1, 60, 100])
def test_rls_baseline_equals_a_numpy_walk_seed_for_seed(n):
    for seed in range(150):
        assert run_rls_baseline(n, seed) == reference_rls(n, seed)


def test_plateau_shape_splits_the_elite_by_aux():
    # the plateau16g4-8-6 shape above covers rows whose elite holds members
    # of more than one ones count (alpha_star < alpha)
    config = EngineConfig(FitnessSpec.plateau(16, 4), 8, 6)
    rows = [row for seed in range(5) for row in run(config, seed).trace]
    assert any(row.alpha_star < row.alpha for row in rows)


def test_split_keeps_population_order_and_ties():
    records = [(3, 5, "a"), (4, 6, "b"), (2, 2, "c"), (4, 4, "d"), (4, 6, "e"), (3, 3, "f")]
    k, retained, survivors = _split(records)
    assert k == 4
    assert retained == [records[1], records[3], records[4]]
    assert survivors == [records[0], records[2], records[5]]
    assert _scan(k, retained, survivors) == (ElitismPartition(3, 2, 1, 2, 4, 6), 3)
    # every record at the best level: no survivors, so beta1 = beta_minus1 = 0
    k, retained, survivors = _split(records[1::3] + [records[3]])
    assert (k, survivors) == (4, [])
    assert retained == [records[1], records[4], records[3]]
    assert _scan(k, retained, survivors) == (ElitismPartition(3, 0, 0, 2, 4, 6), -1)


@pytest.mark.parametrize(
    "spec, mu, lam, generations",
    [
        (FitnessSpec.onemax(64), 2, 2, [123, 251, 228, 180, 226]),
        (FitnessSpec.onemax(32), 3, 6, [50, 79, 32, 95, 39]),
        (FitnessSpec.plateau(12, 3), 4, 4, [12, 29, 42, 41, 7]),
    ],
)
def test_run_generations_match_fixed_values(spec, mu, lam, generations):
    # recorded from the engine that stepped Individual objects with
    # one_generation; a change here is a change of the seeded stream
    config = EngineConfig(spec, mu, lam)
    assert [run(config, seed).generations for seed in range(5)] == generations


# Exact E[T] of the OneMax engine at (n, mu, lambda), from the ones-count
# Markov chain of perfbench/reference.py (next_state_law, solved level by
# level as expected_generations does), which shares no code with src/.
EXACT_GENERATIONS = {
    (16, 2, 2): 37.1868,
    (32, 2, 2): 91.6412,
    (64, 2, 2): 217.96590,
    (16, 4, 2): 32.854754,
    (16, 4, 4): 22.597122,
    (32, 2, 4): 76.241990,
}
WHOLE_RUN_SEEDS = 1000
SE_LIMIT = 4.0


@pytest.mark.parametrize(
    "n, mu, lam", sorted(EXACT_GENERATIONS),
    # the mu = lambda = 2 cases keep their ids, the length alone
    ids=[str(n) if (mu, lam) == (2, 2) else f"{n}-{mu}-{lam}"
         for n, mu, lam in sorted(EXACT_GENERATIONS)],
)
def test_whole_run_mean_matches_exact_expectation(n, mu, lam):
    config = EngineConfig(FitnessSpec.onemax(n), mu, lam)
    gens = [run(config, mix_seed(0, n, mu, lam, i), record_trace=False).generations
            for i in range(WHOLE_RUN_SEEDS)]
    mean = statistics.fmean(gens)
    se = statistics.stdev(gens) / math.sqrt(len(gens))
    assert abs(mean - EXACT_GENERATIONS[n, mu, lam]) <= SE_LIMIT * se, (mean, se)
