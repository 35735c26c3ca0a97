"""The benchmark's workloads: inputs made from the seed, one timed round, checks.

Each workload is one driving process. A run repeats whole rounds; every
round has the same make-up and fresh seeded inputs. Times are raw seconds;
after each timed call the round asks its clock (``calibration.HostClock``, or
``NoClock`` in the traced run) to sample the host's speed, so the samples
fall all through the run. Checks that hold for each
output are made per round; statistical checks are made once per run on the
pooled rounds, so they gain power as the run measures more.

The program is called only through module attributes (``oracle.x(...)``,
never a name imported from it), so the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from bitswap_ea import cli, genome, harness, oracle, verify
from bitswap_ea.fitness import FitnessSpec

import reference

SE_LIMIT = 4.0


@dataclass
class RoundResult:
    attempted: int = 0
    failed: int = 0
    generations: int = 0        # engine generations completed in the round
    seconds: float = 0.0        # wall time of the round's program calls
    gen_seconds: float = 0.0    # wall time of the calls that step generations
    problems: list[str] = field(default_factory=list)


def round_seed(seed: int, salt: int, r: int) -> int:
    return int(np.random.SeedSequence([seed, salt, r]).generate_state(1)[0])


def _mean_se(values: list[int]) -> tuple[float, float]:
    return statistics.fmean(values), statistics.stdev(values) / math.sqrt(len(values))


class SweepScaling:
    """`sweep` then `fit` subcommands, OneMax, mu = lambda = 2, n in N_VALUES."""

    name = "sweep-scaling"
    salt = 1
    N_VALUES = (32, 64, 128, 256)
    # Short rounds put the clock's samples close together; 15 seeds keep
    # every round's fit above r^2 = 0.99 (0.9957 the least over 30 rounds).
    SEEDS_PER_CELL = 15
    EXACT_N = (32, 64)

    def __init__(self, seed: int, out_dir: str) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.generations: dict[int, list[int]] = {n: [] for n in self.N_VALUES}

    def prepare(self, r: int):
        path = os.path.join(self.out_dir, "config.json")
        raw = {"n": list(self.N_VALUES), "mu": [2], "lambda": [2],
               "seed_count": self.SEEDS_PER_CELL,
               "base_seed": round_seed(self.seed, self.salt, r),
               "out_dir": self.out_dir}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        return path, harness.ExperimentConfig.from_json(path)

    @staticmethod
    def sweep_config(inputs):
        return inputs[1]

    def run_round(self, inputs, workers: int, clock) -> RoundResult:
        path, config = inputs
        runs = len(config.cells()) * config.seed_count
        res = RoundResult(attempted=runs)
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                start = time.perf_counter()
                rc_sweep = cli.main(["sweep", "--config", path, "--workers", str(workers)])
                res.gen_seconds = time.perf_counter() - start
                clock.sample()
                start = time.perf_counter()
                rc_fit = cli.main(["fit", os.path.join(self.out_dir, "summary.csv")])
                res.seconds = res.gen_seconds + time.perf_counter() - start
                clock.sample()
        except Exception as exc:  # a crashed round fails every run in it
            res.failed = runs
            res.problems.append(f"sweep raised {exc!r}")
            return res
        if rc_sweep != 0 or rc_fit != 0:
            res.failed = runs
            res.problems.append(f"sweep/fit exit codes {rc_sweep}/{rc_fit}")
            return res
        self._check_round(config, out.getvalue(), res)
        return res

    def _check_round(self, config, stdout: str, res: RoundResult) -> None:
        stamp = f"# config_hash={config.config_hash}"
        with open(os.path.join(self.out_dir, "records.csv"), newline="", encoding="utf-8") as fh:
            if fh.readline().strip() != stamp:
                res.problems.append("records.csv stamp does not match the config hash")
            records = list(csv.DictReader(fh))
        with open(os.path.join(self.out_dir, "summary.csv"), newline="", encoding="utf-8") as fh:
            if fh.readline().strip() != stamp:
                res.problems.append("summary.csv stamp does not match the config hash")
            summary = list(csv.DictReader(fh))

        cells: dict[tuple[int, int, int], list[dict]] = {}
        for row in records:
            n, mu, lam = int(row["n"]), int(row["mu"]), int(row["lambda"])
            gens, evals = int(row["generations"]), int(row["evaluations"])
            if row["terminated"] != "optimum":
                res.problems.append(f"run n={n} seed={row['seed']} ended on {row['terminated']}")
            if evals != mu + 2 * lam * gens:
                res.problems.append(
                    f"run n={n} seed={row['seed']}: evaluations {evals} != mu + 2*lambda*generations")
            cells.setdefault((n, mu, lam), []).append(row)
            res.generations += gens
        if len(records) != res.attempted or any(len(c) != config.seed_count for c in cells.values()):
            res.problems.append(f"records.csv holds {len(records)} runs, expected {res.attempted}")

        if len(summary) != len(cells):
            res.problems.append(f"summary.csv has {len(summary)} cells, records.csv {len(cells)}")
        for row in summary:
            key = (int(row["n"]), int(row["mu"]), int(row["lambda"]))
            group = cells.get(key, [])
            gens = [int(r["generations"]) for r in group]
            if not gens:
                res.problems.append(f"summary cell {key} has no records")
                continue
            expect = {
                "seed_count": len(gens),
                "mean_generations": statistics.fmean(gens),
                "median_generations": float(statistics.median(gens)),
                "std_generations": statistics.pstdev(gens),
                "mean_evaluations": statistics.fmean(int(r["evaluations"]) for r in group),
                "cap_hits": sum(r["terminated"] == "generation_cap" for r in group),
            }
            for col, want in expect.items():
                if not math.isclose(float(row[col]), want, rel_tol=1e-9, abs_tol=1e-9):
                    res.problems.append(f"summary cell {key} {col}={row[col]}, recomputed {want}")
            if row["config_hash"] != config.config_hash:
                res.problems.append(f"summary cell {key} config_hash {row['config_hash']}")
            self.generations[key[0]].extend(gens)

        r2 = [line.split("=", 1)[1] for line in stdout.splitlines() if line.startswith("r_squared=")]
        if len(r2) != 1 or float(r2[0]) < 0.98:
            res.problems.append(f"fit r_squared {r2} below 0.98")

    def finish(self) -> list[str]:
        problems = []
        mean = {n: statistics.fmean(g) for n, g in self.generations.items() if g}
        if len(mean) != len(self.N_VALUES):
            return ["no complete round to check"]
        ratio = mean[256] / mean[128]
        target = (256 * math.log(256)) / (128 * math.log(128))
        if abs(ratio / target - 1) > 0.15:
            problems.append(f"mean(256)/mean(128) = {ratio:.4f}, n ln n ratio {target:.4f}")
        for n in self.EXACT_N:
            m, se = _mean_se(self.generations[n])
            exact = reference.expected_generations(n)
            if abs(m - exact) > SE_LIMIT * se:
                problems.append(f"n={n}: mean {m:.3f} vs exact {exact:.3f} (se {se:.3f})")
        return problems


class SweepPopulation:
    """`run_sweep` with traces, OneMax, n = 128, lambda = LAM, mu in MU_VALUES."""

    name = "sweep-population"
    salt = 2
    # With lambda = 2 a generation draws two tournaments and one swap, while
    # replace and classify_partition walk all mu members, so at large mu they
    # take the largest share of the time; mu = 2 and 16 give the cost ratio.
    MU_VALUES = (2, 16, 32, 64)
    LAM = 2
    SEEDS_PER_CELL = 4

    def __init__(self, seed: int, out_dir: str) -> None:
        self.seed = seed
        self.evaluations: dict[int, list[int]] = {mu: [] for mu in self.MU_VALUES}

    def prepare(self, r: int):
        return harness.ExperimentConfig(
            n_values=(128,), mu_values=self.MU_VALUES, lam_values=(self.LAM,),
            seed_count=self.SEEDS_PER_CELL,
            base_seed=round_seed(self.seed, self.salt, r),
        )

    @staticmethod
    def sweep_config(inputs):
        return inputs

    def run_round(self, config, workers: int, clock) -> RoundResult:
        runs = len(config.cells()) * config.seed_count
        res = RoundResult(attempted=runs)
        try:
            start = time.perf_counter()
            records = harness.run_sweep(config, workers=workers, record_trace=True)
            res.seconds = res.gen_seconds = time.perf_counter() - start
            clock.sample()
        except Exception as exc:
            res.failed = runs
            res.problems.append(f"run_sweep raised {exc!r}")
            return res
        if len(records) != runs:
            res.problems.append(f"run_sweep returned {len(records)} runs, expected {runs}")
        for rec in records:
            res.generations += rec.generations
            self.evaluations[rec.mu].append(rec.evaluations)
            where = f"mu={rec.mu} seed={rec.seed}"
            if rec.terminated != "optimum":
                res.problems.append(f"{where} ended on {rec.terminated}")
            if rec.evaluations != rec.mu + 2 * rec.lam * rec.generations:
                res.problems.append(f"{where}: evaluations != mu + 2*lambda*generations")
            if len(rec.trace) != rec.generations + 1:
                res.problems.append(
                    f"{where}: {len(rec.trace)} trace rows for {rec.generations} generations")
            ks = [p.k for p in rec.trace]
            if any(not 0 <= b - a <= 1 for a, b in zip(ks, ks[1:])):
                res.problems.append(f"{where}: best level fell or jumped")
            if any(p.alpha + p.beta1 + p.beta_minus1 != rec.mu for p in rec.trace):
                res.problems.append(f"{where}: alpha + beta1 + beta_minus1 != mu")
        return res

    def finish(self) -> list[str]:
        if not self.evaluations[2] or not self.evaluations[16]:
            return ["no complete round to check"]
        ratio = statistics.fmean(self.evaluations[16]) / statistics.fmean(self.evaluations[2])
        return [] if ratio <= 16.0 else [f"evaluations(mu=16)/evaluations(mu=2) = {ratio:.3f} > 16"]


class OracleMC:
    """Exact and Monte-Carlo one-generation laws on fixed tiny populations."""

    name = "oracle-mc"
    salt = 3
    MC_TRIALS = 2000
    PLATEAU_TRIALS = 2000
    GAMMAS = (3, 1)
    LIMIT_POPULATIONS = 12
    LIMIT_N, LIMIT_MU, LIMIT_LAM = oracle.ENUM_MAX_N, oracle.ENUM_MAX_MU, oracle.ENUM_MAX_LAM

    def __init__(self, seed: int, out_dir: str) -> None:
        self.seed = seed
        self.exact = {}
        self.mc_hits = {label: [0, 0, 0] for label, _, _ in verify.SMALL_FIXTURES}
        self.plateau_hits = {g: [0, 0, 0] for g in self.GAMMAS}
        self._reference = {}

    def prepare(self, r: int):
        rng = np.random.default_rng(round_seed(self.seed, self.salt, r))
        fitness = FitnessSpec.onemax(self.LIMIT_N)
        limits = []
        for _ in range(self.LIMIT_POPULATIONS):
            bits = rng.integers(0, 2, size=(self.LIMIT_MU, self.LIMIT_N))
            limits.append(oracle.PopulationSpec.from_strings(
                ["".join(map(str, row)) for row in bits], fitness))
        count = len(verify.SMALL_FIXTURES) + len(self.GAMMAS)
        seeds = [int(s) for s in rng.integers(0, 2**63, size=count)]
        return verify.SMALL_FIXTURES, limits, seeds

    @staticmethod
    def sweep_config(inputs):
        return None

    def _reference_law(self, spec, lam):
        state = tuple(sorted((g.ones for g in spec.genomes), reverse=True))
        key = (state, spec.fitness.n, lam)
        if key not in self._reference:
            self._reference[key] = reference.new_elite_law(state, spec.fitness.n, lam)
        return self._reference[key]

    def _exact(self, label, spec, lam, res: RoundResult, clock):
        start = time.perf_counter()
        try:
            ex = oracle.exact_generation_success(spec, lam)
        except Exception as exc:
            res.failed += 1
            res.problems.append(f"{label}: exact enumeration raised {exc!r}")
            return None
        finally:
            res.seconds += time.perf_counter() - start
            clock.sample()
        law = ex.elite_count_distribution
        if sum(law.values()) != 1:
            res.problems.append(f"{label}: exact law sums to {sum(law.values())}")
        if spec.fitness.kind == "onemax":
            ref = self._reference_law(spec, lam)
            if {c: p for c, p in law.items() if p} != ref:
                res.problems.append(f"{label}: exact law {law} != reference {ref}")
        return ex

    def _timed_mc(self, label, res: RoundResult, clock, call):
        start = time.perf_counter()
        try:
            return call()
        except Exception as exc:
            res.failed += 1
            res.problems.append(f"{label}: Monte-Carlo raised {exc!r}")
            return None
        finally:
            spent = time.perf_counter() - start
            res.seconds += spent
            res.gen_seconds += spent
            clock.sample()

    def run_round(self, inputs, workers: int, clock) -> RoundResult:
        fixtures, limits, seeds = inputs
        res = RoundResult(attempted=2 * len(fixtures) + len(limits) + len(self.GAMMAS))
        for (label, spec, lam), seed in zip(fixtures, seeds):
            ex = self._exact(label, spec, lam, res, clock)
            mc = self._timed_mc(label, res, clock, lambda: oracle.monte_carlo_success(
                spec, lam, self.MC_TRIALS, genome.make_rng(seed)))
            if ex is None or mc is None:
                continue
            self.exact[label] = ex
            hits = self.mc_hits[label]
            hits[0] += mc.trials
            hits[1] += round(mc.p_exactly_one_new_elite * mc.trials)
            hits[2] += round(mc.p_at_least_one_new_elite * mc.trials)
            res.generations += mc.trials
        for i, spec in enumerate(limits):
            self._exact(f"limit[{i}]", spec, self.LIMIT_LAM, res, clock)
        for gamma, seed in zip(self.GAMMAS, seeds[len(fixtures):]):
            pc = self._timed_mc(f"plateau gamma={gamma}", res, clock, lambda: oracle.plateau_comparison(
                self.LIMIT_N, gamma, 4, 4, self.PLATEAU_TRIALS, genome.make_rng(seed)))
            if pc is None:
                continue
            hits = self.plateau_hits[gamma]
            hits[0] += pc.trials
            hits[1] += round(pc.p_f1 * pc.trials)
            hits[2] += round(pc.p_f2 * pc.trials)
            res.generations += 2 * pc.trials
        return res

    def finish(self) -> list[str]:
        problems = []

        def rate(hits: int, trials: int) -> tuple[float, float]:
            p = hits / trials
            return p, math.sqrt(p * (1 - p) / trials)

        for label, (trials, one, any_) in self.mc_hits.items():
            if label not in self.exact:
                problems.append(f"{label}: no Monte-Carlo result")
                continue
            ex = self.exact[label]
            for what, want, hits in (("exactly one", ex.p_exactly_one_new_elite, one),
                                     ("at least one", ex.p_at_least_one_new_elite, any_)):
                p, se = rate(hits, trials)
                if abs(p - float(want)) > SE_LIMIT * max(se, 1e-12):
                    problems.append(f"{label} P({what}): mc {p:.5f} vs exact "
                                    f"{float(want):.5f} (se {se:.5f})")
        for gamma, (trials, f1, f2) in self.plateau_hits.items():
            if not trials:
                problems.append(f"plateau gamma={gamma}: no result")
                continue
            (p1, se1), (p2, se2) = rate(f1, trials), rate(f2, trials)
            gap, se = p1 - p2, math.hypot(se1, se2)
            if gamma > 1 and not gap > SE_LIMIT * se:
                problems.append(f"plateau gamma={gamma}: gap {gap:.5f} not above {SE_LIMIT} se ({se:.5f})")
            if gamma == 1 and abs(gap) > SE_LIMIT * se:
                problems.append(f"plateau gamma=1: gap {gap:.5f} beyond {SE_LIMIT} se ({se:.5f})")
        return problems


WORKLOADS = {w.name: w for w in (SweepScaling, SweepPopulation, OracleMC)}


def make(name: str, seed: int, out_dir: str):
    if os.path.isdir(out_dir):
        shutil.rmtree(out_dir)
    os.makedirs(out_dir)
    return WORKLOADS[name](seed, out_dir)
