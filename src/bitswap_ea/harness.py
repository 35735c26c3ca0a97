"""Experiment orchestration: seeded sweeps over parameter grids, CSV
persistence, and scaling-law fits.

Seeds are derived per (n, mu, lambda, seed_index) cell from the base seed, so
extending a grid never changes results already computed. Every emitted file
starts with a `# config_hash=` line naming the configuration that produced it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
import os
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .engine import TERMINATED_CAP, EngineConfig, RunRecord, _lemire_matches_numpy, run
from .fitness import FitnessSpec
from .genome import mix_seed

# Each sweep-config JSON key and the ExperimentConfig field it sets; the grid
# keys are required, the others default to the field's default.
_CONFIG_FIELDS = {
    "n": "n_values", "mu": "mu_values", "lambda": "lam_values",
    "fitness": "fitness", "gamma": "gamma", "seed_count": "seed_count",
    "base_seed": "base_seed", "generation_cap": "generation_cap", "out_dir": "out_dir",
}
_GRID_KEYS = ("n", "mu", "lambda")


def provenance_hash(parts: dict) -> str:
    """The stamp on every emitted file: the first 12 hex digits of the
    SHA-256 of ``parts`` as canonical JSON."""
    canon = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _as_tuple(value) -> tuple:
    return tuple(value) if isinstance(value, (list, tuple)) else (value,)


def _whole(key: str, value) -> int:
    """``value`` as an int. Integral floats pass; bools, strings and
    fractional floats are rejected rather than coerced."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{key} must be an integer, got {value!r}")


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Sweep definition: a full grid of (n, mu, lambda) cells."""

    n_values: tuple[int, ...]
    mu_values: tuple[int, ...]
    lam_values: tuple[int, ...]
    fitness: str = "onemax"
    gamma: int | None = None
    seed_count: int = 1
    base_seed: int = 0
    generation_cap: int | None = None
    out_dir: str = "results"

    def __post_init__(self) -> None:
        """Check every field's type and range, so a bad config fails here,
        before any output directory or run exists."""
        for key in _GRID_KEYS:
            attr = _CONFIG_FIELDS[key]
            values = tuple(_whole(key, v) for v in getattr(self, attr))
            if not values:
                raise ValueError(f"the {key} grid must be non-empty")
            if len(set(values)) < len(values):
                raise ValueError(f"the {key} grid repeats a value: {list(values)}")
            object.__setattr__(self, attr, values)
        for attr in ("seed_count", "base_seed", "generation_cap", "gamma"):
            value = getattr(self, attr)
            if value is not None or attr in ("seed_count", "base_seed"):
                object.__setattr__(self, attr, _whole(attr, value))
        if self.seed_count < 1:
            raise ValueError(f"seed_count must be >= 1, got {self.seed_count}")
        if not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a string, got {self.out_dir!r}")
        for n, mu, lam in self.cells():
            # raises on an unknown fitness kind, bad n/gamma combinations,
            # mu < 2, odd or small lambda and a negative generation cap
            EngineConfig(self.fitness_spec(n), mu, lam, self.generation_cap)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        unknown = set(raw) - set(_CONFIG_FIELDS)
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}; "
                             f"known keys: {', '.join(sorted(_CONFIG_FIELDS))}")
        missing = set(_GRID_KEYS) - set(raw)
        if missing:
            raise ValueError(f"config missing required keys {sorted(missing)}")
        return cls(**{_CONFIG_FIELDS[key]: _as_tuple(value) if key in _GRID_KEYS else value
                      for key, value in raw.items()})

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a single JSON object")
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        return {key: list(getattr(self, attr)) if key in _GRID_KEYS else getattr(self, attr)
                for key, attr in _CONFIG_FIELDS.items()}

    @property
    def config_hash(self) -> str:
        return provenance_hash(self.to_dict())

    def fitness_spec(self, n: int) -> FitnessSpec:
        return FitnessSpec.of(self.fitness, n, self.gamma)

    def cells(self) -> list[tuple[int, int, int]]:
        return [
            (n, mu, lam)
            for n in self.n_values
            for mu in self.mu_values
            for lam in self.lam_values
        ]

    def cell_seed(self, n: int, mu: int, lam: int, seed_index: int) -> int:
        return mix_seed(self.base_seed, n, mu, lam, seed_index)


def _expected_cost(engine: EngineConfig) -> float:
    """The paper's order of a run's cost, mu * n * ln(n)."""
    return engine.mu * engine.spec.n * math.log(engine.spec.n)


def check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def run_sweep(
    config: ExperimentConfig, workers: int = 1, record_trace: bool = False
) -> list[RunRecord]:
    """One run per (n, mu, lambda, seed) cell, in grid order.

    Each run is one job. With ``workers > 1`` the pool takes the jobs in
    descending expected cost, so the longest runs start first and the short
    ones fill in behind them; the records come back in grid order. The draw
    guard runs here before the pool forks, so its workers inherit the
    verdict instead of each running it.
    """
    check_workers(workers)
    jobs = []
    for n, mu, lam in config.cells():
        engine = EngineConfig(config.fitness_spec(n), mu, lam, config.generation_cap)
        jobs += [(engine, config.cell_seed(n, mu, lam, i), record_trace)
                 for i in range(config.seed_count)]
    # the fork start method launches every worker at once, idle or not
    workers = min(workers, len(jobs))
    if workers <= 1:
        return [run(*job) for job in jobs]
    order = sorted(range(len(jobs)), key=lambda k: -_expected_cost(jobs[k][0]))
    _lemire_matches_numpy()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        done = dict(zip(order, pool.map(run, *zip(*(jobs[k] for k in order)))))
    return [done[k] for k in range(len(jobs))]


@dataclass(frozen=True, slots=True)
class CellSummary:
    n: int
    mu: int
    lam: int
    seed_count: int
    mean_generations: float
    median_generations: float
    std_generations: float
    mean_evaluations: float
    cap_hits: int


def summarize(records: list[RunRecord]) -> list[CellSummary]:
    """Per-cell statistics, cells ordered by first appearance."""
    cells: dict[tuple[int, int, int], list[RunRecord]] = {}
    for rec in records:
        cells.setdefault((rec.spec.n, rec.mu, rec.lam), []).append(rec)
    out = []
    for (n, mu, lam), group in cells.items():
        gens = [r.generations for r in group]
        out.append(
            CellSummary(
                n=n,
                mu=mu,
                lam=lam,
                seed_count=len(group),
                mean_generations=statistics.fmean(gens),
                median_generations=float(statistics.median(gens)),
                std_generations=statistics.pstdev(gens),
                mean_evaluations=statistics.fmean(r.evaluations for r in group),
                cap_hits=sum(r.terminated == TERMINATED_CAP for r in group),
            )
        )
    return out


def ensure_out_dir(path: str) -> None:
    os.makedirs(path, exist_ok=True)
    if not os.access(path, os.W_OK):
        raise PermissionError(f"output directory {path!r} is not writable")


def _write_stamped(path: str, config_hash: str, header, rows, **dialect) -> None:
    """The one writer of emitted files: the ``# config_hash=`` line, then the
    header row if there is one, then ``rows`` through ``csv.writer``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# config_hash={config_hash}\n")
        w = csv.writer(fh, **dialect)
        if header is not None:
            w.writerow(header)
        w.writerows(rows)


RECORD_COLUMNS = [
    "n", "mu", "lambda", "seed_index", "seed",
    "generations", "evaluations", "terminated",
]

SUMMARY_COLUMNS = [
    "n", "mu", "lambda", "seed_count", "mean_generations",
    "median_generations", "std_generations", "mean_evaluations",
    "cap_hits", "config_hash",
]

# The summary columns that ``read_summary_csv`` parses.
SUMMARY_INPUT_COLUMNS = ("n", "mu", "lambda", "mean_generations", "mean_evaluations")

TRACE_COLUMNS = [
    "generation", "k", "alpha", "alpha_star", "beta1", "beta_minus1",
    "best_fitness", "best_aux",
]


def write_records_csv(path: str, records: list[RunRecord], config_hash: str) -> None:
    index: dict[tuple[int, int, int], int] = {}
    rows = []
    for rec in records:
        cell = (rec.spec.n, rec.mu, rec.lam)
        i = index[cell] = index.get(cell, -1) + 1
        rows.append([*cell, i, rec.seed, rec.generations, rec.evaluations, rec.terminated])
    _write_stamped(path, config_hash, RECORD_COLUMNS, rows)


def write_summary_csv(path: str, rows: list[CellSummary], config_hash: str) -> None:
    _write_stamped(path, config_hash, SUMMARY_COLUMNS, (
        [r.n, r.mu, r.lam, r.seed_count, r.mean_generations, r.median_generations,
         r.std_generations, r.mean_evaluations, r.cap_hits, config_hash]
        for r in rows))


def write_trace_csv(path: str, record: RunRecord, config_hash: str) -> None:
    _write_stamped(path, config_hash, TRACE_COLUMNS, (
        [g, p.k, p.alpha, p.alpha_star, p.beta1, p.beta_minus1, p.k, p.best_aux]
        for g, p in enumerate(record.trace)))


def write_plot_data(path: str, xs, ys, config_hash: str) -> None:
    """One series per file: two space-separated columns. Columns of unequal
    length raise ``ValueError`` before the file is opened."""
    rows = list(zip(xs, ys, strict=True))
    _write_stamped(path, config_hash, None, rows, delimiter=" ", lineterminator="\n")


# --- scaling fits -----------------------------------------------------------

UNIT_GENERATIONS = "generations"
UNIT_EVALUATIONS = "evaluations"


@dataclass(frozen=True, slots=True)
class FitResult:
    """Least-squares coefficients for T = a*mu*n*ln(n) + b*mu*n."""

    unit: str
    a: float
    b: float
    r_squared: float
    cell_count: int = field(default=0, compare=False)

    def predict(self, n: int, mu: int) -> float:
        return self.a * mu * n * math.log(n) + self.b * mu * n


def _fit_cells(rows: list[tuple[int, int, int, float, float]], unit: str) -> FitResult:
    """Fit cell means given as (n, mu, lambda, mean_generations,
    mean_evaluations). The evaluations unit measures evaluations beyond
    initialization (the flat mu charge is removed first), which keeps the two
    units related by exactly the per-generation accounting factor."""
    if unit not in (UNIT_GENERATIONS, UNIT_EVALUATIONS):
        raise ValueError(f"unknown unit {unit!r}")
    ns = {row[0] for row in rows}
    if len(ns) < 3:
        raise ValueError(f"need >= 3 distinct n values, got {sorted(ns)}")
    design = np.array([[mu * n * math.log(n), mu * n] for n, mu, *_ in rows])
    y = np.array([gens if unit == UNIT_GENERATIONS else evals - mu
                  for _, mu, _, gens, evals in rows])
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    ss_res = float(resid @ resid)
    centered = y - y.mean()
    ss_tot = float(centered @ centered)
    if ss_tot == 0.0 and ss_res > 1e-18:
        raise ValueError(f"r_squared is undefined: all {len(rows)} cell means are "
                         "equal and the model does not fit them exactly")
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return FitResult(unit, float(coef[0]), float(coef[1]), r2, len(rows))


def fit_scaling(records: list[RunRecord], unit: str = UNIT_GENERATIONS) -> FitResult:
    """Fit the cell means of ``summarize(records)``."""
    return _fit_cells([(c.n, c.mu, c.lam, c.mean_generations, c.mean_evaluations)
                       for c in summarize(records)], unit)


def read_summary_csv(path: str) -> tuple[str, list[tuple[int, int, int, float, float]]]:
    """The config hash stamped on a summary CSV ("unknown" when it has no
    stamp) and its rows as (n, mu, lambda, mean_generations, mean_evaluations).

    A file that lacks any of these columns, or a row that lacks a value, has
    a non-numeric one, n < 1, mu < 2, lambda odd or below 2 (no run has such
    a cell), a non-finite or negative mean, or a mean_evaluations other than
    mu + 2*lambda*mean_generations (every run's accounting) raises
    ``ValueError`` naming the file and the row.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        first = fh.readline()
        if first.startswith("# config_hash="):
            config_hash = first.strip().split("=", 1)[1]
        else:
            config_hash = "unknown"
            fh.seek(0)
        reader = csv.DictReader(line for line in fh if not line.startswith("#"))
        missing = [c for c in SUMMARY_INPUT_COLUMNS if c not in (reader.fieldnames or [])]
        if missing:
            raise ValueError(f"{path} lacks summary columns {missing}")
        rows = []
        for i, row in enumerate(reader, 1):
            values = [row[c] for c in SUMMARY_INPUT_COLUMNS]
            if None in values:
                raise ValueError(f"{path}: data row {i} lacks values")
            try:
                n, mu, lam = map(int, values[:3])
                gens, evals = map(float, values[3:])
            except ValueError as exc:
                raise ValueError(f"{path}: data row {i}: {exc}") from None
            if n < 1:
                raise ValueError(f"{path}: data row {i} has n = {n}, below 1")
            if mu < 2:
                raise ValueError(f"{path}: data row {i} has mu = {mu}, below 2")
            if lam < 2 or lam % 2 != 0:
                raise ValueError(f"{path}: data row {i} has lambda = {lam}, "
                                 "not even and >= 2")
            if not (math.isfinite(gens) and math.isfinite(evals)):
                raise ValueError(f"{path}: data row {i} has a non-finite mean")
            if gens < 0:
                raise ValueError(f"{path}: data row {i} has mean_generations = {gens}, below 0")
            if not math.isclose(evals, mu + 2 * lam * gens, rel_tol=1e-9):
                raise ValueError(f"{path}: data row {i} has mean_evaluations = {evals}, "
                                 "not mu + 2*lambda*mean_generations")
            rows.append((n, mu, lam, gens, evals))
    return config_hash, rows


def fit_from_summary(path: str, unit: str = UNIT_GENERATIONS) -> FitResult:
    """Fit straight from a summary CSV produced by this module."""
    return _fit_cells(read_summary_csv(path)[1], unit)
