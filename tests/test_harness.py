import json
import math
import os

import pytest

from bitswap_ea import engine, harness
from bitswap_ea.engine import ElitismPartition, RunRecord
from bitswap_ea.fitness import FitnessSpec
from bitswap_ea.genome import mix_seed
from bitswap_ea.harness import (
    RECORD_COLUMNS,
    SUMMARY_COLUMNS,
    TRACE_COLUMNS,
    UNIT_EVALUATIONS,
    ExperimentConfig,
    ensure_out_dir,
    fit_from_summary,
    fit_scaling,
    read_summary_csv,
    run_sweep,
    summarize,
    write_plot_data,
    write_records_csv,
    write_summary_csv,
    write_trace_csv,
)

SMALL = ExperimentConfig(
    n_values=(16, 24, 32), mu_values=(2,), lam_values=(2,), seed_count=3,
    base_seed=99,
)


# --- configuration -----------------------------------------------------------


def test_config_dict_round_trip():
    cfg = ExperimentConfig(
        n_values=(8, 16), mu_values=(2, 4), lam_values=(2,),
        fitness="plateau_royal_road", gamma=2, seed_count=5, base_seed=7,
        generation_cap=500, out_dir="out",
    )
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"n": [8], "mu": [2], "lambda": [2], "mo": 1})


def test_config_requires_grid_keys():
    with pytest.raises(ValueError, match="missing required"):
        ExperimentConfig.from_dict({"n": [8], "mu": [2]})


def test_config_scalar_values_promote_to_grids():
    cfg = ExperimentConfig.from_dict({"n": 8, "mu": 2, "lambda": 2})
    assert cfg.n_values == (8,)
    assert cfg.cells() == [(8, 2, 2)]


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n_values=(), mu_values=(2,), lam_values=(2,))
    with pytest.raises(ValueError):
        ExperimentConfig(n_values=(8,), mu_values=(2,), lam_values=(2,), seed_count=0)
    with pytest.raises(ValueError):
        ExperimentConfig(n_values=(8,), mu_values=(2,), lam_values=(2,), fitness="min")
    with pytest.raises(ValueError):
        # gamma must divide every n in the grid
        ExperimentConfig(
            n_values=(8, 10), mu_values=(2,), lam_values=(2,),
            fitness="plateau_royal_road", gamma=4,
        )
    with pytest.raises(ValueError):
        ExperimentConfig(n_values=(8,), mu_values=(2,), lam_values=(2,), gamma=3)



@pytest.mark.parametrize("key", ["n", "mu", "lambda"])
def test_config_rejects_a_repeated_grid_value(key):
    # the repeat is found after coercion, so 8.0 counts as a second 8
    raw = {"n": [16], "mu": [2], "lambda": [2], key: [8, 8.0]}
    with pytest.raises(ValueError, match=f"the {key} grid repeats a value: \\[8, 8\\]"):
        ExperimentConfig.from_dict(raw)

GRID = {"n": [8], "mu": [2], "lambda": [2]}


@pytest.mark.parametrize("override,message", [
    ({"n": [8.5]}, "n must be an integer"),
    ({"n": ["8"]}, "n must be an integer"),
    ({"n": "8"}, "n must be an integer"),
    ({"mu": [True]}, "mu must be an integer"),
    ({"n": [0]}, "n must be >= 1"),
    ({"mu": [1]}, "mu must be >= 2"),
    ({"lambda": [3]}, "lambda must be even"),
    ({"lambda": [0]}, "lambda must be even"),
    ({"seed_count": "2"}, "seed_count must be an integer"),
    ({"seed_count": 0}, "seed_count must be >= 1"),
    ({"seed_count": None}, "seed_count must be an integer"),
    ({"base_seed": 1.5}, "base_seed must be an integer"),
    ({"generation_cap": -1}, "generation cap must be >= 0"),
    ({"generation_cap": "10"}, "generation_cap must be an integer"),
    ({"fitness": "plateau_royal_road", "gamma": "2"}, "gamma must be an integer"),
    ({"out_dir": 5}, "out_dir must be a string"),
])
def test_config_checks_every_field_type_and_range(override, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_dict({**GRID, **override})


def test_config_integral_floats_are_integers():
    cfg = ExperimentConfig.from_dict({"n": [8.0], "mu": 2.0, "lambda": [2],
                                      "seed_count": 3.0, "generation_cap": 10.0})
    plain = ExperimentConfig.from_dict({"n": [8], "mu": 2, "lambda": [2],
                                        "seed_count": 3, "generation_cap": 10})
    assert cfg == plain
    assert cfg.config_hash == plain.config_hash
    assert type(cfg.n_values[0]) is int and type(cfg.seed_count) is int


def test_config_from_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": [8, 16], "mu": [2], "lambda": [4], "base_seed": 3}))
    cfg = ExperimentConfig.from_json(str(path))
    assert cfg.n_values == (8, 16)
    assert cfg.lam_values == (4,)
    assert cfg.base_seed == 3

    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(ValueError, match="single JSON object"):
        ExperimentConfig.from_json(str(bad))


def test_config_hash_is_stable_and_sensitive():
    a = ExperimentConfig(n_values=(8,), mu_values=(2,), lam_values=(2,), base_seed=1)
    b = ExperimentConfig(n_values=(8,), mu_values=(2,), lam_values=(2,), base_seed=1)
    c = ExperimentConfig(n_values=(8,), mu_values=(2,), lam_values=(2,), base_seed=2)
    assert a.config_hash == b.config_hash
    assert a.config_hash != c.config_hash
    assert len(a.config_hash) == 12
    assert set(a.config_hash) <= set("0123456789abcdef")


def test_cells_are_in_grid_order():
    cfg = ExperimentConfig(n_values=(8, 16), mu_values=(2, 4), lam_values=(2,))
    assert cfg.cells() == [(8, 2, 2), (8, 4, 2), (16, 2, 2), (16, 4, 2)]


def test_cell_seed_is_the_mixed_seed():
    cfg = ExperimentConfig(n_values=(8,), mu_values=(2,), lam_values=(2,), base_seed=5)
    assert cfg.cell_seed(8, 2, 2, 3) == mix_seed(5, 8, 2, 2, 3)


# --- sweeps -------------------------------------------------------------------


def test_sweep_produces_one_record_per_cell_and_seed():
    records = run_sweep(SMALL)
    assert len(records) == 9
    seen = [(r.spec.n, r.mu, r.lam) for r in records]
    assert seen == sorted(seen)
    for rec in records:
        assert rec.terminated == "optimum"
        assert rec.evaluations == rec.mu + 2 * rec.lam * rec.generations


def test_sweep_is_deterministic():
    a = run_sweep(SMALL)
    b = run_sweep(SMALL)
    assert [(r.seed, r.generations, r.evaluations) for r in a] == [
        (r.seed, r.generations, r.evaluations) for r in b
    ]


def test_parallel_sweep_matches_serial():
    # the pool takes runs in descending mu*n*ln(n), which this grid's order
    # is not, and must hand the records back in grid order
    config = ExperimentConfig(
        n_values=(16, 32, 8), mu_values=(3, 2), lam_values=(2,), seed_count=2,
        base_seed=17,
    )
    serial = run_sweep(config, workers=1, record_trace=True)
    parallel = run_sweep(config, workers=2, record_trace=True)
    assert parallel == serial
    # rows rebuilt as plain tuples would still compare equal
    assert all(type(row) is ElitismPartition for rec in parallel for row in rec.trace)
    assert [rec.seed for rec in serial] == [
        config.cell_seed(n, mu, lam, i)
        for n, mu, lam in config.cells() for i in range(config.seed_count)
    ]


def test_pooled_sweep_runs_the_draw_guard_before_its_workers_fork():
    config = ExperimentConfig(n_values=(16,), mu_values=(2,), lam_values=(2,),
                              seed_count=4, base_seed=21)
    engine._lemire_matches_numpy.cache_clear()
    records = run_sweep(config, workers=2, record_trace=True)
    # this process never draws in a pooled sweep, so only the guard's own
    # call before the fork can have filled its cache
    assert engine._lemire_matches_numpy.cache_info().currsize == 1
    assert records == run_sweep(config, record_trace=True)


def test_sweep_starts_no_more_workers_than_runs(monkeypatch):
    sizes = []

    class RecordingPool:
        """``ProcessPoolExecutor`` that records its size and maps in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    base = dict(n_values=(16,), mu_values=(2,), lam_values=(2,), base_seed=8)
    three = ExperimentConfig(seed_count=3, **base)
    assert run_sweep(three, workers=64, record_trace=True) == run_sweep(three, record_trace=True)
    assert sizes == [3]
    # one run: no pool at all
    one = ExperimentConfig(seed_count=1, **base)
    assert run_sweep(one, workers=64) == run_sweep(one)
    assert sizes == [3]


@pytest.mark.parametrize("workers", [0, -3])
def test_sweep_rejects_worker_count_below_one(workers):
    with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
        run_sweep(SMALL, workers=workers)


def test_extending_seed_count_keeps_existing_runs():
    base = dict(n_values=(16,), mu_values=(2,), lam_values=(2,), base_seed=4)
    short = run_sweep(ExperimentConfig(seed_count=2, **base))
    long = run_sweep(ExperimentConfig(seed_count=4, **base))
    assert [(r.seed, r.generations) for r in short] == [
        (r.seed, r.generations) for r in long[:2]
    ]


def test_extending_grid_keeps_cell_seeds():
    small = ExperimentConfig(n_values=(16,), mu_values=(2,), lam_values=(2,))
    grown = ExperimentConfig(n_values=(16, 32), mu_values=(2,), lam_values=(2,))
    assert small.cell_seed(16, 2, 2, 0) == grown.cell_seed(16, 2, 2, 0)


# --- CSV persistence ----------------------------------------------------------


@pytest.fixture(scope="module")
def small_records():
    return run_sweep(SMALL)


def test_records_csv_layout(tmp_path, small_records):
    path = tmp_path / "records.csv"
    write_records_csv(str(path), small_records, SMALL.config_hash)
    lines = path.read_text().splitlines()
    assert lines[0] == f"# config_hash={SMALL.config_hash}"
    assert lines[1] == ",".join(RECORD_COLUMNS)
    assert len(lines) == 2 + len(small_records)
    first = lines[2].split(",")
    assert first[:4] == ["16", "2", "2", "0"]
    # seed_index restarts per cell
    indexes = [line.split(",")[3] for line in lines[2:]]
    assert indexes == ["0", "1", "2"] * 3


def test_csv_output_is_reproducible(tmp_path, small_records):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_records_csv(str(a), small_records, SMALL.config_hash)
    write_records_csv(str(b), small_records, SMALL.config_hash)
    assert a.read_bytes() == b.read_bytes()


def test_summary_csv_layout(tmp_path, small_records):
    path = tmp_path / "summary.csv"
    rows = summarize(small_records)
    write_summary_csv(str(path), rows, SMALL.config_hash)
    lines = path.read_text().splitlines()
    assert lines[0] == f"# config_hash={SMALL.config_hash}"
    assert lines[1] == ",".join(SUMMARY_COLUMNS)
    assert len(lines) == 2 + 3
    assert all(line.endswith(SMALL.config_hash) for line in lines[2:])


def test_summarize_statistics():
    spec = FitnessSpec.onemax(8)
    recs = [
        RunRecord(seed=i, spec=spec, mu=2, lam=2, generations=g,
                  evaluations=2 + 4 * g, terminated="optimum")
        for i, g in enumerate([10, 20, 60])
    ]
    (row,) = summarize(recs)
    assert row.seed_count == 3
    assert row.mean_generations == pytest.approx(30.0)
    assert row.median_generations == pytest.approx(20.0)
    assert row.std_generations == pytest.approx(21.602468994692867)
    assert row.mean_evaluations == pytest.approx(2 + 4 * 30.0)
    assert row.cap_hits == 0


def test_trace_csv_layout(tmp_path):
    cfg = ExperimentConfig(n_values=(16,), mu_values=(2,), lam_values=(2,))
    (rec,) = run_sweep(cfg, record_trace=True)
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), rec, cfg.config_hash)
    lines = path.read_text().splitlines()
    assert lines[0] == f"# config_hash={cfg.config_hash}"
    assert lines[1] == ",".join(TRACE_COLUMNS)
    assert len(lines) == 2 + rec.generations + 1
    for g, line in enumerate(lines[2:]):
        fields = line.split(",")
        assert fields[0] == str(g)
        # k doubles as best_fitness under plain ones counting
        assert fields[1] == fields[6]


def test_plot_data_format(tmp_path):
    path = tmp_path / "series.dat"
    write_plot_data(str(path), [16, 32], [10.5, 25.0], "abc123def456")
    assert path.read_text() == "# config_hash=abc123def456\n16 10.5\n32 25.0\n"
    with pytest.raises(ValueError):
        write_plot_data(str(path), [16, 32], [10.5], "abc123def456")


def test_plot_data_with_unequal_columns_writes_no_file(tmp_path):
    path = tmp_path / "series.dat"
    with pytest.raises(ValueError):
        write_plot_data(str(path), [16, 32], [10.5], "abc")
    assert not path.exists()


def test_ensure_out_dir(tmp_path, monkeypatch):
    target = tmp_path / "a" / "b"
    ensure_out_dir(str(target))
    assert target.is_dir()
    monkeypatch.setattr(os, "access", lambda *_: False)
    with pytest.raises(PermissionError):
        ensure_out_dir(str(target))


# --- scaling fits ---------------------------------------------------------


def synth_records(a, b, noise=None, lam=2):
    spec_cache = {}
    recs = []
    rng = None
    if noise is not None:
        import numpy as np

        rng = np.random.default_rng(1234)
    for n in (16, 32, 64, 128):
        for mu in (2, 4):
            spec = spec_cache.setdefault(n, FitnessSpec.onemax(n))
            gens = a * mu * n * math.log(n) + b * mu * n
            if rng is not None:
                gens *= 1 + noise * rng.standard_normal()
            recs.append(
                RunRecord(seed=0, spec=spec, mu=mu, lam=lam, generations=gens,
                          evaluations=mu + 2 * lam * gens, terminated="optimum")
            )
    return recs


def test_fit_recovers_exact_coefficients():
    fit = fit_scaling(synth_records(1.7, 0.6))
    assert fit.a == pytest.approx(1.7, abs=1e-9)
    assert fit.b == pytest.approx(0.6, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.cell_count == 8
    assert fit.predict(64, 2) == pytest.approx(2 * 64 * (1.7 * math.log(64) + 0.6))


def test_fit_tolerates_mild_noise():
    # 1% cell-mean noise is the realistic scale (seed noise / sqrt(seeds));
    # the two basis functions are collinear enough that the split between a
    # and b moves much more than the predictions do
    fit = fit_scaling(synth_records(1.7, 0.6, noise=0.01))
    assert fit.a == pytest.approx(1.7, rel=0.15)
    assert fit.r_squared > 0.995
    truth = 1.7 * 2 * 128 * math.log(128) + 0.6 * 2 * 128
    assert fit.predict(128, 2) == pytest.approx(truth, rel=0.05)


def test_evaluation_fit_scales_by_per_generation_cost():
    recs = synth_records(1.7, 0.6, lam=4)
    gen_fit = fit_scaling(recs)
    eval_fit = fit_scaling(recs, UNIT_EVALUATIONS)
    # removing the flat initialization charge leaves an exact factor 2*lambda
    assert eval_fit.a == pytest.approx(8 * gen_fit.a, rel=1e-9)
    assert eval_fit.b == pytest.approx(8 * gen_fit.b, rel=1e-9)


def test_fit_requires_three_lengths():
    recs = [r for r in synth_records(1.7, 0.6) if r.spec.n in (16, 32)]
    with pytest.raises(ValueError, match="distinct n"):
        fit_scaling(recs)
    with pytest.raises(ValueError, match="unknown unit"):
        fit_scaling(synth_records(1.7, 0.6), "wall_clock")


def test_fit_from_summary_matches_direct_fit(tmp_path, small_records):
    # both fits read the same cell means, and the CSV round-trips floats
    path = tmp_path / "summary.csv"
    write_summary_csv(str(path), summarize(small_records), SMALL.config_hash)
    for unit in ("generations", UNIT_EVALUATIONS):
        direct = fit_scaling(small_records, unit)
        from_csv = fit_from_summary(str(path), unit)
        assert (from_csv.a, from_csv.b, from_csv.r_squared, from_csv.cell_count) == (
            direct.a, direct.b, direct.r_squared, direct.cell_count)


def test_read_summary_csv_rejects_a_row_without_values(tmp_path):
    path = tmp_path / "summary.csv"
    path.write_text("n,mu,lambda,mean_generations,mean_evaluations\n"
                    "16,2,2,40.5,164.0\n32,2\n")
    with pytest.raises(ValueError, match="data row 2 lacks values"):
        read_summary_csv(str(path))
    path.write_text("# config_hash=abc\nn,mu,lambda,mean_generations,mean_evaluations\n"
                    "16,2,2,40.5,164.0\n")
    assert read_summary_csv(str(path)) == ("abc", [(16, 2, 2, 40.5, 164.0)])
