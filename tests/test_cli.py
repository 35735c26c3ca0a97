import hashlib
import itertools
import json
import os

import pytest

from bitswap_ea.cli import build_parser, main
from bitswap_ea.harness import ExperimentConfig, run_sweep, summarize, write_summary_csv


def invoke(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# --- run ----------------------------------------------------------------------


def test_run_prints_outcome(capsys):
    rc, out, _ = invoke(capsys, "run", "--n", "16", "--seed", "3")
    assert rc == 0
    assert "terminated=optimum" in out
    assert "generations=" in out
    assert "fitness=onemax" in out


def test_run_is_deterministic(capsys):
    _, first, _ = invoke(capsys, "run", "--n", "16", "--seed", "3")
    _, second, _ = invoke(capsys, "run", "--n", "16", "--seed", "3")
    assert first == second
    _, other, _ = invoke(capsys, "run", "--n", "16", "--seed", "4")
    assert first != other


def test_run_with_plateau_fitness(capsys):
    rc, out, _ = invoke(capsys, "run", "--n", "16", "--gamma", "2", "--seed", "1")
    assert rc == 0
    assert "fitness=plateau_royal_road" in out


def test_run_writes_trace(tmp_path, capsys):
    rc, out, _ = invoke(
        capsys, "run", "--n", "16", "--seed", "3", "--out", str(tmp_path)
    )
    assert rc == 0
    path = tmp_path / "trace_n16_mu2_lam2_seed3.csv"
    assert path.exists()
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1].startswith("generation,k,alpha")


def test_run_trace_stamp_covers_the_generation_cap(tmp_path, capsys):
    def stamp(name, *extra):
        out = tmp_path / name
        rc, _, _ = invoke(capsys, "run", "--n", "16", "--seed", "1",
                          "--out", str(out), *extra)
        assert rc == 0
        return (out / "trace_n16_mu2_lam2_seed1.csv").read_text().splitlines()[0]

    assert stamp("default") != stamp("cap3", "--generation-cap", "3")


# --- sweep --------------------------------------------------------------------


def write_config(tmp_path, **overrides):
    raw = {"n": [16, 24, 32], "mu": [2], "lambda": [2], "seed_count": 3,
           "base_seed": 99}
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def test_sweep_writes_records_and_summary(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out_dir = tmp_path / "out"
    rc, out, _ = invoke(capsys, "sweep", "--config", str(cfg_path), "--out", str(out_dir))
    assert rc == 0
    assert "9 runs" in out
    records = (out_dir / "records.csv").read_text().splitlines()
    summary = (out_dir / "summary.csv").read_text().splitlines()
    cfg = ExperimentConfig.from_json(str(cfg_path))
    assert records[0] == f"# config_hash={cfg.config_hash}"
    assert summary[0] == f"# config_hash={cfg.config_hash}"
    assert len(records) == 2 + 9
    assert len(summary) == 2 + 3


def test_sweep_defaults_to_the_usable_cpus_with_the_same_bytes(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    outputs = {}
    for name, extra in (("default", ()), ("serial", ("--workers", "1"))):
        out_dir = tmp_path / name
        rc, _, _ = invoke(capsys, "sweep", "--config", str(cfg_path),
                          "--out", str(out_dir), *extra)
        assert rc == 0
        outputs[name] = [(out_dir / f).read_bytes() for f in ("records.csv", "summary.csv")]
    assert build_parser().parse_args(
        ["sweep", "--config", str(cfg_path)]).workers == len(os.sched_getaffinity(0))
    assert outputs["default"] == outputs["serial"]


def test_sweep_rejects_bad_config(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n": [8], "mu": [2], "lambda": [2], "mo": True}))
    rc, _, err = invoke(capsys, "sweep", "--config", str(path))
    assert rc == 2
    assert "unknown config keys" in err


@pytest.mark.parametrize("override,message", [
    ({"seed_count": "2"}, "seed_count must be an integer, got '2'"),
    ({"n": [16.7]}, "n must be an integer, got 16.7"),
    ({"lambda": [3]}, "lambda must be even and >= 2, got 3"),
])
def test_sweep_rejects_bad_values_before_writing(tmp_path, capsys, override, message):
    cfg_path = write_config(tmp_path, **override)
    out_dir = tmp_path / "out"
    rc, out, err = invoke(capsys, "sweep", "--config", str(cfg_path), "--out", str(out_dir))
    assert rc == 2
    assert err == f"error: {message}\n"
    assert not out_dir.exists()



def test_sweep_rejects_a_grid_that_repeats_a_seed(tmp_path, capsys):
    # n=16 listed twice would run its seeds twice and report seed_count 4
    cfg_path = write_config(tmp_path, n=[16, 32, 16], seed_count=2)
    out_dir = tmp_path / "out"
    rc, out, err = invoke(capsys, "sweep", "--config", str(cfg_path), "--out", str(out_dir))
    assert (rc, out) == (2, "")
    assert err == "error: the n grid repeats a value: [16, 32, 16]\n"
    assert not out_dir.exists()

@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_rejects_worker_count_below_one(tmp_path, capsys, workers):
    cfg_path = write_config(tmp_path)
    rc, out, err = invoke(capsys, "sweep", "--config", str(cfg_path),
                          "--out", str(tmp_path / "out"), "--workers", workers)
    assert rc == 2
    assert out == ""
    assert err == f"error: workers must be >= 1, got {workers}\n"
    assert not (tmp_path / "out").exists()


def test_sweep_reports_malformed_json(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    rc, _, err = invoke(capsys, "sweep", "--config", str(path))
    assert rc == 2
    assert err.startswith("error:")


def test_sweep_reports_missing_file(tmp_path, capsys):
    rc, _, err = invoke(capsys, "sweep", "--config", str(tmp_path / "nope.json"))
    assert rc == 2
    assert err.startswith("error:")


def test_unknown_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2



@pytest.mark.parametrize("argv", [
    ["run", "--n", "8", "--seed", "-1"],
    ["compare-plateau", "--trials", "2000", "--seed", "-1"],
    ["verify-probabilities", "--trials", "2000", "--seed", "-5"],
])
def test_negative_seeds_for_numpy_name_their_flag(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"argument --seed: must be >= 0, got {argv[-1]}" in captured.err


def test_verify_bounds_takes_a_negative_seed(capsys):
    # its draws come from random.Random, which takes any integer
    rc, out, _ = invoke(capsys, "verify-bounds", "--seed", "-5")
    assert rc == 0
    assert out.endswith("12/12 checks passed\n")

# --- verification suites --------------------------------------------------


# The tests leave the reference values to these checks, so a check that
# leaves its suite must fail here rather than silently drop coverage.
PROBABILITY_CHECKS = """swap_probability_values swap_probability_range
event_probability_values event_probability_range exact_vs_monte_carlo
success_monotone_in_pool_size analytic_sign_agreement_at_top_level
probe_reference_points""".split()
BOUND_CHECKS = """quadratic_level_sum_values cubic_level_sum_values square_sum_telescopes
cube_sum_telescopes polygamma_reference_points harmonic_reference_points
traverse_bound_values simple_runtime_value inner_sum_partial_fractions
asymptotic_tracks_exact refined_below_simple termwise_envelope_on_validity_region""".split()


def passed_checks(out):
    *lines, total = out.splitlines()
    assert all(line.startswith("PASS ") for line in lines), out
    return [line.split()[1].rstrip(":") for line in lines], total


def test_verify_probabilities_all_pass(capsys):
    rc, out, _ = invoke(capsys, "verify-probabilities", "--trials", "2000")
    assert rc == 0
    assert passed_checks(out) == (PROBABILITY_CHECKS, "8/8 checks passed")


def test_verify_bounds_all_pass(capsys):
    rc, out, _ = invoke(capsys, "verify-bounds")
    assert rc == 0
    assert passed_checks(out) == (BOUND_CHECKS, "12/12 checks passed")


# --- probe ------------------------------------------------------------------


def test_probe_emits_region_csv(tmp_path, capsys):
    rc, out, _ = invoke(capsys, "probe-appendix-a", "--out", str(tmp_path))
    assert rc == 0
    assert "35/1015" in out
    assert "holds=False" in out
    lines = (tmp_path / "probe_region.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "p_sel,phi,lambda,m,p_e,p_e_star,holds"
    assert len(lines) == 2 + 1015
    holds_column = [line.rsplit(",", 1)[1] for line in lines[2:]]
    assert holds_column.count("1") == 35


# --- plateau comparison ------------------------------------------------------


def test_compare_plateau_reports_ordering(tmp_path, capsys):
    rc, out, _ = invoke(
        capsys, "compare-plateau", "--trials", "2000", "--seed", "5",
        "--out", str(tmp_path),
    )
    assert rc == 0
    assert "ordering_holds=True" in out
    lines = (tmp_path / "plateau_comparison.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1].startswith("n,gamma,mu,lambda,trials")
    assert len(lines) == 3


def test_compare_plateau_rejects_bad_geometry(capsys):
    rc, _, err = invoke(capsys, "compare-plateau", "--n", "10", "--gamma", "3",
                        "--trials", "2000")
    assert rc == 2
    assert "multiple of" in err


@pytest.mark.parametrize("gamma", ["0", "-3"])
def test_compare_plateau_rejects_bad_bin_width(capsys, gamma):
    rc, out, err = invoke(capsys, "compare-plateau", "--gamma", gamma, "--trials", "2000")
    assert rc == 2
    assert out == ""
    assert err == f"error: plateau bin width must be >= 1, got {gamma}\n"


@pytest.mark.parametrize("flag,value,message", [
    ("--trials", "0", "trials must be >= 1, got 0"),
    ("--trials", "-5", "trials must be >= 1, got -5"),
    ("--lambda", "3", "lambda must be even and >= 2, got 3"),
])
def test_compare_plateau_rejects_bad_pool_or_trial_count(capsys, flag, value, message):
    args = {"--n": "12", "--gamma": "3", "--mu": "4", "--lambda": "4", "--trials": "2000"}
    args[flag] = value
    rc, out, err = invoke(capsys, "compare-plateau", *itertools.chain(*args.items()))
    assert rc == 2
    assert out == ""
    assert err == f"error: {message}\n"


# --- fit and plot data ------------------------------------------------------


@pytest.fixture(scope="module")
def summary_csv(tmp_path_factory):
    cfg = ExperimentConfig(
        n_values=(16, 24, 32), mu_values=(2,), lam_values=(2,), seed_count=3,
        base_seed=99,
    )
    records = run_sweep(cfg)
    path = tmp_path_factory.mktemp("fit") / "summary.csv"
    write_summary_csv(str(path), summarize(records), cfg.config_hash)
    return path


def test_fit_prints_model(summary_csv, capsys):
    rc, out, _ = invoke(capsys, "fit", str(summary_csv))
    assert rc == 0
    assert "T = " in out
    assert "* mu * n * ln(n) +" in out
    assert "r_squared=" in out


def test_fit_in_evaluation_units(summary_csv, capsys):
    rc, out, _ = invoke(capsys, "fit", str(summary_csv), "--unit", "evaluations")
    assert rc == 0
    assert "unit=evaluations" in out


def test_fit_rejects_underdetermined_summary(tmp_path, capsys):
    path = tmp_path / "summary.csv"
    cfg = ExperimentConfig(n_values=(16, 24), mu_values=(2,), lam_values=(2,),
                           seed_count=2, base_seed=99)
    write_summary_csv(str(path), summarize(run_sweep(cfg)), cfg.config_hash)
    rc, _, err = invoke(capsys, "fit", str(path))
    assert rc == 2
    assert "distinct n" in err


@pytest.mark.parametrize("unit", ["generations", "evaluations"])
def test_fit_refuses_equal_nonzero_cell_means(tmp_path, capsys, unit):
    # no a*mu*n*ln(n) + b*mu*n is constant over three n, and equal means
    # leave no variance for r_squared to measure against
    path = tmp_path / "summary.csv"
    header = "n,mu,lambda,mean_generations,mean_evaluations\n"
    path.write_text(header + "".join(f"{n},2,2,100.0,402.0\n" for n in (32, 64, 128)))
    rc, out, err = invoke(capsys, "fit", str(path), "--unit", unit)
    assert (rc, out) == (2, "")
    assert err == ("error: r_squared is undefined: all 3 cell means are equal "
                   "and the model does not fit them exactly\n")
    # all-zero means are fitted exactly by a = b = 0
    path.write_text(header + "".join(f"{n},2,2,0.0,2.0\n" for n in (32, 64, 128)))
    rc, out, _ = invoke(capsys, "fit", str(path), "--unit", unit)
    assert rc == 0
    assert "r_squared=1.000000" in out


def test_plot_data_emits_series(summary_csv, tmp_path, capsys):
    rc, out, _ = invoke(capsys, "plot-data", str(summary_csv), "--out", str(tmp_path))
    assert rc == 0
    assert "2 series files" in out
    gen = tmp_path / "generations_mu2_lam2.dat"
    evl = tmp_path / "evaluations_mu2_lam2.dat"
    assert gen.exists() and evl.exists()
    lines = gen.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert len(lines) == 4
    xs = [line.split()[0] for line in lines[1:]]
    assert xs == ["16", "24", "32"]


@pytest.mark.parametrize("command", [["fit"], ["plot-data", "--out", "OUT"]])
def test_summary_readers_name_missing_columns(tmp_path, capsys, command):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    out_dir = tmp_path / "plots"
    argv = [str(out_dir) if a == "OUT" else a for a in command]
    rc, out, err = invoke(capsys, argv[0], str(path), *argv[1:])
    assert rc == 2
    assert out == ""
    assert err == (f"error: {path} lacks summary columns "
                   "['n', 'mu', 'lambda', 'mean_generations', 'mean_evaluations']\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("row,message", [
    ("16,2,2,nan,166.0", "data row 2 has a non-finite mean"),
    ("16,2,2,40.5,inf", "data row 2 has a non-finite mean"),
    ("0,2,2,40.5,166.0", "data row 2 has n = 0, below 1"),
    ("sixteen,2,2,40.5,166.0",
     "data row 2: invalid literal for int() with base 10: 'sixteen'"),
    ("16,0,2,40.5,166.0", "data row 2 has mu = 0, below 2"),
    ("16,2,3,40.5,166.0", "data row 2 has lambda = 3, not even and >= 2"),
    ("16,2,2,-1.0,-2.0", "data row 2 has mean_generations = -1.0, below 0"),
    ("32,2,2,10.0,0.0",
     "data row 2 has mean_evaluations = 0.0, not mu + 2*lambda*mean_generations"),
], ids=["nan-mean", "inf-mean", "n-zero", "non-numeric-n", "mu-zero", "lambda-odd",
        "negative-mean", "evaluations-off-accounting"])
@pytest.mark.parametrize("command", [["fit"], ["plot-data", "--out", "OUT"]],
                         ids=["fit", "plot-data"])
def test_summary_readers_name_the_bad_row(tmp_path, capsys, command, row, message):
    path = tmp_path / "bad.csv"
    path.write_text("n,mu,lambda,mean_generations,mean_evaluations\n"
                    f"32,2,2,90.0,362.0\n{row}\n64,2,2,200.0,802.0\n")
    out_dir = tmp_path / "plots"
    argv = [str(out_dir) if a == "OUT" else a for a in command]
    rc, out, err = invoke(capsys, argv[0], str(path), *argv[1:])
    assert rc == 2
    assert out == ""
    assert err == f"error: {path}: {message}\n"
    assert not out_dir.exists()


# --- pinned output bytes ------------------------------------------------------

# (stamp, SHA-256) of every kind of emitted file; a change here changes a
# published output or the provenance hash that names it
PINNED_OUTPUTS = {
    "sweep/records.csv": (
        "# config_hash=ff18029ddef4",
        "aca1a865ff96f458bf05483dcd3ea3f252927c23e90049c64365c76b6f751f2d"),
    "sweep/summary.csv": (
        "# config_hash=ff18029ddef4",
        "e061df7f5a8b82daf3a88dce41d9dcd6c2545287eab872ee9399566d19ddddb3"),
    "onemax/trace_n16_mu2_lam2_seed3.csv": (
        "# config_hash=192204ae1bcd",
        "b74e93f717be65d6b3e672898e27397080df2f0b6387a6ddc86a52e15169cf0c"),
    "gamma1/trace_n12_mu4_lam4_seed1.csv": (
        "# config_hash=f890663f4a70",
        "34265445fd4f4b3bb74e725fe3444d92cb9589847211a6da5dbc8b75d179de5f"),
    "gamma3/trace_n12_mu4_lam4_seed1.csv": (
        "# config_hash=77bfd8b5b302",
        "e822c42954f63d84df0c957ba3fd6f4bb1ce68a3597d1c36772fb5668b6f5fbc"),
    "cap7/trace_n16_mu2_lam2_seed3.csv": (
        "# config_hash=483324161ad6",
        "b26a612ce81c5f7f2c5fd003ddf8d8d50216d547088f32693b338112ede90051"),
    "probe/probe_region.csv": (
        "# config_hash=00d9af69aef7",
        "a80eafd3216548e650b7f5df6563758ee906c7c24010fbbdfbfcdbd45a6d1ba9"),
    "plateau/plateau_comparison.csv": (
        "# config_hash=919caa333e4d",
        "f5336a022a81bffaca2c99909ff52fa482d492e29790c3120d68f3d53f66440c"),
    "plots/generations_mu2_lam2.dat": (
        "# config_hash=ff18029ddef4",
        "e1332d4281f315811b45ef33fa68c0325db4bb5f6aa7932d5d63b7b2784568df"),
    "plots/evaluations_mu2_lam2.dat": (
        "# config_hash=ff18029ddef4",
        "6b95aae0f830038ebb26507553333d141391945014df0912dc3abce21a6776a5"),
}


def test_emitted_files_keep_their_bytes(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    assert ExperimentConfig.from_json(str(cfg_path)).config_hash == "ff18029ddef4"
    out = {name: str(tmp_path / name) for name in
           ("sweep", "onemax", "gamma1", "gamma3", "cap7", "probe", "plateau", "plots")}
    run = ("run", "--n", "12", "--mu", "4", "--lambda", "4", "--seed", "1")
    for argv in [
        ("sweep", "--config", str(cfg_path), "--out", out["sweep"]),
        ("run", "--n", "16", "--seed", "3", "--out", out["onemax"]),
        (*run, "--gamma", "1", "--out", out["gamma1"]),
        (*run, "--gamma", "3", "--out", out["gamma3"]),
        ("run", "--n", "16", "--seed", "3", "--generation-cap", "7", "--out", out["cap7"]),
        ("probe-appendix-a", "--out", out["probe"]),
        ("compare-plateau", "--trials", "2000", "--seed", "5", "--out", out["plateau"]),
        ("plot-data", str(tmp_path / "sweep" / "summary.csv"), "--out", out["plots"]),
    ]:
        assert invoke(capsys, *argv)[0] == 0
    emitted = {}
    for name in PINNED_OUTPUTS:
        data = (tmp_path / name).read_bytes()
        emitted[name] = (data.split(b"\n", 1)[0].decode(), hashlib.sha256(data).hexdigest())
    assert emitted == PINNED_OUTPUTS
