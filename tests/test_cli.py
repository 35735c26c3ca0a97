import itertools
import json

import pytest

from bitswap_ea.cli import main
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


# --- verification suites --------------------------------------------------


def test_verify_probabilities_all_pass(capsys):
    rc, out, _ = invoke(capsys, "verify-probabilities", "--trials", "2000")
    assert rc == 0
    assert "8/8 checks passed" in out
    assert "FAIL" not in out


def test_verify_bounds_all_pass(capsys):
    rc, out, _ = invoke(capsys, "verify-bounds")
    assert rc == 0
    assert "12/12 checks passed" in out
    assert "FAIL" not in out


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
