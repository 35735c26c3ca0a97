"""Command-line surface. Every emitted file is stamped with the config hash
of the settings that produced it; verification subcommands exit nonzero on
any failing check."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .engine import EngineConfig, run
from .fitness import ONEMAX, PLATEAU, FitnessSpec
from .genome import make_rng
from .harness import (
    UNIT_EVALUATIONS,
    UNIT_GENERATIONS,
    ExperimentConfig,
    _write_stamped,
    check_workers,
    ensure_out_dir,
    fit_from_summary,
    provenance_hash,
    read_summary_csv,
    run_sweep,
    summarize,
    write_plot_data,
    write_records_csv,
    write_summary_csv,
    write_trace_csv,
)
from .oracle import plateau_comparison, probe_region
from .verify import bound_checks, probability_checks


def _seed(text: str) -> int:
    """A ``--seed`` for numpy's generator, which takes no negative seed."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return int(text)


def _cmd_run(args: argparse.Namespace) -> int:
    spec = FitnessSpec.of(ONEMAX if args.gamma is None else PLATEAU, args.n, args.gamma)
    cfg = EngineConfig(spec=spec, mu=args.mu, lam=args.lam,
                       generation_cap=args.generation_cap)
    rec = run(cfg, args.seed)
    last = rec.trace[-1]
    print(f"n={args.n} mu={args.mu} lambda={args.lam} fitness={spec.kind} seed={args.seed}")
    print(f"generations={rec.generations} evaluations={rec.evaluations} terminated={rec.terminated}")
    print(f"best_fitness={last.k} best_aux={last.best_aux} alpha={last.alpha}")
    if args.out:
        ensure_out_dir(args.out)
        h = provenance_hash({"cmd": "run", "n": args.n, "mu": args.mu, "lambda": args.lam,
                             "gamma": args.gamma, "seed": args.seed,
                             "generation_cap": args.generation_cap})
        path = os.path.join(args.out, f"trace_n{args.n}_mu{args.mu}_lam{args.lam}_seed{args.seed}.csv")
        write_trace_csv(path, rec, h)
        print(f"trace written to {path}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = ExperimentConfig.from_json(args.config)
    out_dir = args.out or config.out_dir
    check_workers(args.workers)
    ensure_out_dir(out_dir)
    records = run_sweep(config, workers=args.workers)
    h = config.config_hash
    records_path = os.path.join(out_dir, "records.csv")
    summary_path = os.path.join(out_dir, "summary.csv")
    write_records_csv(records_path, records, h)
    write_summary_csv(summary_path, summarize(records), h)
    print(f"{len(records)} runs -> {records_path}, {summary_path} (config_hash={h})")
    return 0


def _print_checks(checks) -> int:
    failed = 0
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}")
        failed += not c.passed
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 1 if failed else 0


def _cmd_verify_probabilities(args: argparse.Namespace) -> int:
    return _print_checks(probability_checks(trials=args.trials, seed=args.seed))


def _cmd_verify_bounds(args: argparse.Namespace) -> int:
    return _print_checks(bound_checks(seed=args.seed))


def _cmd_probe(args: argparse.Namespace) -> int:
    ensure_out_dir(args.out)
    results = probe_region()
    h = provenance_hash({"cmd": "probe", "grid": "default"})
    path = os.path.join(args.out, "probe_region.csv")
    _write_stamped(path, h, ["p_sel", "phi", "lambda", "m", "p_e", "p_e_star", "holds"],
                   ([r.p_sel, r.phi, r.lam, r.m, r.p_e, r.p_e_star, int(r.holds)]
                    for r in results))
    holding = sum(r.holds for r in results)
    print(f"{holding}/{len(results)} grid points satisfy p_e_star >= p_e -> {path}")
    ref = next(r for r in results if r.lam == 10 and r.m == 5 and r.p_sel == 0.1 and r.phi == 0.2)
    print(f"reference point lambda=10 p_sel=0.1 phi=0.2 m=5: "
          f"p_e={ref.p_e:.6f} p_e_star={ref.p_e_star:.6f} holds={ref.holds}")
    return 0


def _cmd_compare_plateau(args: argparse.Namespace) -> int:
    rng = make_rng(args.seed)
    res = plateau_comparison(args.n, args.gamma, args.mu, args.lam, args.trials, rng)
    print(f"p_f1={res.p_f1:.5f} (se {res.se_f1:.5f})  p_f2={res.p_f2:.5f} (se {res.se_f2:.5f})")
    print(f"ordering_holds={res.ordering_holds} (p_f2 <= p_f1)")
    if args.out:
        ensure_out_dir(args.out)
        h = provenance_hash({"cmd": "compare-plateau", "n": args.n, "gamma": args.gamma,
                             "mu": args.mu, "lambda": args.lam, "trials": args.trials,
                             "seed": args.seed})
        path = os.path.join(args.out, "plateau_comparison.csv")
        _write_stamped(path, h, ["n", "gamma", "mu", "lambda", "trials",
                                 "p_f1", "se_f1", "p_f2", "se_f2", "ordering_holds"],
                       [[args.n, args.gamma, args.mu, args.lam, args.trials,
                         res.p_f1, res.se_f1, res.p_f2, res.se_f2,
                         int(res.ordering_holds)]])
        print(f"written to {path}")
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    result = fit_from_summary(args.summary, unit=args.unit)
    print(f"unit={result.unit} cells={result.cell_count}")
    print(f"T = {result.a:.6f} * mu * n * ln(n) + {result.b:.6f} * mu * n")
    print(f"r_squared={result.r_squared:.6f}")
    return 0


def _cmd_plot_data(args: argparse.Namespace) -> int:
    config_hash, rows = read_summary_csv(args.summary)
    ensure_out_dir(args.out)
    series: dict[tuple[int, int], list[tuple[int, float, float]]] = {}
    for n, mu, lam, gens, evals in rows:
        series.setdefault((mu, lam), []).append((n, gens, evals))
    written = []
    for (mu, lam), points in series.items():
        points.sort()
        for stem, col in (("generations", 1), ("evaluations", 2)):
            path = os.path.join(args.out, f"{stem}_mu{mu}_lam{lam}.dat")
            write_plot_data(path, [p[0] for p in points], [p[col] for p in points],
                            config_hash)
            written.append(path)
    print(f"{len(written)} series files -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitswap-ea",
        description="Population EA with one-bit-swap recombination: runs, sweeps, "
                    "verification suites, and scaling fits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="single seeded run, prints the outcome")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu", type=int, default=2)
    p.add_argument("--lambda", dest="lam", type=int, default=2)
    p.add_argument("--gamma", type=int, default=None, help="bin width; selects plateau fitness")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--generation-cap", type=int, default=None)
    p.add_argument("--out", default=None, help="directory for the trace CSV")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="grid sweep from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="override the config's out_dir")
    p.add_argument("--workers", type=int, default=len(os.sched_getaffinity(0)),
                   help="processes, this one included (default: the usable CPUs)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify-probabilities",
                       help="event formulas vs exact enumeration vs Monte-Carlo")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=_seed, default=2024)
    p.set_defaults(func=_cmd_verify_probabilities)

    p = sub.add_parser("verify-bounds", help="level-sum and bound identity suites")
    p.add_argument("--seed", type=int, default=2024)
    p.set_defaults(func=_cmd_verify_bounds)

    p = sub.add_parser("probe-appendix-a",
                       help="map where the single-representative inequality holds")
    p.add_argument("--out", default="results")
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("compare-plateau",
                       help="one-generation success, plain ones counting vs plateau")
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--gamma", type=int, default=3)
    p.add_argument("--mu", type=int, default=4)
    p.add_argument("--lambda", dest="lam", type=int, default=4)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=_seed, default=2024)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_compare_plateau)

    p = sub.add_parser("fit", help="scaling-law fit from a summary CSV")
    p.add_argument("summary")
    p.add_argument("--unit", choices=[UNIT_GENERATIONS, UNIT_EVALUATIONS],
                   default=UNIT_GENERATIONS)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("plot-data", help="two-column series files from a summary CSV")
    p.add_argument("summary")
    p.add_argument("--out", default="results")
    p.set_defaults(func=_cmd_plot_data)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
