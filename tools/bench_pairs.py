"""Run the benchmark in alternating parent/change pairs and write one JSON file.

    python3 tools/bench_pairs.py --parent DIR --change DIR \
        --workload sweep-scaling --seeds 1101-1110 --seconds 30 --out BENCH.json

``--parent`` and ``--change`` are two source trees of this repository, for
example a clean export of the parent commit (``git archive``) and the working
tree. For each workload and each seed, ``perfbench/run.py --trace 0`` runs once
in each tree with the same arguments; the side that runs first alternates from
one pair to the next. ``--workload`` may be repeated. Each run starts from a
tree without bytecode: the ``__pycache__`` directories under its ``src/`` and
``perfbench/`` are removed first, and the child runs with
``PYTHONDONTWRITEBYTECODE=1``, so a tree that once held caches times its
imports like a fresh export.

The output holds, per workload and end-to-end metric, each side's median and
quartiles, the change's wins (pairs in which it is better in the direction
``BENCHMARK.json`` gives, ties counting for neither), the ratio of the
medians, change over parent, and two verdicts: ``claim_met``, the change wins
at least 9 in 10 of the pairs and its median beats the parent's by more than
the parent's q3 - q1, and ``within_bound``, the change's median is no worse
than the parent's by more than the metric's ``bound`` in ``BENCHMARK.json``, a
fraction of the parent's median; every run's JSON result with its seed, side, the
checks it reported failed, its number of rounds (the ``round N:`` lines that
``perfbench/run.py`` prints to stderr, so how many per-round checks the run
faced) and the number of ``__pycache__`` directories removed before it; and the
host's CPU count with the Python and numpy versions. The file is rewritten
after every run, so an interrupted invocation keeps the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

SIDES = ("parent", "change")

# ``perfbench/run.py`` prints one such line per round to stderr
ROUND_LINE = re.compile(r"round \d+: ")


def parse_seeds(text: str) -> list[int]:
    """``"11-20"`` or ``"11,14,20"`` as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def clear_bytecode(tree: str) -> int:
    """Remove the ``__pycache__`` directories under the tree's ``src/`` and
    ``perfbench/``; return how many there were."""
    removed = 0
    for top in ("src", "perfbench"):
        for dirpath, dirnames, _ in os.walk(os.path.join(tree, top)):
            if "__pycache__" in dirnames:
                dirnames.remove("__pycache__")
                shutil.rmtree(os.path.join(dirpath, "__pycache__"))
                removed += 1
    return removed


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    removed = clear_bytecode(tree)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {
        "exit_code": proc.returncode,
        "pycache_removed": removed,
        "elapsed_s": elapsed,
        "result": json.loads(lines[-1]) if proc.returncode == 0 and lines else None,
        "checks_failed": [line for line in proc.stderr.splitlines()
                          if line.startswith("check failed:")],
        "rounds": sum(bool(ROUND_LINE.match(line)) for line in proc.stderr.splitlines()),
    }


def _spread(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def summarize(runs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per workload and metric: each side's spread, the change's wins, the
    ratio of medians and the two verdicts, over the pairs in which both
    sides succeeded. ``metrics`` maps each name to its ``BENCHMARK.json``
    entry, of which ``better`` and ``bound`` are read."""
    pairs: dict[tuple[str, int], dict[str, dict]] = {}
    for run in runs:
        if run["result"] is not None:
            pairs.setdefault((run["workload"], run["seed"]), {})[run["side"]] = run["result"]
    out: dict[str, dict] = {}
    for workload in dict.fromkeys(w for w, _ in pairs):
        both = [p for (w, _), p in pairs.items() if w == workload and len(p) == 2]
        if not both:
            continue
        table = {}
        for metric, spec in metrics.items():
            better = spec["better"]
            values = {side: [p[side]["metrics"][metric]["value"] for p in both] for side in SIDES}
            sign = 1 if better == "higher" else -1
            wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
            parent, change = _spread(values["parent"]), _spread(values["change"])
            gain = sign * (change["median"] - parent["median"])
            table[metric] = {
                "better": better,
                "parent": parent,
                "change": change,
                "change_wins": wins,
                "pairs": len(both),
                "median_ratio": change["median"] / parent["median"] if parent["median"] else None,
                "claim_met": 10 * wins >= 9 * len(both) and gain > parent["q3"] - parent["q1"],
                "within_bound": gain >= -spec["bound"] * abs(parent["median"]),
            }
        table["all_correct"] = {
            side: all(p[side]["correct"] and p[side]["failed"] == 0 for p in both)
            for side in SIDES
        }
        out[workload] = table
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="source tree of the parent commit")
    parser.add_argument("--change", required=True, help="source tree of the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="one seed per pair, e.g. 1101-1110")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for tree in trees.values():
        if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
            parser.error(f"{tree} has no perfbench/run.py")
    with open(os.path.join(trees["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}

    report = {
        "host": {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "settings": {"seconds": args.seconds, "seeds": args.seeds,
                     "workloads": args.workload},
        "summary": {},
        "runs": [],
    }
    for workload in args.workload:
        for index, seed in enumerate(args.seeds):
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            for side in order:
                run = run_once(trees[side], workload, seed, args.seconds)
                run.update(workload=workload, seed=seed, side=side, first=order[0])
                report["runs"].append(run)
                report["summary"] = summarize(report["runs"], metrics)
                with open(args.out, "w", encoding="utf-8") as fh:
                    json.dump(report, fh, indent=1)
                value = (run["result"] or {}).get("metrics", {}).get("norm_generations_per_s", {})
                print(f"{workload} seed={seed} {side}: exit {run['exit_code']}, "
                      f"norm_generations_per_s {value.get('value')}, {run['rounds']} rounds, "
                      f"{len(run['checks_failed'])} checks failed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
