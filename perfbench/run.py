"""Benchmark entry point for bitswap-ea.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The package is imported from ``src/`` as it is
checked out; nothing is installed. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` repeats whole rounds for ``--seconds`` seconds with no wrapper
installed and reports the end-to-end metrics. Every time in them is in
reference seconds (see ``calibration.py``): on a shared host the same work
runs up to 1.7 times slower for minutes at a time, so the run samples a
calibration kernel between its timed calls and scales its times by the mean
kernel time. Round 0 warms up and is not timed; the round metrics are means
over the other rounds. Set-up time is the median of ``SETUP_PROBES`` fresh
interpreters that import the package and build the workload's inputs, one
after each round until all have run. ``--trace 1`` runs the first round's
inputs once untraced and once traced in this one process and reports the
per-layer metrics in raw seconds; it does a fixed amount of work, so its
counts repeat exactly for a seed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
TRACES = os.path.join(HERE, "traces")
SETUP_PROBES = 15
PROBE_TIMEOUT_S = 60


def _workers() -> int:
    return len(os.sched_getaffinity(0))


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _setup_seconds(workload: str, seed: int, clock) -> float:
    """Wall time from spawning a fresh interpreter until it reports that the
    package is imported and the inputs are built; ``clock`` samples after."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    clock.sample()
    return ready - start


def _seconds(call) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def measure(workloads, calibration, name: str, seed: int, seconds: float) -> dict:
    out_dir = os.path.join(OUT, f"{name}-{os.getpid()}")
    w = workloads.make(name, seed, out_dir)
    clock = calibration.HostClock()
    rounds, setup = [], []
    start = time.perf_counter()
    try:
        while len(rounds) < 2 or time.perf_counter() - start < seconds:
            rounds.append(w.run_round(w.prepare(len(rounds)), _workers(), clock))
            print(f"round {len(rounds) - 1}: {rounds[-1].seconds:.3f} s, "
                  f"{rounds[-1].generations} generations", file=sys.stderr)
            if len(setup) < SETUP_PROBES:
                setup.append(_setup_seconds(name, seed, clock))
        problems = [p for r in rounds for p in r.problems] + w.finish()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    rss = _peak_rss_mb()
    while len(setup) < SETUP_PROBES:
        setup.append(_setup_seconds(name, seed, clock))
    # Means, not medians: the host switches between two speeds, and the
    # median of such a mixture jumps from one to the other where the mean
    # moves smoothly, as the kernel's mean over the same mixture does.
    timed = rounds[1:]
    ref = clock.to_reference
    metrics = {
        "setup_s": _metric(ref(statistics.median(setup)), "s"),
        "norm_wall_s": _metric(ref(statistics.fmean(r.seconds for r in timed)), "s"),
        "norm_generations_per_s": _metric(ratio(
            sum(r.generations for r in timed), ref(sum(r.gen_seconds for r in timed))),
            "generations/s"),
        "peak_rss_mb": _metric(rss, "MB"),
    }
    print(f"host: {len(clock.samples)} kernel samples, mean "
          f"{statistics.fmean(clock.samples) * 1e3:.2f} ms", file=sys.stderr)
    return _result(rounds, problems, metrics)


def trace(workloads, calibration, spans_mod, name: str, seed: int) -> dict:
    out_dir = os.path.join(OUT, f"{name}-{os.getpid()}")
    plain = workloads.make(name, seed, out_dir)
    try:
        inputs = plain.prepare(0)
        config = plain.sweep_config(inputs)
        # Every untraced time that a ratio or a difference below compares is
        # taken twice (the sweeps back to back, the round before and after the
        # traced one) and the faster kept, so that a slow spell of the host
        # falls less often on one side only.
        efficiency = 0.0
        if config is not None:
            pooled = min(_seconds(lambda: workloads.harness.run_sweep(config, workers=_workers()))
                         for _ in range(2))
            in_process = min(_seconds(lambda: workloads.harness.run_sweep(config, workers=1))
                             for _ in range(2))
            efficiency = in_process / (_workers() * pooled)
        no_clock = calibration.NoClock()
        untraced = plain.run_round(inputs, 1, no_clock)

        traced_w = workloads.make(name, seed, out_dir)
        tracer = spans_mod.Tracer()
        with tracer.installed():
            traced = traced_w.run_round(traced_w.prepare(0), 1, no_clock)
        again = plain.run_round(inputs, 1, no_clock)
        problems = untraced.problems + again.problems + traced.problems + traced_w.finish()
        if traced.generations != untraced.generations:
            problems.append(f"tracing changed the result: {traced.generations} "
                            f"generations traced, {untraced.generations} untraced")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    os.makedirs(TRACES, exist_ok=True)
    tracer.write(os.path.join(TRACES, f"{name}.npz"))
    totals = tracer.self_times()
    metrics = {}
    for target in spans_mod.TARGET_NAMES:
        calls, self_s = totals.get(target, (0, 0.0))
        metrics[f"{target}.calls"] = _metric(calls, "count")
        metrics[f"{target}.self_us"] = _metric(ratio(self_s, calls) * 1e6, "us")
        metrics[f"{target}.self_s"] = _metric(self_s, "s")
    metrics["engine.generations"] = _metric(tracer.generations, "count")
    metrics["engine.improving_generation_ratio"] = _metric(
        ratio(tracer.improving, tracer.generations), "ratio")
    metrics["engine.replace.overflow_ratio"] = _metric(
        ratio(tracer.overflows, tracer.replaces), "ratio")
    metrics["harness.pool_efficiency"] = _metric(efficiency, "ratio")
    metrics["trace.overhead_s"] = _metric(
        traced.seconds - min(untraced.seconds, again.seconds), "s")
    return _result([traced], problems, metrics)


def _result(rounds, problems: list[str], metrics: dict) -> dict:
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bitswap_ea", "__init__.py")):
        print(f"error: no bitswap_ea package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import calibration
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    if args.setup_probe:
        out_dir = os.path.join(OUT, f"{args.workload}-probe-{os.getpid()}")
        try:
            workloads.make(args.workload, args.seed, out_dir).prepare(0)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        print("ready", flush=True)
        return 0

    if args.trace:
        import spans
        result = trace(workloads, calibration, spans, args.workload, args.seed)
    else:
        result = measure(workloads, calibration, args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
