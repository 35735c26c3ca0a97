"""Span tracing installed from outside the program.

``Tracer.installed`` replaces each traced public function in every
``bitswap_ea`` module namespace that holds it, so a call is recorded whether
the caller looks the name up in the defining module or in one that imported
it. Nothing under ``src/`` changes, and untraced runs never install a wrapper.

A span is a name, a start, an end and the index of the span open when it
started. Spans live in flat arrays in memory and are written out once, when
the run ends. A span's self time is its duration minus the time its direct
children cover; calls are sequential in one thread, so children never
overlap.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array

import numpy as np

# (module, attribute path) of every traced function, in report order.
TARGETS = [
    ("genome", "make_rng"),
    ("genome", "random_genome"),
    ("fitness", "evaluate"),
    ("fitness", "make_individual"),
    ("fitness", "is_optimum"),
    ("engine", "init_population"),
    ("engine", "tournament_select"),
    ("engine", "fill_pool"),
    ("engine", "one_bit_swap"),
    ("engine", "replace"),
    ("engine", "one_generation"),
    ("engine", "classify_partition"),
    ("engine", "run"),
    ("harness", "ExperimentConfig.from_json"),
    ("harness", "run_sweep"),
    ("harness", "summarize"),
    ("harness", "write_records_csv"),
    ("harness", "write_summary_csv"),
    ("harness", "fit_scaling"),
    ("harness", "fit_from_summary"),
    ("oracle", "exact_generation_success"),
    ("oracle", "monte_carlo_success"),
    ("oracle", "plateau_comparison"),
    ("oracle", "new_elite_count"),
]
TARGET_NAMES = [f"{module}.{attr}" for module, attr in TARGETS]

# Span name for the derived-metric bookkeeping that runs after a traced call
# returns; recording it as a span keeps it out of the caller's self time.
HOOK = "trace.hook"


def _best(pop) -> int:
    return max(ind.fitness for ind in pop.members)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name = array("h")
        self._parent = array("q")
        self._start = array("q")
        self._end = array("q")
        self._stack: list[int] = []
        self.generations = 0
        self.improving = 0
        self.replaces = 0
        self.overflows = 0

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, name: str, fn, after=None):
        name_id = self._name_id(name)
        hook_id = self._name_id(HOOK) if after is not None else -1
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if after is not None:
                hook = len(starts)
                names.append(hook_id)
                parents.append(stack[-1] if stack else -1)
                starts.append(clock())
                ends.append(0)
                after(args, result)
                ends[hook] = clock()
            return result

        traced.__wrapped__ = fn
        return traced

    def _after_generation(self, args, result) -> None:
        self.generations += 1
        self.improving += _best(result) > _best(args[0])

    def _after_replace(self, args, result) -> None:
        pop, offspring = args[0], args[1]
        best = _best(pop)
        retained = sum(1 for ind in pop.members if ind.fitness == best)
        qualifying = sum(1 for o in offspring if o.fitness >= best)
        self.replaces += 1
        self.overflows += retained + qualifying > pop.mu

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        package = [m for name, m in sys.modules.items()
                   if name == "bitswap_ea" or name.startswith("bitswap_ea.")]
        hooks = {"engine.one_generation": self._after_generation,
                 "engine.replace": self._after_replace}
        undo = []
        try:
            for (module, attr), name in zip(TARGETS, TARGET_NAMES):
                owner = sys.modules[f"bitswap_ea.{module}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, classmethod(self.wrap(name, original.__func__)))
                    undo.append((cls, meth, original))
                    continue
                fn = getattr(owner, attr)
                traced = self.wrap(name, fn, hooks.get(name))
                for mod in package:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, traced)
                            undo.append((mod, key, fn))
            yield self
        finally:
            for obj, key, value in reversed(undo):
                setattr(obj, key, value)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.int16),
            "parent": np.frombuffer(self._parent, dtype=np.int64),
            "start_ns": np.frombuffer(self._start, dtype=np.int64),
            "end_ns": np.frombuffer(self._end, dtype=np.int64),
        }

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, total self seconds)."""
        spans = self.arrays()
        dur = spans["end_ns"] - spans["start_ns"]
        covered = np.zeros(len(dur), dtype=np.int64)
        child = spans["parent"] >= 0
        np.add.at(covered, spans["parent"][child], dur[child])
        own = dur - covered
        calls = np.bincount(spans["name"], minlength=len(self.names))
        total = np.bincount(spans["name"], weights=own, minlength=len(self.names))
        out: dict[str, tuple[int, float]] = {}
        for i, name in enumerate(self.names):
            c, s = out.get(name, (0, 0.0))
            out[name] = (c + int(calls[i]), s + float(total[i]) / 1e9)
        return out

    def write(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
