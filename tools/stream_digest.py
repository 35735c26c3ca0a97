"""Print one SHA-256 over the seeded output of ``engine.run`` on fixed shapes.

    python3 tools/stream_digest.py [--src DIR]

For every shape in ``SHAPES``, traced and untraced, and every seed in
``SEEDS``, the digest takes in the run's generations, evaluations,
``terminated`` and every trace row. The shapes cover OneMax and the plateau
function, with and without a generation cap, pools of 2 to 12 slots (so both
the Python draw and numpy's sized call for pools above
``engine.LEMIRE_MAX_LAMBDA``), overflowing elites and a plateau run that falls
into the all-zero population. Two trees print the same digest when, and
(barring a SHA-256 collision) only when, every one of these runs is the
same, so

    python3 tools/stream_digest.py --src PARENT/src
    python3 tools/stream_digest.py

checks that a change kept each seed's output. ``--src`` is the ``src``
directory to import ``bitswap_ea`` from; by default, this tree's.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from itertools import chain

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# (fitness kind, n, gamma, mu, lambda, generation cap)
SHAPES = [
    ("onemax", 32, None, 2, 2, None),
    ("onemax", 32, None, 2, 2, 5),
    ("onemax", 1, None, 2, 2, None),
    ("onemax", 12, None, 3, 6, None),
    ("onemax", 33, None, 5, 4, None),
    ("onemax", 64, None, 16, 2, 400),
    ("onemax", 48, None, 24, 8, 60),
    ("onemax", 16, None, 2, 10, None),
    ("onemax", 24, None, 4, 12, 30),
    ("plateau_royal_road", 12, 3, 4, 4, None),
    ("plateau_royal_road", 12, 3, 4, 4, 5),
    ("plateau_royal_road", 12, 1, 4, 4, None),
    ("plateau_royal_road", 16, 4, 8, 6, 300),
    ("plateau_royal_road", 24, 3, 12, 12, 80),
    ("plateau_royal_road", 8, 8, 2, 2, 300),
]
SEEDS = range(30)


def digest() -> str:
    """The SHA-256, in hex, over every run of ``SHAPES`` x ``SEEDS``."""
    # imported here, after ``main`` has put ``--src`` first on the path
    from bitswap_ea.engine import EngineConfig, run
    from bitswap_ea.fitness import FitnessSpec

    h = hashlib.sha256()
    for kind, n, gamma, mu, lam, cap in SHAPES:
        config = EngineConfig(FitnessSpec.of(kind, n, gamma), mu, lam, cap)
        for record_trace in (True, False):
            for seed in SEEDS:
                rec = run(config, seed, record_trace)
                rows = tuple(chain.from_iterable(rec.trace))
                h.update(repr((rec.generations, rec.evaluations, rec.terminated, rows)).encode())
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=SRC, help="the src directory to import bitswap_ea from")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    print(digest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
