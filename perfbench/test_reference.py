"""Hand-worked cases for the ones-count reference (OneMax, n = 2, mu = lambda = 2).

Run with ``python3 -m pytest perfbench/test_reference.py`` or
``python3 perfbench/test_reference.py``.

State (1, 1): both parents hold one of two bits, so the swap moves a one
(d = +1 or -1) with probability 1/2 and gives offspring counts (2, 0). The
2 joins the elite pool {1, 1, 2}, which overflows mu = 2; it survives in 2 of
the 3 subsets. So the new-elite count is 1 with probability 1/3, else 0, and
the optimum is reached with probability 1/3 per generation: t(1, 1) = 3.

State (1, 0): each winner is the 1 with probability 3/4.
  (1, 1) pair, 9/16: d = +-1 (1/2) gives a 2, kept beside the old 1 (optimum);
      d = 0 gives (1, 1), an overflowing elite, so the state becomes (1, 1).
  mixed pair, 6/16: offspring {1, 0}; the 1 joins, the state becomes (1, 1).
  (0, 0) pair, 1/16: offspring {0, 0}; one fills the slot, state stays.
  So P(optimum) = 9/32, P(1, 1) = 21/32, P(stay) = 1/16, and
  t(1, 0) = (1 + 21/32 * 3) / (15/16) = 19/6.

Uniform start: counts are Binomial(2, 1/2) = (1/4, 1/2, 1/4), so states
(1, 0) and (1, 1) each have probability 1/4, the all-zero state 1/16 and the
rest start at the optimum. Conditioned on a nonzero start,
E[T] = (19/6 + 3) / 4 / (15/16) = 74/45.
"""

import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from reference import expected_generations, new_elite_law, next_state_law  # noqa: E402


def test_new_elite_law_two_complementary_bits():
    assert new_elite_law((1, 1), 2, 2) == {0: Fraction(2, 3), 1: Fraction(1, 3)}


def test_next_state_law_from_one_elite():
    assert next_state_law((1, 0), 2, 2) == {
        (2, 1): Fraction(9, 32),
        (1, 1): Fraction(21, 32),
        (1, 0): Fraction(1, 16),
    }


def test_expected_generations_n2():
    assert abs(expected_generations(2) - 74 / 45) <= 1e-12


def test_all_optimal_population_stays():
    assert new_elite_law((4, 4), 4, 2) == {0: Fraction(1)}


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
