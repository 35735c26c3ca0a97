"""Population EA with one-bit-swap recombination, its analytic success and
runtime formulas, and the ground-truth machinery that keeps them honest."""

from .engine import EngineConfig, run
from .fitness import FitnessSpec

__version__ = "0.1.0"
