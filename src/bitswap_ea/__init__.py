"""Population EA with one-bit-swap recombination, its analytic success and
runtime formulas, and the ground-truth machinery that keeps them honest."""

from .analytics import (
    BoundParams,
    EventProbabilities,
    PolynomialLevelSum,
    RuntimeBound,
    cubic_level_sum,
    cubic_levelsum_coefficients,
    digamma,
    event_probs,
    harmonic,
    phi,
    phi1,
    phi2,
    phi3,
    phi4,
    quadratic_level_sum,
    quadratic_levelsum_coefficients,
    refined_runtime_bound,
    refined_traverse_bound,
    simple_runtime_bound,
    simple_traverse_bound,
    tetragamma,
    trigamma,
)
from .engine import (
    ElitismPartition,
    EngineConfig,
    RunRecord,
    classify_partition,
    decode_slot,
    default_generation_cap,
    fill_pool,
    init_population,
    one_bit_swap,
    one_generation,
    replace,
    run,
    run_rls_baseline,
    tournament_select,
)
from .fitness import FitnessSpec, evaluate, is_optimum, make_individual
from .genome import (
    Genome,
    Individual,
    Population,
    RandomSource,
    make_rng,
    mix_seed,
    random_genome,
)
from .harness import (
    CellSummary,
    ExperimentConfig,
    FitResult,
    fit_from_summary,
    fit_scaling,
    run_sweep,
    summarize,
)
from .oracle import (
    ExactGenerationResult,
    MonteCarloResult,
    PlateauComparison,
    PopulationSpec,
    ProbeResult,
    exact_generation_success,
    monte_carlo_success,
    plateau_comparison,
    probe_region,
    representative_probe,
)

__version__ = "0.1.0"
