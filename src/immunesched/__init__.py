"""Immune-inspired partial schedules for job-shop rescheduling.

Builds partial schedules (antibodies) from gene libraries cut out of a
universe of disturbance schedules (antigens), evolves them with a genetic
algorithm and refines them with simulated annealing or the great deluge.
The experiment module runs the whole protocol; the cli module exposes it.
"""

# Before the imports: the experiment module records it in run.json.
__version__ = "0.1.0"

from .evolution import GAConfig, evolve, order_crossover
from .experiment import (
    CoverageTable,
    ExperimentConfig,
    RunReport,
    config_from_manifest,
    derived_rng,
    emit_reports,
    fitness_improvement,
    resolve_universe,
    run_experiment,
)
from .gene_library import (
    ANTIBODY_LENGTH,
    COMPONENT_SIZE,
    LIBRARY_COUNT,
    Antibody,
    build_libraries,
    combine_components,
    generate_pool,
)
from .local_search import (
    GDConfig,
    NeighborOperator,
    SAConfig,
    acceptance_probability,
    decay_rate,
    refine,
    refine_population,
)
from .matching import (
    MAX_SCORE_PER_ANTIGEN,
    OFFSET_COUNT,
    POSITION_SCORE,
    AntigenSample,
    MatchResult,
    antibody_fitness,
    best_match,
    coverage,
    max_fitness,
)
from .population import (
    Population,
    load_population,
    sample_initial,
    save_population,
)
from .scheduling import (
    ARRIVAL_DAY_MAX,
    JOB_COUNT,
    UNIVERSE_SIZE,
    Antigen,
    AntigenUniverse,
    BaseProblem,
    Job,
    default_base_problem,
    generate_universe,
    load_base_problem,
    load_universe,
    mutate_scenario,
    save_universe,
    schedule_scenario,
)
