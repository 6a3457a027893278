"""Phase-two refinement: simulated annealing and the great deluge.

Both methods walk the neighborhood of a single antibody (change one job,
or swap two) and return the refined antibody only when it strictly beats
the original. refine_population applies the chosen method to every member
of a population independently, each with its own derived generator, so
serial and parallel execution would give identical results.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import TextIO

from .gene_library import ANTIBODY_LENGTH, UNUSED_JOB_COUNT, Antibody, nth_unused_job
from .matching import AntigenSample, antibody_fitness, max_fitness
from .population import Population
from .scheduling import AntigenUniverse

_SLOTS = range(ANTIBODY_LENGTH)


class NeighborOperator(str, Enum):
    CHANGE_ONE_JOB = "change"
    SWAP_TWO_JOBS = "swap"


@dataclass(frozen=True)
class SAConfig:
    initial_temperature: float = 5000.0
    final_temperature: float = 0.05
    cooling_factor: float = 0.98
    operator: NeighborOperator = NeighborOperator.CHANGE_ONE_JOB

    def __post_init__(self) -> None:
        if not 0.0 < self.final_temperature < self.initial_temperature:
            raise ValueError("temperatures must satisfy 0 < final < initial")
        if not 0.0 < self.cooling_factor < 1.0:
            raise ValueError("cooling factor must be in (0, 1)")


@dataclass(frozen=True)
class GDConfig:
    iterations: int = 120
    stagnation_limit: int | None = 30
    operator: NeighborOperator = NeighborOperator.CHANGE_ONE_JOB

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.stagnation_limit is not None and self.stagnation_limit < 1:
            raise ValueError("stagnation limit must be at least 1 (or None to disable)")


def neighbor(ab: Antibody, op: NeighborOperator, rng: random.Random) -> Antibody:
    """One random neighborhood move; the result always has 5 distinct jobs."""
    jobs = list(ab.jobs)
    if op is NeighborOperator.CHANGE_ONE_JOB:
        posn = rng.randrange(ANTIBODY_LENGTH)
        jobs[posn] = nth_unused_job(ab.jobs, rng.randrange(UNUSED_JOB_COUNT))
    else:
        i, j = rng.sample(_SLOTS, 2)
        jobs[i], jobs[j] = jobs[j], jobs[i]
    return Antibody.trusted(tuple(jobs))


def acceptance_probability(delta: float, temperature: float) -> float:
    """Probability of accepting a candidate whose fitness is `delta` below
    the current one; non-positive delta is always accepted."""
    if delta <= 0:
        return 1.0
    return math.exp(-delta / temperature)


def decay_rate(initial_fitness: float, target_fitness: float, iterations: int) -> float:
    """Per-iteration change of the great-deluge boundary.

    Negative while the start is below the target, so subtracting it raises
    the boundary from the initial fitness up to the target across the
    full iteration budget.
    """
    return (initial_fitness - target_fitness) / iterations


def sa_refine(
    ab: Antibody,
    universe: AntigenUniverse,
    sample: AntigenSample,
    cfg: SAConfig,
    rng: random.Random,
    trace: TextIO | None = None,
) -> Antibody:
    """Simulated annealing from `ab` under geometric cooling.

    One candidate is generated per temperature step; a worse candidate is
    accepted with probability exp(-delta/T). Returns the best antibody
    visited if it strictly beats the original, else the original. Trace
    rows are `step,temperature,current_fitness,best_fitness,accepted`
    with the post-cooling temperature.

    Without a trace the chain stops once the best reaches the sample's
    maximum fitness: only a strict improvement replaces the best, so the
    remaining steps could not change the result, and the generator is the
    chain's own. A traced chain always runs the full schedule.
    """
    start_fit = antibody_fitness(ab, universe, sample)
    ceiling = max_fitness(sample.size) if trace is None else None
    current, current_fit = ab, start_fit
    best, best_fit = ab, start_fit
    temperature = cfg.initial_temperature
    step = 0
    if trace is not None:
        trace.write("step,temperature,current_fitness,best_fitness,accepted\n")
    while temperature > cfg.final_temperature and best_fit != ceiling:
        candidate = neighbor(current, cfg.operator, rng)
        candidate_fit = antibody_fitness(candidate, universe, sample)
        delta = current_fit - candidate_fit
        if delta <= 0:
            accepted = True
        else:
            accepted = rng.random() < acceptance_probability(delta, temperature)
        if accepted:
            current, current_fit = candidate, candidate_fit
            if current_fit > best_fit:
                best, best_fit = current, current_fit
        temperature *= cfg.cooling_factor
        step += 1
        if trace is not None:
            trace.write(f"{step},{temperature!r},{current_fit},{best_fit},{int(accepted)}\n")
    return best if best_fit > start_fit else ab


def gd_refine(
    ab: Antibody,
    universe: AntigenUniverse,
    sample: AntigenSample,
    cfg: GDConfig,
    rng: random.Random,
    trace: TextIO | None = None,
) -> Antibody:
    """Great-deluge refinement from `ab` toward the sample's maximum fitness.

    The boundary starts at the antibody's fitness and rises by a fixed
    amount per step, reaching the maximum exactly when the iteration
    budget is spent. A candidate is accepted when it is no worse than the
    current antibody or still at or above the boundary. Stops early after
    `stagnation_limit` consecutive steps without improving the best.
    Trace rows are `step,boundary,current_fitness,best_fitness,accepted`
    with the post-update boundary. Returns the best antibody visited if
    strictly better than the original, else the original. Without a trace
    the chain also stops once the best reaches the maximum, as in sa_refine.
    """
    start_fit = antibody_fitness(ab, universe, sample)
    target = max_fitness(sample.size)
    ceiling = target if trace is None else None
    decay = decay_rate(start_fit, target, cfg.iterations)
    boundary = float(start_fit)
    current, current_fit = ab, start_fit
    best, best_fit = ab, start_fit
    stagnation = 0
    if trace is not None:
        trace.write("step,boundary,current_fitness,best_fitness,accepted\n")
    for step in range(1, cfg.iterations + 1):
        if best_fit == ceiling:
            break
        candidate = neighbor(current, cfg.operator, rng)
        candidate_fit = antibody_fitness(candidate, universe, sample)
        accepted = candidate_fit >= current_fit or candidate_fit >= boundary
        if accepted:
            current, current_fit = candidate, candidate_fit
        boundary -= decay
        if current_fit > best_fit:
            best, best_fit = current, current_fit
            stagnation = 0
        else:
            stagnation += 1
        if trace is not None:
            trace.write(f"{step},{boundary!r},{current_fit},{best_fit},{int(accepted)}\n")
        if cfg.stagnation_limit is not None and stagnation >= cfg.stagnation_limit:
            break
    return best if best_fit > start_fit else ab


def refine_population(
    pop: Population,
    universe: AntigenUniverse,
    sample: AntigenSample,
    cfg: SAConfig | GDConfig,
    rng: random.Random,
) -> Population:
    """Refine every antibody independently; members are replaced only on
    strict improvement, so total fitness cannot decrease.

    The config type selects the method (SAConfig -> simulated annealing,
    GDConfig -> great deluge). Each antibody gets its own generator seeded
    from `rng`, keeping results independent of evaluation order.
    """
    pop.require_evaluated()
    if isinstance(cfg, SAConfig):
        refine = sa_refine
    elif isinstance(cfg, GDConfig):
        refine = gd_refine
    else:
        raise TypeError(f"expected SAConfig or GDConfig, got {type(cfg).__name__}")
    seeds = [rng.getrandbits(64) for _ in pop.antibodies]
    refined = [
        refine(ab, universe, sample, cfg, random.Random(seed))
        for ab, seed in zip(pop.antibodies, seeds)
    ]
    return Population(refined).evaluate(universe, sample)
