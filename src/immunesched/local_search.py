"""Phase-two refinement: simulated annealing and the great deluge.

Both methods are one chain (`refine`) over the neighborhood of a single
antibody (change one job, or swap two); the config supplies what differs:
the level schedule (SA temperatures, GD boundaries), the rule for a worse
candidate, the trace's level column and GD's stagnation stop.

The chain scores a move by its delta on the current antibody's packed
match counts, one per sampled antigen (see the matching module): a column
table gives, per slot and job id, the sampled antigens' `match_table`
entries, so changing slot p from job a to job b yields the candidate's
counts `packed - col[p][a] + col[p][b]`, and a swap subtracts two entries
and adds two. No antibody is built for a candidate.

refine_population refines every member independently, each with its own
derived generator, so serial and parallel execution would agree.
"""

from __future__ import annotations

import math
import random
from bisect import insort
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from itertools import pairwise
from operator import add, sub
from typing import TextIO

from .gene_library import ANTIBODY_LENGTH, UNUSED_JOB_COUNT, Antibody, draw_below
from .matching import BEST_COUNT, POSITION_SCORE, AntigenSample, max_fitness
from .population import Population
from .scheduling import JOB_COUNT, AntigenUniverse

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

    # Class attributes, not fields: the trace's level column; no stagnation stop.
    level_name = "temperature"
    stagnation_limit = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "operator", NeighborOperator(self.operator))
        if not 0.0 < self.final_temperature < self.initial_temperature < math.inf:
            raise ValueError("temperatures must satisfy 0 < final < initial < inf")
        if not 0.0 < self.cooling_factor < 1.0:
            raise ValueError("cooling factor must be in (0, 1)")

    def levels(self, start_fit: int, target: int) -> Iterator[float]:
        """Geometric cooling: the initial temperature, then each cooled one
        until it is no longer above the final temperature."""
        temperature = self.initial_temperature
        yield temperature
        while temperature > self.final_temperature:
            temperature *= self.cooling_factor
            yield temperature

    def accepts_worse(self, fit: int, current: int, temperature: float, rng) -> bool:
        """Metropolis rule: one draw, passing with probability exp(-delta/T)."""
        return rng.random() < acceptance_probability(current - fit, temperature)


@dataclass(frozen=True)
class GDConfig:
    iterations: int = 120
    stagnation_limit: int | None = 30
    operator: NeighborOperator = NeighborOperator.CHANGE_ONE_JOB

    level_name = "boundary"  # a class attribute, not a field

    def __post_init__(self) -> None:
        object.__setattr__(self, "operator", NeighborOperator(self.operator))
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.stagnation_limit is not None and self.stagnation_limit < 1:
            raise ValueError("stagnation limit must be at least 1 (or None to disable)")

    def levels(self, start_fit: int, target: int) -> Iterator[float]:
        """A boundary that starts at the start fitness and moves by a fixed
        amount per iteration, reaching `target` after the last one."""
        decay = decay_rate(start_fit, target, self.iterations)
        boundary = float(start_fit)
        yield boundary
        for _ in range(self.iterations):
            boundary -= decay
            yield boundary

    def accepts_worse(self, fit: int, current: int, boundary: float, rng) -> bool:
        """At or above the boundary; draws nothing."""
        return fit >= boundary


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


# Per slot, per job id (index 0 unused): the sampled antigens' match_table
# entries, in sample order.
_Columns = tuple[tuple[tuple[int, ...], ...], ...]


def _columns(universe: AntigenUniverse, sample: AntigenSample) -> _Columns:
    tables = [universe.antigens[i].match_table for i in sample.indices]
    return tuple(tuple(zip(*(table[slot] for table in tables))) for slot in _SLOTS)


def refine(
    ab: Antibody,
    universe: AntigenUniverse,
    sample: AntigenSample,
    cfg: SAConfig | GDConfig,
    rng: random.Random,
    trace: TextIO | None = None,
) -> Antibody:
    """Refine `ab` by simulated annealing (SAConfig) or the great deluge
    (GDConfig); return the best antibody visited if it strictly beats the
    original, else the original.

    Each step draws one neighbor and accepts it when it is no worse, or when
    `cfg.accepts_worse` passes it at the current level; then the level moves
    on. SA cools geometrically from initial to final temperature (570 steps
    by default) and passes a worse candidate with probability exp(-delta/T).
    GD raises a boundary linearly from the start fitness to the maximum
    fitness over `iterations` steps, passes a worse candidate at or above
    it, and stops after `stagnation_limit` steps without a new best.

    A candidate is scored from the current antibody's packed counts (see
    the module docstring), to the value `antibody_fitness` gives the moved
    antibody; only the returned antibody is built.

    Trace rows are `step,<level>,current_fitness,best_fitness,accepted`,
    <level> being `temperature` or `boundary` after the step. Untraced, the
    chain stops once the best reaches the maximum fitness: only a strict
    improvement replaces the best and the generator is the chain's own, so
    the result is the same. A traced chain runs until its schedule ends or
    it stagnates.
    """
    return _chain(ab, _columns(universe, sample), max_fitness(sample.size), cfg, rng, trace)[0]


def _chain(
    ab: Antibody,
    cols: _Columns,
    target: int,
    cfg: SAConfig | GDConfig,
    rng: random.Random,
    trace: TextIO | None,
) -> tuple[Antibody, int]:
    """`refine`'s chain over a prebuilt column table; returns the result
    and its fitness."""
    jobs = list(ab.jobs)
    unused = [job for job in range(1, JOB_COUNT + 1) if job not in jobs]
    packed = tuple(map(sum, zip(*(cols[slot][job] for slot, job in enumerate(jobs)))))
    best_count = BEST_COUNT.__getitem__
    start_fit = current_fit = best_fit = POSITION_SCORE * sum(map(best_count, packed))
    best_jobs = ab.jobs
    ceiling = target if trace is None else None
    change = cfg.operator is NeighborOperator.CHANGE_ONE_JOB
    draw_slot = draw_below(ANTIBODY_LENGTH, rng)
    draw_unused = draw_below(UNUSED_JOB_COUNT, rng)
    rng_sample = rng.sample
    accepts_worse, stagnation_limit = cfg.accepts_worse, cfg.stagnation_limit
    stagnation = 0
    if trace is not None:
        trace.write(f"step,{cfg.level_name},current_fitness,best_fitness,accepted\n")
    for step, (level, next_level) in enumerate(pairwise(cfg.levels(start_fit, target)), 1):
        if best_fit == ceiling:
            break
        if change:
            p = draw_slot()
            n = draw_unused()
            old, new = jobs[p], unused[n]
            col = cols[p]
            candidate = tuple(map(add, map(sub, packed, col[old]), col[new]))
        else:
            i, j = rng_sample(_SLOTS, 2)
            a, b = jobs[i], jobs[j]
            col_i, col_j = cols[i], cols[j]
            removed = map(sub, map(sub, packed, col_i[a]), col_j[b])
            candidate = tuple(map(add, map(add, removed, col_i[b]), col_j[a]))
        candidate_fit = POSITION_SCORE * sum(map(best_count, candidate))
        accepted = candidate_fit >= current_fit or accepts_worse(
            candidate_fit, current_fit, level, rng
        )
        if accepted:
            packed, current_fit = candidate, candidate_fit
            if change:
                jobs[p] = new
                del unused[n]
                insort(unused, old)
            else:
                jobs[i], jobs[j] = b, a
        if current_fit > best_fit:
            best_jobs, best_fit = tuple(jobs), current_fit
            stagnation = 0
        else:
            stagnation += 1
        if trace is not None:
            trace.write(f"{step},{next_level!r},{current_fit},{best_fit},{int(accepted)}\n")
        if stagnation == stagnation_limit:
            break
    if best_fit > start_fit:
        return Antibody.trusted(best_jobs), best_fit
    return ab, start_fit


def refine_population(
    pop: Population,
    universe: AntigenUniverse,
    sample: AntigenSample,
    cfg: SAConfig | GDConfig,
    rng: random.Random,
) -> Population:
    """Refine every antibody independently; members are replaced only on
    strict improvement, so total fitness cannot decrease.

    Each antibody gets its own generator seeded from `rng`, keeping results
    independent of evaluation order. One column table serves every chain,
    and each chain's fitness becomes the refined population's.
    """
    pop.require_evaluated()
    if not isinstance(cfg, (SAConfig, GDConfig)):
        raise TypeError(f"expected SAConfig or GDConfig, got {type(cfg).__name__}")
    seeds = [rng.getrandbits(64) for _ in pop.antibodies]
    cols = _columns(universe, sample)
    target = max_fitness(sample.size)
    refined, fits = [], []
    for ab, seed in zip(pop.antibodies, seeds):
        best, fit = _chain(ab, cols, target, cfg, random.Random(seed), None)
        refined.append(best)
        fits.append(fit)
    return Population(refined, fits)
