"""Phase-two refinement: simulated annealing and the great deluge.

Both methods are one chain (`refine`) over the neighborhood of a single
antibody (change one job, or swap two). The configs hold settings only;
one type branch in `refine` picks the level schedule (SA's cached
temperatures, GD's boundaries), the trace's level column, GD's stagnation
stop and the rule for a worse candidate, which the chain writes inline.

The chain scores a move by its delta on one int, the current antibody's
lanes against every antigen in the universe's column table: changing slot
p from job a to job b gives `packed - col[p][a] + col[p][b]`, and a swap
subtracts two entries and adds two; the sample's masks score its own lanes.
The lane layout, the column table and the bit-count score are defined in
the matching module. No antibody is built for a candidate.

refine_population takes one seed draw per member, in member order, so
serial and parallel execution would agree. A member at the maximum fitness
gets no generator and no chain, as its chain would return it without a
draw; only a member the chain changed is scored again.
"""

from __future__ import annotations

import math
import operator
import random
from bisect import insort
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import accumulate, pairwise, repeat
from typing import TextIO

from .gene_library import ANTIBODY_LENGTH, UNUSED_JOB_COUNT, Antibody
from .matching import POSITION_SCORE, AntigenSample, _best_counts, antibody_fitness, max_fitness
from .population import Population
from .scheduling import JOB_COUNT, AntigenUniverse, check_fields


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
        check_fields(self)
        if not 0.0 < self.final_temperature < self.initial_temperature:
            raise ValueError("final_temperature must lie above 0 and below initial_temperature")
        if not 0.0 < self.cooling_factor < 1.0:
            raise ValueError("cooling_factor must lie strictly between 0 and 1")

    @cached_property
    def temperatures(self) -> tuple[float, ...]:
        """Geometric cooling: the initial temperature, then each cooled one
        until it is no longer above the final temperature. Cached on the
        config, outside its fields: one float per level, 571 by default."""
        temperature = self.initial_temperature
        temperatures = [temperature]
        while temperature > self.final_temperature:
            temperature *= self.cooling_factor
            temperatures.append(temperature)
        return tuple(temperatures)


@dataclass(frozen=True)
class GDConfig:
    iterations: int = field(default=120, metadata={"range": (1, None)})
    stagnation_limit: int | None = field(default=30, metadata={"range": (1, None)})
    operator: NeighborOperator = NeighborOperator.CHANGE_ONE_JOB

    __post_init__ = check_fields


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
    the config type's rule, written inline, passes it at the current level.
    SA cools geometrically from initial to final temperature (570 steps by
    default) and passes a worse candidate when one `rng.random()` is below
    exp(-delta/T). GD raises a boundary linearly from the start fitness to
    the maximum fitness over `iterations` steps, passes a worse candidate at
    or above it without a draw, and stops after `stagnation_limit` steps
    without a new best. Other config types raise TypeError.

    A candidate is scored by its delta on the current antibody's lanes in
    the universe's column table (see the matching module), to the value
    `antibody_fitness` gives the moved antibody; only the returned antibody
    is built.

    Trace rows are `step,<level>,current_fitness,best_fitness,accepted`,
    <level> being `temperature` or `boundary` after the step. Untraced, the
    chain stops once the best reaches the maximum fitness: only a strict
    improvement replaces the best and the generator is the chain's own, so
    the result is the same. A traced chain runs until its schedule ends or
    it stagnates.
    """
    cols, masks = universe.columns, sample.masks
    jobs = list(ab.jobs)
    unused = [job for job in range(1, JOB_COUNT + 1) if job not in jobs]
    packed = sum(cols[slot][job] for slot, job in enumerate(jobs))
    below_top, top, high, two, three, four, five = masks
    start_fit = current_fit = best_fit = POSITION_SCORE * _best_counts(packed, masks)
    target = max_fitness(sample.size)
    # The one SA/GD branch. GD's lazy boundary goes from start_fit to target.
    if metropolis := isinstance(cfg, SAConfig):
        levels, level_name, stagnation_limit = cfg.temperatures, "temperature", None
    elif isinstance(cfg, GDConfig):
        decay = decay_rate(start_fit, target, cfg.iterations)
        levels = accumulate(repeat(decay, cfg.iterations), operator.sub, initial=float(start_fit))
        level_name, stagnation_limit = "boundary", cfg.stagnation_limit
    else:
        raise TypeError(f"expected SAConfig or GDConfig, got {type(cfg).__name__}")
    best_jobs = ab.jobs
    ceiling = target if trace is None else None
    change = cfg.operator is NeighborOperator.CHANGE_ONE_JOB
    # Every move draws a slot p below 5, then n below `second`: the index of
    # an unused job (change), or a second slot below 4 for which 4 stands in
    # when n == p (swap). These are randrange's and rng.sample(range(5), 2)'s
    # rejection loops, inline: the same values and generator state.
    second = UNUSED_JOB_COUNT if change else ANTIBODY_LENGTH - 1
    getrandbits, random_, exp = rng.getrandbits, rng.random, math.exp
    slot_bits, second_bits = ANTIBODY_LENGTH.bit_length(), second.bit_length()
    stagnation = step = 0
    if trace is not None:
        trace.write(f"step,{level_name},current_fitness,best_fitness,accepted\n")
    for level, next_level in pairwise(levels):
        if best_fit == ceiling:
            break
        p = getrandbits(slot_bits)
        while p >= ANTIBODY_LENGTH:
            p = getrandbits(slot_bits)
        n = getrandbits(second_bits)
        while n >= second:
            n = getrandbits(second_bits)
        if change:
            old, new = jobs[p], unused[n]
            col = cols[p]
            candidate = packed - col[old] + col[new]
        else:
            j = ANTIBODY_LENGTH - 1 if n == p else n
            a, b = jobs[p], jobs[j]
            col_p, col_j = cols[p], cols[j]
            candidate = packed - col_p[a] - col_j[b] + col_p[b] + col_j[a]
        candidate_fit = POSITION_SCORE * (  # _best_counts(candidate, masks)
            ((candidate + below_top) & top).bit_count()
            + ((((candidate + two) & high) + below_top) & top).bit_count()
            + ((candidate + three) & high).bit_count()
            + ((candidate + four) & high).bit_count()
            + ((candidate + five) & high).bit_count()
        )
        accepted = candidate_fit >= current_fit or (
            random_() < exp((candidate_fit - current_fit) / level)
            if metropolis else candidate_fit >= level
        )
        if accepted:
            packed, current_fit = candidate, candidate_fit
            if change:
                jobs[p] = new
                del unused[n]
                insort(unused, old)
            else:
                jobs[p], jobs[j] = b, a
        if current_fit > best_fit:
            best_jobs, best_fit = tuple(jobs), current_fit
            stagnation = 0
        else:
            stagnation += 1
        if trace is not None:
            step += 1
            trace.write(f"{step},{next_level!r},{current_fit},{best_fit},{int(accepted)}\n")
        if stagnation == stagnation_limit:
            break
    return Antibody.trusted(best_jobs) if best_fit > start_fit else ab


def refine_population(
    pop: Population,
    universe: AntigenUniverse,
    sample: AntigenSample,
    cfg: SAConfig | GDConfig,
    rng: random.Random,
) -> Population:
    """Refine every antibody independently; members are replaced only on
    strict improvement, so total fitness cannot decrease. `pop` must be
    evaluated against `sample`: its fitnesses are kept where nothing changed.

    Every member takes one 64-bit seed draw from `rng`, in member order,
    keeping results independent of evaluation order. A member below the
    maximum fitness refines on a generator of its seed; a member at the
    maximum is kept without one, since its untraced chain would stop before
    its first draw. Only a member the chain returns changed is scored.
    Other config types raise TypeError, as `refine` does.
    """
    fitnesses = pop.require_evaluated()
    if not isinstance(cfg, (SAConfig, GDConfig)):
        raise TypeError(f"expected SAConfig or GDConfig, got {type(cfg).__name__}")
    ceiling = max_fitness(sample.size)
    refined, scores = [], []
    for ab, fit in zip(pop.antibodies, fitnesses):
        seed = rng.getrandbits(64)
        if fit < ceiling:
            new = refine(ab, universe, sample, cfg, random.Random(seed))
            if new is not ab:
                ab, fit = new, antibody_fitness(new, universe, sample)
        refined.append(ab)
        scores.append(fit)
    return Population(refined, scores)
