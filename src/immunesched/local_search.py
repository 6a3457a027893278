"""Phase-two refinement: simulated annealing and the great deluge.

Both methods are one chain, `refine`, over the neighbourhood of a single
antibody: change one job, or swap two. The configs hold settings only; one
branch on the config's type in `refine` picks the level schedule, the
trace's level column, the stagnation stop and the rule for a worse
candidate. The chain scores a move by its delta on the current antibody's
packed lanes (see the matching module) and keeps each score in a table
that the chains of one `refine_population` call share.
"""

from __future__ import annotations

import math
import operator
import random
from bisect import insort
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import accumulate, combinations, repeat
from typing import TextIO

from .gene_library import ANTIBODY_LENGTH, UNUSED_JOB_COUNT, Antibody
from .matching import POSITION_SCORE, AntigenSample, _best_counts, antibody_fitness, max_fitness
from .population import Population
from .scheduling import JOB_COUNT, AntigenUniverse, check_fields

# An antibody's code is `Σ job << CODE_BITS·slot`: job ids 1..15 fit 4 bits,
# so every code indexes a score table of 2**20 bytes.
CODE_BITS = JOB_COUNT.bit_length()
SCORE_TABLE_SIZE = 1 << CODE_BITS * ANTIBODY_LENGTH


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
    """Per-iteration change of the great-deluge boundary: negative below the
    target, so subtracting it `iterations` times raises the boundary from
    the initial fitness to the target."""
    return (initial_fitness - target_fitness) / iterations


def refine(
    ab: Antibody,
    universe: AntigenUniverse,
    sample: AntigenSample,
    cfg: SAConfig | GDConfig,
    rng: random.Random,
    trace: TextIO | None = None,
    *,
    scores: bytearray | None = None,
) -> Antibody:
    """Refine `ab` by simulated annealing (SAConfig) or the great deluge
    (GDConfig); return the best antibody visited if it strictly beats `ab`,
    else `ab`. Other config types raise TypeError.

    Each step draws one neighbour under `cfg.operator` and accepts it when
    it is no worse, or when the config's rule passes it. SA cools through
    `cfg.temperatures` (570 steps by default) and passes a worse candidate
    when one `rng.random()` is below exp(-delta/T). GD raises a boundary
    linearly from the start fitness to the maximum over `iterations` steps,
    passes a candidate at or above it without a draw, and stops after
    `stagnation_limit` steps without a new best.

    `scores` is a score table: SCORE_TABLE_SIZE bytes, indexed by an
    antibody's code and holding its fitness + 1 (at most 251), 0 meaning
    not scored yet. An entry depends only on the antibody, the universe and
    the sample, so only chains on one (universe, sample) may share a table;
    without one the chain makes its own. The table changes no draw,
    acceptance, trace row or result.

    `trace` receives rows `step,<level>,current_fitness,best_fitness,accepted`,
    <level> being `temperature` or `boundary` after the step. Untraced, the
    chain stops once the best reaches the maximum fitness: only a strict
    improvement replaces the best and the generator is the chain's own, so
    the result is the same.
    """
    cols, masks = universe.columns, sample.masks
    jobs = list(ab.jobs)
    unused = [job for job in range(1, JOB_COUNT + 1) if job not in jobs]
    packed = sum(cols[slot][job] for slot, job in enumerate(jobs))
    code = sum(job << CODE_BITS * slot for slot, job in enumerate(jobs))
    if scores is None:
        scores = bytearray(SCORE_TABLE_SIZE)
    below_top, top, high, two, three, four, five = masks
    start_fit = current_fit = best_fit = POSITION_SCORE * _best_counts(packed, masks)
    target = max_fitness(sample.size)
    # The one SA/GD branch: each step's level, before the step. A count never
    # reaches a stagnation limit of -1: SA has no stagnation stop, nor GD without one.
    if metropolis := isinstance(cfg, SAConfig):
        temperatures = cfg.temperatures
        levels, level_name, stagnation_limit = temperatures[:-1], "temperature", -1
    elif isinstance(cfg, GDConfig):
        decay = decay_rate(start_fit, target, cfg.iterations)
        levels = accumulate(
            repeat(decay, cfg.iterations - 1), operator.sub, initial=float(start_fit)
        )
        level_name, stagnation_limit = "boundary", cfg.stagnation_limit or -1
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
    for level in levels:
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
            key = code + (new - old << CODE_BITS * p)
        else:
            j = ANTIBODY_LENGTH - 1 if n == p else n
            a, b = jobs[p], jobs[j]
            key = code + (b - a << CODE_BITS * p) + (a - b << CODE_BITS * j)
        if candidate_fit := scores[key]:
            candidate_fit -= 1
            candidate = None
        else:
            candidate = (
                packed - cols[p][old] + cols[p][new] if change
                else packed - cols[p][a] - cols[j][b] + cols[p][b] + cols[j][a]
            )
            candidate_fit = POSITION_SCORE * (  # _best_counts(candidate, masks)
                ((candidate + below_top) & top).bit_count()
                + (((candidate & two) + below_top) & top).bit_count()
                + ((candidate + three) & high).bit_count()
                + (candidate & four).bit_count()
                + ((candidate + five) & high).bit_count()
            )
            scores[key] = candidate_fit + 1
        accepted = candidate_fit >= current_fit or (
            random_() < exp((candidate_fit - current_fit) / level)
            if metropolis else candidate_fit >= level
        )
        stagnation += 1
        if accepted:
            if candidate is None:  # a hit: build the accepted move's lanes
                candidate = (
                    packed - cols[p][old] + cols[p][new] if change
                    else packed - cols[p][a] - cols[j][b] + cols[p][b] + cols[j][a]
                )
            packed, code, current_fit = candidate, key, candidate_fit
            if change:
                jobs[p] = new
                del unused[n]
                insort(unused, old)
            else:
                jobs[p], jobs[j] = b, a
            if current_fit > best_fit:  # only an accepted move can be a new best
                best_jobs, best_fit = tuple(jobs), current_fit
                stagnation = 0
        if trace is not None:
            step += 1
            next_level = temperatures[step] if metropolis else level - decay
            trace.write(f"{step},{next_level!r},{current_fit},{best_fit},{int(accepted)}\n")
        if stagnation == stagnation_limit:
            break
    return Antibody.trusted(best_jobs) if best_fit > start_fit else ab


def _strict_peak(
    ab: Antibody, fit: int, universe: AntigenUniverse, sample: AntigenSample, move: NeighborOperator
) -> bool:
    """Whether all of `ab`'s neighbours under the move, its 50 one-job changes
    or its 10 swaps, score below `fit`, its fitness. Each is scored by its
    delta on `ab`'s lanes, as the chain scores a move, until one reaches `fit`."""
    cols, masks, jobs = universe.columns, sample.masks, ab.jobs
    packed = sum(cols[slot][job] for slot, job in enumerate(jobs))
    if move is NeighborOperator.CHANGE_ONE_JOB:
        unused = [job for job in range(1, JOB_COUNT + 1) if job not in jobs]
        moved = (packed - cols[p][a] + cols[p][b] for p, a in enumerate(jobs) for b in unused)
    else:
        moved = (
            packed - cols[p][a] - cols[j][b] + cols[p][b] + cols[j][a]
            for (p, a), (j, b) in combinations(enumerate(jobs), 2)
        )
    return not any(POSITION_SCORE * _best_counts(x, masks) >= fit for x in moved)


def refine_population(
    pop: Population,
    universe: AntigenUniverse,
    sample: AntigenSample,
    cfg: SAConfig | GDConfig,
    rng: random.Random,
) -> Population:
    """Refine every member with `refine`, replacing it only on strict
    improvement, so total fitness cannot fall. `pop` must be evaluated
    against `sample`; only a member its chain changed is scored again.
    Other config types raise TypeError.

    Every member takes one 64-bit seed draw from `rng`, in member order,
    and a member below the maximum fitness refines on a generator of its
    seed. A member at the maximum gets no generator and no chain: its
    untraced chain would stop before its first draw. Under GD, neither does
    a strict local peak, a start that every neighbour under `cfg.operator`
    scores below: the boundary starts at its fitness and never falls, so
    until a move is accepted only a candidate reaching it could be, and
    none does. SA's Metropolis rule can leave a peak. Each distinct start
    is checked once per call, and the chains share one score table.
    """
    fitnesses = pop.require_evaluated()
    if not isinstance(cfg, (SAConfig, GDConfig)):
        raise TypeError(f"expected SAConfig or GDConfig, got {type(cfg).__name__}")
    ceiling = max_fitness(sample.size)
    deluge = isinstance(cfg, GDConfig)
    # Per distinct start, whether its chain would return it unchanged.
    kept: dict[tuple[int, ...], bool] = {}
    table = None
    refined, scores = [], []
    for ab, fit in zip(pop.antibodies, fitnesses):
        seed = rng.getrandbits(64)
        if (keep := kept.get(ab.jobs)) is None:
            keep = kept[ab.jobs] = fit == ceiling or deluge and _strict_peak(
                ab, fit, universe, sample, cfg.operator
            )
        if not keep:
            if table is None:
                table = bytearray(SCORE_TABLE_SIZE)
            new = refine(ab, universe, sample, cfg, random.Random(seed), scores=table)
            if new is not ab:
                ab, fit = new, antibody_fitness(new, universe, sample)
        refined.append(ab)
        scores.append(fit)
    return Population(refined, scores)
