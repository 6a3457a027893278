"""Genetic evolution of an antibody population (phase one).

Each generation fills a fresh population pairwise: two tournament-selected
parents either cross over or are copied, both offspring are mutated and
evaluated, and the two fittest of the four family members are admitted.
Children must therefore beat their parents to enter. A single global-elite
slot guarantees the best fitness ever seen never leaves the population.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from operator import itemgetter
from typing import TextIO

from .gene_library import (
    ANTIBODY_LENGTH,
    UNUSED_JOB_COUNT,
    Antibody,
    draw_below,
    nth_unused_job,
)
from .matching import AntigenSample, antibody_fitness
from .population import Population
from .scheduling import AntigenUniverse

_Jobs = tuple[int, ...]
_SLOTS = range(ANTIBODY_LENGTH)


@dataclass(frozen=True)
class GAConfig:
    generations: int = 250
    crossover_rate: float = 0.7
    mutation_rate: float = 0.2
    tournament_size: int = 2
    population_size: int = 100

    def __post_init__(self) -> None:
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover rate must be in [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation rate must be in [0, 1]")
        if self.generations < 0:
            raise ValueError("generations must be non-negative")
        if self.tournament_size < 1 or self.population_size < 1:
            raise ValueError("tournament and population sizes must be positive")


def _tournament(n: int, k: int, rng: random.Random) -> Callable[[list[int]], int]:
    """Selection over `n` fitnesses: the index of the fittest among k uniform
    draws (with replacement), ties broken toward the lowest index."""
    draw = draw_below(n, rng)
    rest = range(k - 1)

    def select(fitnesses: list[int]) -> int:
        best = draw()
        best_fit = fitnesses[best]
        for _ in rest:
            i = draw()
            fit = fitnesses[i]
            if fit > best_fit or (fit == best_fit and i < best):
                best, best_fit = i, fit
        return best

    return select


def _mutation(rate: float, rng: random.Random) -> Callable[[_Jobs], _Jobs]:
    """Independently replace each position, with probability `rate`, by a job
    not currently in the tuple (the exclusion set updates left to right).
    Returns its argument itself when no position mutates."""
    random_ = rng.random
    draw = draw_below(UNUSED_JOB_COUNT, rng)

    def mutate_jobs(jobs: _Jobs) -> _Jobs:
        for posn in _SLOTS:
            if random_() < rate:
                job = nth_unused_job(jobs, draw())
                jobs = jobs[:posn] + (job,) + jobs[posn + 1 :]
        return jobs

    return mutate_jobs


def order_crossover(j1: _Jobs, j2: _Jobs) -> tuple[_Jobs, _Jobs]:
    """Reorder each parent's shared jobs to follow the other parent.

    Child one keeps parent one's job set and positions; only the jobs both
    parents share are rewritten, in the relative order they appear in
    parent two. Child two mirrors this. Neither child can contain a
    duplicate job, and no randomness is consumed. Identical parents, and
    parents sharing fewer than two jobs, are returned themselves.
    """
    if j1 == j2:
        return j1, j2
    shared = set(j1).intersection(j2)
    if len(shared) < 2:  # one shared job keeps its place in both
        return j1, j2
    return _reordered(j1, j2, shared), _reordered(j2, j1, shared)


def _reordered(keeper: _Jobs, donor: _Jobs, shared: set[int]) -> _Jobs:
    order = iter([j for j in donor if j in shared])
    return tuple([next(order) if j in shared else j for j in keeper])


def evolve(
    pop: Population,
    universe: AntigenUniverse,
    sample: AntigenSample,
    cfg: GAConfig,
    rng: random.Random,
    stats_stream: TextIO | None = None,
) -> Population:
    """Run the full generational loop and return the final population.

    The per-generation statistics stream, when given, receives CSV rows
    `generation,best,mean,worst` including a row for generation zero.

    The loop holds members as job tuples and scores a child through a memo
    of every job tuple seen in this call (seeded with the initial
    population), calling `antibody_fitness` only for a new one; antibodies
    are built only for the returned population.
    """
    fitnesses = pop.require_evaluated()
    size = pop.size
    cur = [ab.jobs for ab in pop.antibodies]
    cur_fit = list(fitnesses)
    memo = dict(zip(cur, cur_fit))
    # The elite starts as the first of the fittest members (max keeps the first).
    best_jobs, best_fit = max(zip(cur, cur_fit), key=itemgetter(1))
    select = _tournament(size, cfg.tournament_size, rng)
    mutate_jobs = _mutation(cfg.mutation_rate, rng)
    random_, crossover_rate = rng.random, cfg.crossover_rate

    def fitness(jobs: _Jobs) -> int:
        fit = memo.get(jobs)
        if fit is None:
            fit = memo[jobs] = antibody_fitness(Antibody.trusted(jobs), universe, sample)
        return fit

    if stats_stream is not None:
        stats_stream.write("generation,best,mean,worst\n")
        _write_stats(stats_stream, 0, cur_fit)

    for gen in range(1, cfg.generations + 1):
        new: list[_Jobs] = []
        new_fit: list[int] = []
        while len(new) < size:
            i1 = select(cur_fit)
            i2 = select(cur_fit)
            p1, f1 = cur[i1], cur_fit[i1]
            p2, f2 = cur[i2], cur_fit[i2]
            if random_() < crossover_rate:
                c1, c2 = order_crossover(p1, p2)
            else:
                c1, c2 = p1, p2
            c1 = mutate_jobs(c1)
            c2 = mutate_jobs(c2)
            fc1 = f1 if c1 is p1 else fitness(c1)
            fc2 = f2 if c2 is p2 else fitness(c2)
            if fc1 > best_fit:
                best_jobs, best_fit = c1, fc1
            if fc2 > best_fit:
                best_jobs, best_fit = c2, fc2
            family = [(p1, f1), (p2, f2), (c1, fc1), (c2, fc2)]
            family.sort(key=itemgetter(1), reverse=True)  # stable: parents win ties
            (a, fa), (b, fb) = family[:2]
            new += a, b
            new_fit += fa, fb
        del new[size:], new_fit[size:]

        worst_fit = min(new_fit)
        if best_fit > worst_fit:
            worst_i = new_fit.index(worst_fit)
            new[worst_i] = best_jobs
            new_fit[worst_i] = best_fit
        cur, cur_fit = new, new_fit
        if stats_stream is not None:
            _write_stats(stats_stream, gen, cur_fit)

    return Population([Antibody.trusted(jobs) for jobs in cur], cur_fit)


def _write_stats(stream: TextIO, generation: int, fitnesses: list[int]) -> None:
    mean = sum(fitnesses) / len(fitnesses)
    stream.write(f"{generation},{max(fitnesses)},{mean:.4f},{min(fitnesses)}\n")
