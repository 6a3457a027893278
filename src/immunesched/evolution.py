"""Genetic evolution of an antibody population (phase one).

Each generation fills a fresh population pairwise: two tournament-selected
parents either cross over or are copied, both offspring are mutated and
evaluated, and the two fittest of the four family members are admitted.
Children must therefore beat their parents to enter. A single global-elite
slot guarantees the best fitness ever seen never leaves the population.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import itemgetter
from typing import TextIO

from .gene_library import ANTIBODY_LENGTH, UNUSED_JOB_COUNT, Antibody, nth_unused_job
from .matching import AntigenSample, antibody_fitness
from .population import Population
from .scheduling import AntigenUniverse


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


def tournament_select(fitnesses: list[int], k: int, rng: random.Random) -> int:
    """Index of the fittest among k uniform draws (with replacement).

    Ties break toward the lowest index.
    """
    n = len(fitnesses)
    best = rng.randrange(n)
    for _ in range(k - 1):
        i = rng.randrange(n)
        if fitnesses[i] > fitnesses[best] or (fitnesses[i] == fitnesses[best] and i < best):
            best = i
    return best


def order_crossover(p1: Antibody, p2: Antibody) -> tuple[Antibody, Antibody]:
    """Reorder each parent's shared jobs to follow the other parent.

    Child one keeps parent one's job set and positions; only the jobs both
    parents share are rewritten, in the relative order they appear in
    parent two. Child two mirrors this. Neither child can contain a
    duplicate job, and no randomness is consumed.
    """
    if p1.jobs == p2.jobs:
        return p1, p2
    shared = set(p1.jobs) & set(p2.jobs)
    return _reordered_child(p1, p2, shared), _reordered_child(p2, p1, shared)


def _reordered_child(keeper: Antibody, donor: Antibody, shared: set[int]) -> Antibody:
    order = iter(j for j in donor.jobs if j in shared)
    jobs = tuple(next(order) if j in shared else j for j in keeper.jobs)
    return keeper if jobs == keeper.jobs else Antibody.trusted(jobs)


def mutate(ab: Antibody, rate: float, rng: random.Random) -> Antibody:
    """Independently replace each position, with probability `rate`, by a job
    not currently in the antibody (the exclusion set updates left to right)."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("mutation rate must be in [0, 1]")
    jobs = ab.jobs
    for posn in range(ANTIBODY_LENGTH):
        if rng.random() < rate:
            job = nth_unused_job(jobs, rng.randrange(UNUSED_JOB_COUNT))
            jobs = jobs[:posn] + (job,) + jobs[posn + 1 :]
    return ab if jobs is ab.jobs else Antibody.trusted(jobs)


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
    """
    fitnesses = pop.require_evaluated()
    size = pop.size
    cur_abs = list(pop.antibodies)
    cur_fit = list(fitnesses)
    # The elite starts as the first of the fittest members (max keeps the first).
    best_ab, best_fit = max(zip(cur_abs, cur_fit), key=itemgetter(1))

    if stats_stream is not None:
        stats_stream.write("generation,best,mean,worst\n")
        _write_stats(stats_stream, 0, cur_fit)

    for gen in range(1, cfg.generations + 1):
        new_abs: list[Antibody] = []
        new_fit: list[int] = []
        while len(new_abs) < size:
            i1 = tournament_select(cur_fit, cfg.tournament_size, rng)
            i2 = tournament_select(cur_fit, cfg.tournament_size, rng)
            p1, f1 = cur_abs[i1], cur_fit[i1]
            p2, f2 = cur_abs[i2], cur_fit[i2]
            if rng.random() < cfg.crossover_rate:
                c1, c2 = order_crossover(p1, p2)
            else:
                c1, c2 = p1, p2
            c1 = mutate(c1, cfg.mutation_rate, rng)
            c2 = mutate(c2, cfg.mutation_rate, rng)
            fc1 = f1 if c1 is p1 else antibody_fitness(c1, universe, sample)
            fc2 = f2 if c2 is p2 else antibody_fitness(c2, universe, sample)
            if fc1 > best_fit:
                best_ab, best_fit = c1, fc1
            if fc2 > best_fit:
                best_ab, best_fit = c2, fc2
            family = [(p1, f1), (p2, f2), (c1, fc1), (c2, fc2)]
            family.sort(key=itemgetter(1), reverse=True)  # stable: parents win ties
            for ab, fit in family[:2]:
                new_abs.append(ab)
                new_fit.append(fit)
        del new_abs[size:], new_fit[size:]

        worst_i = min(range(size), key=lambda i: new_fit[i])
        if best_fit > new_fit[worst_i]:
            new_abs[worst_i] = best_ab
            new_fit[worst_i] = best_fit
        cur_abs, cur_fit = new_abs, new_fit
        if stats_stream is not None:
            _write_stats(stats_stream, gen, cur_fit)

    return Population(cur_abs, cur_fit)


def _write_stats(stream: TextIO, generation: int, fitnesses: list[int]) -> None:
    mean = sum(fitnesses) / len(fitnesses)
    stream.write(f"{generation},{max(fitnesses)},{mean:.4f},{min(fitnesses)}\n")
