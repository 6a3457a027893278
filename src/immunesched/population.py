"""Antibody populations: fitness caching and initial sampling from a pool."""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from .gene_library import Antibody
from .matching import AntigenSample, antibody_fitness
from .scheduling import AntigenUniverse, at_line, read_lines


@dataclass
class Population:
    """A fixed-size collection of antibodies with cached fitness values.

    `fitnesses` is filled by evaluate(), one value per antibody in order;
    operations that need it raise if the population has not been
    evaluated against a sample yet.
    """

    antibodies: list[Antibody]
    fitnesses: list[int] | None = None

    @property
    def size(self) -> int:
        return len(self.antibodies)

    def evaluate(self, universe: AntigenUniverse, sample: AntigenSample) -> "Population":
        """Cache every antibody's fitness against the sample; returns self."""
        self.fitnesses = [
            antibody_fitness(ab, universe, sample) for ab in self.antibodies
        ]
        return self

    def require_evaluated(self) -> list[int]:
        if self.fitnesses is None:
            raise ValueError("population has not been evaluated against a sample")
        return self.fitnesses

    @property
    def total_fitness(self) -> int:
        return sum(self.require_evaluated())

    @property
    def best_fitness(self) -> int:
        return max(self.require_evaluated())


def sample_initial(pool: tuple[Antibody, ...], size: int, rng: random.Random) -> Population:
    """Draw `size` distinct pool members in random order as a fresh population."""
    if len(pool) < size:
        raise ValueError(
            f"pool holds {len(pool)} antibodies, cannot sample {size}"
        )
    return Population(rng.sample(pool, size))


def save_population(pop: Population, path: str | Path) -> None:
    """Write one antibody per line as five space-separated job ids."""
    lines = [" ".join(str(j) for j in ab.jobs) for ab in pop.antibodies]
    Path(path).write_text("\n".join(lines) + "\n")


def load_population(path: str | Path) -> Population:
    """Read a population file written by save_population."""
    path = Path(path)
    lines, end = read_lines(path)
    if not lines:
        with at_line(path, end + 1):
            raise ValueError("expected at least 1 antibody, found 0")
    antibodies = []
    for lineno, line in lines:
        with at_line(path, lineno):
            antibodies.append(Antibody(tuple(int(t) for t in line.split())))
    return Population(antibodies)
