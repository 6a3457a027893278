"""Gene libraries and the combinatorial antibody pools built from them.

Each antigen is cut into five contiguous three-job components; component k
of slot s across all ten antigens forms library s. Antibodies (partial
schedules of five distinct jobs) are produced by concatenating a component
from a lower-indexed library with one from a higher-indexed library and
keeping every order-preserving five-job subsequence that contains no
duplicate job. An antibody is only its jobs: which components produced it
is not kept, since neither phase reads it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .scheduling import ANTIBODY_LENGTH, JOB_COUNT, AntigenUniverse

COMPONENT_SIZE = 3
LIBRARY_COUNT = JOB_COUNT // COMPONENT_SIZE

POPULATION_TYPES = ("A", "B", "C")
# Job ids an antibody leaves out, and so the choices a one-job replacement has.
UNUSED_JOB_COUNT = JOB_COUNT - ANTIBODY_LENGTH


@dataclass(frozen=True)
class Component:
    """A three-job slice of one antigen; source is (antigen index, library slot)."""

    jobs: tuple[int, int, int]
    source: tuple[int, int]

    def __post_init__(self) -> None:
        if len(set(self.jobs)) != COMPONENT_SIZE:
            raise ValueError(f"component jobs must be {COMPONENT_SIZE} distinct ids")
        if any(not 1 <= j <= JOB_COUNT for j in self.jobs):
            raise ValueError("component job id out of range")


@dataclass(frozen=True)
class GeneLibrary:
    """All ten components cut from one slot of the universe."""

    index: int
    components: tuple[Component, ...]

    def __post_init__(self) -> None:
        if len(self.components) != 10:
            raise ValueError(f"library {self.index} must hold 10 components")
        for k, comp in enumerate(self.components):
            if comp.source != (k, self.index):
                raise ValueError(
                    f"library {self.index}: component {k} has source {comp.source}"
                )


@dataclass(frozen=True)
class LibrarySet:
    """The five libraries that together partition every antigen."""

    libraries: tuple[GeneLibrary, ...]

    def __post_init__(self) -> None:
        if [lib.index for lib in self.libraries] != list(range(LIBRARY_COUNT)):
            raise ValueError(f"expected libraries indexed 0..{LIBRARY_COUNT - 1} in order")


@dataclass(frozen=True)
class Antibody:
    """A partial schedule: five distinct job ids in order.

    The jobs are the whole antibody: equal jobs make equal antibodies,
    whether they came from the pool or from an operator.
    """

    jobs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.jobs) != ANTIBODY_LENGTH or len(set(self.jobs)) != ANTIBODY_LENGTH:
            raise ValueError(f"antibody needs {ANTIBODY_LENGTH} distinct jobs, got {self.jobs}")
        if any(not 1 <= j <= JOB_COUNT for j in self.jobs):
            raise ValueError("antibody job id out of range")

    @classmethod
    def trusted(cls, jobs: tuple[int, ...]) -> "Antibody":
        """An antibody whose jobs skip validation.

        For operators that build five distinct in-range jobs by
        construction (crossover, mutation, neighborhood moves); input from
        files and callers goes through the validating constructor.
        """
        ab = object.__new__(cls)
        ab.__dict__["jobs"] = jobs  # frozen: bypass __setattr__, as __init__ does
        return ab


def nth_unused_job(jobs: tuple[int, ...], n: int) -> int:
    """The n-th smallest (from 0) job id in 1..JOB_COUNT that is not in `jobs`.

    `jobs` must hold distinct ids. Each id at or below the running
    candidate pushes it up by one, in ascending order.
    """
    job = n + 1
    for taken in sorted(jobs):
        if taken <= job:
            job += 1
    return job


@dataclass(frozen=True)
class AntibodyPool:
    """All antibodies generated under one duplicate policy (type A, B or C)."""

    population_type: str
    antibodies: tuple[Antibody, ...]

    def __len__(self) -> int:
        return len(self.antibodies)


def build_libraries(universe: AntigenUniverse) -> LibrarySet:
    """Slice every antigen into five slots of three jobs each."""
    libraries = []
    for slot in range(LIBRARY_COUNT):
        components = []
        for k, antigen in enumerate(universe.antigens):
            jobs = antigen.sequence[COMPONENT_SIZE * slot : COMPONENT_SIZE * (slot + 1)]
            components.append(Component(jobs, (k, slot)))
        libraries.append(GeneLibrary(slot, tuple(components)))
    return LibrarySet(tuple(libraries))


def combine_components(c1: Component, c2: Component) -> list[Antibody]:
    """Enumerate the duplicate-free five-job subsequences of c1 + c2.

    The six concatenated jobs admit C(6,5) = 6 order-preserving
    subsequences, listed from the one that drops the last job to the one
    that drops the first; candidates containing a repeated job are
    discarded. c1 must come from a lower-indexed library than c2.
    """
    if c1.source[1] >= c2.source[1]:
        raise ValueError(
            f"first component must come from a lower library (got slots "
            f"{c1.source[1]} and {c2.source[1]})"
        )
    return [
        Antibody(jobs)
        for jobs in itertools.combinations(c1.jobs + c2.jobs, ANTIBODY_LENGTH)
        if len(set(jobs)) == ANTIBODY_LENGTH
    ]


def generate_pool(libset: LibrarySet, population_type: str) -> AntibodyPool:
    """Combine every component pair across every library pair into a typed pool.

    Enumeration order is deterministic: library pair (i, j) with i < j,
    then component indices, then combine_components' order. The duplicate
    policy is A: keep everything; B: keep the first occurrence of each
    distinct job sequence globally; C: keep the first occurrence per
    library pair, so equal sequences arising from different pairs survive.
    """
    if population_type not in POPULATION_TYPES:
        raise ValueError(f"population type must be one of {POPULATION_TYPES}")
    antibodies: list[Antibody] = []
    seen: set = set()
    for i, j in itertools.combinations(range(LIBRARY_COUNT), 2):
        lib_i, lib_j = libset.libraries[i], libset.libraries[j]
        for ci in lib_i.components:
            for cj in lib_j.components:
                for ab in combine_components(ci, cj):
                    if population_type == "B":
                        if ab.jobs in seen:
                            continue
                        seen.add(ab.jobs)
                    elif population_type == "C":
                        key = ((i, j), ab.jobs)
                        if key in seen:
                            continue
                        seen.add(key)
                    antibodies.append(ab)
    if not antibodies:
        raise ValueError("antibody pool is empty; universe is degenerate")
    return AntibodyPool(population_type, tuple(antibodies))
