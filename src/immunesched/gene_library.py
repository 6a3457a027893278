"""Gene libraries and the combinatorial antibody pools built from them.

Each antigen is cut into five contiguous three-job components; component k
of slot s across all ten antigens forms library s. Antibodies (partial
schedules of five distinct jobs) are produced by concatenating a component
from a lower-indexed library with one from a higher-indexed library and
keeping every order-preserving five-job subsequence that contains no
duplicate job. Components, libraries and pools are plain tuples, and an
antibody is only its jobs: which components produced it is not kept,
since neither phase reads it. A pool is built once per distinct component
pair and holds one antibody per distinct job tuple, shared by all its
equal entries.
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


@dataclass(frozen=True, slots=True)
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
        object.__setattr__(ab, "jobs", jobs)  # frozen: bypass __setattr__, as __init__ does
        return ab


def build_libraries(universe: AntigenUniverse) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Slice every antigen into five slots of three jobs each.

    Library s holds slot s's three-job slice of each antigen, in antigen order.
    """
    return tuple(
        tuple(
            antigen.sequence[COMPONENT_SIZE * slot : COMPONENT_SIZE * (slot + 1)]
            for antigen in universe.antigens
        )
        for slot in range(LIBRARY_COUNT)
    )


def combine_components(c1: tuple[int, ...], c2: tuple[int, ...]) -> list[Antibody]:
    """Enumerate the duplicate-free five-job subsequences of c1 + c2.

    The six concatenated jobs admit C(6,5) = 6 order-preserving
    subsequences, listed from the one that drops the last job to the one
    that drops the first; candidates containing a repeated job are
    discarded. The job ids are range-checked once, so the candidates, five
    distinct in-range jobs each, skip the per-antibody validation.
    """
    jobs = c1 + c2
    if any(not 1 <= j <= JOB_COUNT for j in jobs):
        raise ValueError("antibody job id out of range")
    return [
        Antibody.trusted(candidate)
        for candidate in itertools.combinations(jobs, ANTIBODY_LENGTH)
        if len(set(candidate)) == ANTIBODY_LENGTH
    ]


def generate_pool(
    libraries: tuple[tuple[tuple[int, ...], ...], ...], population_type: str
) -> tuple[Antibody, ...]:
    """Combine every component pair across every library pair into a typed pool.

    Enumeration order is deterministic: library pair (i, j) with i < j,
    then component indices, then combine_components' order. The duplicate
    policy is only a dedup scope, and a dedup keeps each antibody's first
    occurrence: A dedups nothing; B dedups the whole pool; C dedups within
    each library pair, so equal antibodies from different pairs survive.

    Equal entries are one object: each distinct concatenation ci + cj is
    combined once, and the pool holds one antibody per distinct job tuple.
    """
    if population_type not in POPULATION_TYPES:
        raise ValueError(f"population type must be one of {POPULATION_TYPES}")
    combined: dict[tuple[int, ...], list[Antibody]] = {}
    shared: dict[tuple[int, ...], Antibody] = {}

    def combine(ci: tuple[int, ...], cj: tuple[int, ...]) -> list[Antibody]:
        jobs = ci + cj
        if jobs not in combined:
            combined[jobs] = [shared.setdefault(ab.jobs, ab) for ab in combine_components(ci, cj)]
        return combined[jobs]

    pairs = [
        [ab for ci in libraries[i] for cj in libraries[j] for ab in combine(ci, cj)]
        for i, j in itertools.combinations(range(LIBRARY_COUNT), 2)
    ]
    if population_type == "C":
        pairs = [dict.fromkeys(pair) for pair in pairs]
    pool = itertools.chain.from_iterable(pairs)
    return tuple(dict.fromkeys(pool) if population_type == "B" else pool)
