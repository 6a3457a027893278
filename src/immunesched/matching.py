"""Alignment-based matching between antibodies and antigens.

An antibody slides along an antigen; at each of the 11 possible offsets
every position where the two agree contributes five points. The best
offset's score is the antibody's match against that antigen, and fitness
over a sample of antigens is the sum of best scores.

Antigens are permutations, so antibody slot j agrees at offset d exactly
when its job sits at antigen position j + d. Each antigen caches a table
(`Antigen.match_table`) giving, per slot and job, a 1 in the 4-bit field
of that offset; adding the five looked-up entries of an antibody packs
all 11 offset counts into one integer, and `BEST_COUNT` maps each such
packed value to its largest count. Matching one antibody against one
antigen is therefore five table lookups, four additions and a dict lookup.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .gene_library import Antibody
from .scheduling import (
    ANTIBODY_LENGTH,
    OFFSET_COUNT,
    UNIVERSE_SIZE,
    Antigen,
    AntigenUniverse,
)

POSITION_SCORE = 5
MAX_SCORE_PER_ANTIGEN = POSITION_SCORE * ANTIBODY_LENGTH


def _best_count_table() -> dict[int, int]:
    # Every packed value is the sum of ANTIBODY_LENGTH fields, each naming
    # one offset or none (OFFSET_COUNT stands for "no offset"), so the
    # multisets of that size enumerate them all: C(16, 5) = 4368 keys.
    table = {}
    for offsets in itertools.combinations_with_replacement(
        range(OFFSET_COUNT + 1), ANTIBODY_LENGTH
    ):
        aligned = [d for d in offsets if d < OFFSET_COUNT]
        packed = sum(1 << 4 * d for d in aligned)
        table[packed] = max((aligned.count(d) for d in aligned), default=0)
    return table


BEST_COUNT = _best_count_table()


@dataclass(frozen=True)
class MatchResult:
    """Best alignment of one antibody against one antigen."""

    best_count: int
    best_score: int
    best_offset: int


@dataclass(frozen=True)
class AntigenSample:
    """Indices of the antigens an antibody population is trained against."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.indices:
            raise ValueError("antigen sample must not be empty")
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("antigen sample indices must be distinct")
        if any(not 0 <= i < UNIVERSE_SIZE for i in self.indices):
            raise ValueError(f"antigen sample index out of range 0..{UNIVERSE_SIZE - 1}")

    @property
    def size(self) -> int:
        return len(self.indices)

    @classmethod
    def draw(cls, size: int, rng: random.Random) -> "AntigenSample":
        """Sample `size` distinct antigen indices uniformly without replacement."""
        if not 1 <= size <= UNIVERSE_SIZE:
            raise ValueError(f"sample size {size} not in 1..{UNIVERSE_SIZE}")
        return cls(tuple(rng.sample(range(UNIVERSE_SIZE), size)))


def _packed_counts(antigen: Antigen, jobs: tuple[int, ...]) -> int:
    t0, t1, t2, t3, t4 = antigen.match_table
    a, b, c, d, e = jobs
    return t0[a] + t1[b] + t2[c] + t3[d] + t4[e]


def best_match(antigen: Antigen, antibody: Antibody) -> MatchResult:
    """Best alignment over all offsets; ties go to the smallest offset."""
    packed = _packed_counts(antigen, antibody.jobs)
    count = BEST_COUNT[packed]
    offset = next(d for d in range(OFFSET_COUNT) if (packed >> 4 * d) & 0xF == count)
    return MatchResult(count, POSITION_SCORE * count, offset)


def antibody_fitness(
    antibody: Antibody, universe: AntigenUniverse, sample: AntigenSample
) -> int:
    """Sum of the antibody's best match scores over the sampled antigens."""
    # _packed_counts inlined: this is the innermost call of both phases.
    a, b, c, d, e = antibody.jobs
    antigens = universe.antigens
    total = 0
    for i in sample.indices:
        t0, t1, t2, t3, t4 = antigens[i].match_table
        total += BEST_COUNT[t0[a] + t1[b] + t2[c] + t3[d] + t4[e]]
    return POSITION_SCORE * total


def is_matched(antigen: Antigen, antibody: Antibody, threshold: int) -> bool:
    """True when the best alignment matches at least `threshold` positions."""
    return BEST_COUNT[_packed_counts(antigen, antibody.jobs)] >= threshold


def max_fitness(sample_size: int) -> int:
    """Highest fitness an antibody can reach against `sample_size` antigens."""
    if sample_size < 1:
        raise ValueError("sample size must be at least 1")
    return MAX_SCORE_PER_ANTIGEN * sample_size
