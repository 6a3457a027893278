"""Alignment-based matching between antibodies and antigens.

An antibody slides along an antigen; at each of the 11 possible offsets
every position where the two agree contributes five points. The best
offset's score is the antibody's match against that antigen, and fitness
over a sample of antigens is the sum of best scores.

Every fitness and coverage score is read from one packed format, defined
and built here. Antigens are permutations, so antibody slot j agrees at
offset d exactly when its job sits at antigen position j + d. `pack_columns`
builds a universe's column table straight from antigen positions: per slot
and job id, one int with a 1 in the 4-bit field of that offset in antigen
k's lane, at bit LANE_BITS * k. There is no per-antigen table. The sum of an
antibody's five column entries is all 11 offset counts against every
antigen at once, one lane each. A field counts at most five slots, so none
spills into the next, and the fields fill 44 of a lane's LANE_BITS = 45: no
lane carries into or borrows from its neighbour, so the refinement chain
scores a move by subtracting and adding entries. The universe builds its
table once (`AntigenUniverse.columns`), and it serves every sample.

A sample is a choice of lanes, and `AntigenSample.masks` score its lanes
and no other. A lane's best count is its largest field, so it is the number
of c in 1..5 that some field reaches. `_best_counts` sums it over the masked
lanes with ten additions and ANDs and five bit counts, whatever their
number. Coverage packs each distinct member's lanes once and scores a
threshold with one OR over the members of one masked add each, and one bit
count. `best_match`, which also reports the best offset, counts on the
antigen's sequence.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from operator import eq
from typing import TYPE_CHECKING

from .gene_library import Antibody
from .scheduling import (
    ANTIBODY_LENGTH,
    JOB_COUNT,
    OFFSET_COUNT,
    UNIVERSE_SIZE,
    Antigen,
    AntigenUniverse,
)

if TYPE_CHECKING:  # population imports this module
    from .population import Population

POSITION_SCORE = 5
MAX_SCORE_PER_ANTIGEN = POSITION_SCORE * ANTIBODY_LENGTH
# One antigen's lane in a column table: the 11 four-bit fields and bit 44,
# which the best-count rule carries into and never past.
LANE_BITS = 4 * OFFSET_COUNT + 1

# The constants `_best_counts` adds and masks with (see `_lane_masks`).
_Masks = tuple[int, int, int, int, int, int, int]


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

    @cached_property
    def masks(self) -> _Masks:
        """The masks that score this sample's lanes of `AntigenUniverse.columns`."""
        return _lane_masks(self.indices)

    @classmethod
    def draw(cls, size: int, rng: random.Random) -> "AntigenSample":
        """Sample `size` distinct antigen indices uniformly without replacement."""
        if not 1 <= size <= UNIVERSE_SIZE:
            raise ValueError(f"sample size {size} not in 1..{UNIVERSE_SIZE}")
        return cls(tuple(rng.sample(range(UNIVERSE_SIZE), size)))


def pack_columns(antigens: Sequence[Antigen]) -> tuple[tuple[int, ...], ...]:
    """The column table of the antigens, antigen k in lane k: per antibody
    slot, one int per job id (index 0 is no job). The job at position p of
    antigen k sets the field of offset p - slot in lane k, for each slot
    at which that offset exists."""
    columns = [[0] * (JOB_COUNT + 1) for _ in range(ANTIBODY_LENGTH)]
    for k, antigen in enumerate(antigens):
        for p, job in enumerate(antigen.sequence):
            for slot in range(max(0, p - OFFSET_COUNT + 1), min(p + 1, ANTIBODY_LENGTH)):
                columns[slot][job] += 1 << LANE_BITS * k + 4 * (p - slot)
    return tuple(map(tuple, columns))


def _lane_masks(lanes: tuple[int, ...]) -> _Masks:
    """The constants that score the given lanes and no other, in
    `_best_counts`' order: 2**44 - 1 in each lane, bit 44 of each lane,
    bit 3 of each field, then 8 - c in each field for c = 2, 3, 4 and 5.
    As masks, 6 is bits 1 and 2 of a field and 4 its bit 2."""
    lane = sum(1 << LANE_BITS * k for k in lanes)  # bit 0 of each lane
    top = lane << LANE_BITS - 1
    ones = lane * sum(1 << 4 * d for d in range(OFFSET_COUNT))  # bit 0 of each field
    return top - lane, top, 8 * ones, 6 * ones, 5 * ones, 4 * ones, 3 * ones


_ALL_LANES = _lane_masks(tuple(range(UNIVERSE_SIZE)))


def _best_counts(packed: int, masks: _Masks) -> int:
    """The sum of the masked lanes' best counts, for lanes packed as in
    `AntigenUniverse.columns`; a lane outside the masks adds nothing.

    Adding 2**44 - 1 to a lane sets its bit 44 exactly when the lane is
    non-zero: that is c = 1. For c = 3 and 5, adding 8 - c to every field
    sets the field's bit 3 exactly when it is >= c, and no field passes
    15, since the fields sum to at most 5. No field exceeds 5 either, so a
    field is >= 4 exactly when its bit 2 is set: c = 4 is one AND with
    that bit of every field. A field is >= 2 exactly when bit 1 or bit 2
    is set: c = 2 keeps those two bits of every field and, as two fields
    of a lane can pass, collapses them onto bit 44 as c = 1 does. For
    c >= 3 at most one field per lane passes (two would hold six slots),
    so the set bits count lanes. That is ten operations on the packed int
    and five bit counts. An unmasked lane has nothing added and every bit
    of it is masked off. `local_search.refine` inlines this expression.
    """
    below_top, top, high, two, three, four, five = masks
    return (
        ((packed + below_top) & top).bit_count()
        + (((packed & two) + below_top) & top).bit_count()
        + ((packed + three) & high).bit_count()
        + (packed & four).bit_count()
        + ((packed + five) & high).bit_count()
    )


def best_match(antigen: Antigen, antibody: Antibody) -> MatchResult:
    """Best alignment over all offsets, counted directly on the antigen's
    sequence; ties go to the smallest offset."""
    seq = antigen.sequence
    counts = [sum(map(eq, antibody.jobs, seq[d:])) for d in range(OFFSET_COUNT)]
    count = max(counts)
    return MatchResult(count, POSITION_SCORE * count, counts.index(count))


def antibody_fitness(
    antibody: Antibody, universe: AntigenUniverse, sample: AntigenSample
) -> int:
    """Sum of the antibody's best match scores over the sampled antigens."""
    c0, c1, c2, c3, c4 = universe.columns
    a, b, c, d, e = antibody.jobs
    return POSITION_SCORE * _best_counts(c0[a] + c1[b] + c2[c] + c3[d] + c4[e], sample.masks)


def coverage(pop: Population, universe: AntigenUniverse, threshold: int) -> int:
    """Number of universe antigens matched by no antibody at the threshold t,
    always all ten, whatever sample the population was trained on. Adding
    8 - t to a field sets its bit 3 exactly when the field reaches t; the
    flags are OR'd over the distinct members and, as two can flag one lane,
    collapsed onto bit 44 of each lane. A t below 0 scores as 0, which every
    member reaches on every lane, one above ANTIBODY_LENGTH as ANTIBODY_LENGTH + 1."""
    below_top, top, high = _ALL_LANES[:3]
    t = min(max(threshold, 0), ANTIBODY_LENGTH + 1)
    add = (8 - t) * (high >> 3)
    c0, c1, c2, c3, c4 = universe.columns
    reached = 0
    for a, b, c, d, e in {ab.jobs for ab in pop.antibodies}:
        reached |= (c0[a] + c1[b] + c2[c] + c3[d] + c4[e] + add) & high
    return UNIVERSE_SIZE - ((reached + below_top) & top).bit_count()


def max_fitness(sample_size: int) -> int:
    """Highest fitness an antibody can reach against `sample_size` antigens."""
    if sample_size < 1:
        raise ValueError("sample size must be at least 1")
    return MAX_SCORE_PER_ANTIGEN * sample_size
