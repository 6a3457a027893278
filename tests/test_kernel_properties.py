"""Property tests of the packed-offset match kernel and of the operators
whose output skips Antibody validation."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from immunesched import (
    JOB_COUNT,
    OFFSET_COUNT,
    POSITION_SCORE,
    UNIVERSE_SIZE,
    Antibody,
    Antigen,
    AntigenSample,
    AntigenUniverse,
    NeighborOperator,
    antibody_fitness,
    best_match,
    is_matched,
    mutate,
    neighbor,
    order_crossover,
)
from immunesched.gene_library import nth_unused_job

JOB_IDS = range(1, JOB_COUNT + 1)

antigens = st.permutations(JOB_IDS).map(lambda seq: Antigen(tuple(seq)))
antibodies = st.lists(
    st.integers(1, JOB_COUNT), min_size=5, max_size=5, unique=True
).map(lambda jobs: Antibody(tuple(jobs)))
universes = st.lists(antigens, min_size=UNIVERSE_SIZE, max_size=UNIVERSE_SIZE).map(
    lambda ags: AntigenUniverse(tuple(ags))
)
samples = st.lists(
    st.integers(0, UNIVERSE_SIZE - 1), min_size=1, max_size=UNIVERSE_SIZE, unique=True
).map(lambda indices: AntigenSample(tuple(indices)))
seeds = st.integers(0, 2**32)


def sliding_counts(antigen, antibody):
    """Matching positions at every offset, by sliding the antibody along."""
    return [
        sum(job == antigen.sequence[offset + j] for j, job in enumerate(antibody.jobs))
        for offset in range(OFFSET_COUNT)
    ]


def assert_valid(ab):
    assert len(ab.jobs) == 5
    assert len(set(ab.jobs)) == 5
    assert all(1 <= job <= JOB_COUNT for job in ab.jobs)
    assert Antibody(ab.jobs) == ab  # the validating constructor accepts it


@given(antigens, antibodies)
def test_best_match_agrees_with_sliding_window(antigen, antibody):
    counts = sliding_counts(antigen, antibody)
    best = max(counts)
    result = best_match(antigen, antibody)
    assert result.best_count == best
    assert result.best_offset == counts.index(best)  # ties go to the lowest offset
    assert result.best_score == POSITION_SCORE * best


@given(antigens, antibodies)
def test_is_matched_agrees_with_sliding_window(antigen, antibody):
    best = max(sliding_counts(antigen, antibody))
    for threshold in range(7):
        assert is_matched(antigen, antibody, threshold) == (best >= threshold)


@given(universes, samples, antibodies)
def test_fitness_agrees_with_sliding_window(universe, sample, antibody):
    expected = sum(
        POSITION_SCORE * max(sliding_counts(universe.antigens[i], antibody))
        for i in sample.indices
    )
    assert antibody_fitness(antibody, universe, sample) == expected


@given(st.sets(st.integers(1, JOB_COUNT), min_size=5, max_size=5), st.integers(0, 9))
def test_nth_unused_job_indexes_the_complement(jobs, n):
    complement = [job for job in JOB_IDS if job not in jobs]
    assert nth_unused_job(tuple(jobs), n) == complement[n]


@given(antibodies, st.sampled_from(list(NeighborOperator)), seeds)
def test_neighbor_output_is_valid(antibody, op, seed):
    assert_valid(neighbor(antibody, op, random.Random(seed)))


@given(antibodies, st.floats(0.0, 1.0), seeds)
def test_mutate_output_is_valid(antibody, rate, seed):
    assert_valid(mutate(antibody, rate, random.Random(seed)))


@settings(max_examples=200)
@given(antibodies, antibodies)
def test_crossover_output_is_valid(p1, p2):
    for child in order_crossover(p1, p2):
        assert_valid(child)
