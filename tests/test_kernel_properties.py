"""Property tests of the packed-offset match kernel, of the operators
whose output skips Antibody validation, and of the draw the operators use
in place of randrange."""

import io
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
    GDConfig,
    NeighborOperator,
    SAConfig,
    antibody_fitness,
    best_match,
    is_matched,
    order_crossover,
    refine,
)
from immunesched.evolution import _mutation
from immunesched.gene_library import draw_below, nth_unused_job

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


@given(
    seeds,
    st.one_of(st.sampled_from([2**p for p in range(9)]), st.integers(1, 257)),
    st.integers(1, 40),
)
def test_draw_below_matches_randrange(seed, n, count):
    """Same values and same generator state as randrange: the operators'
    outputs depend on CPython's randrange algorithm, so a Python whose
    randrange differs fails here by name."""
    rng, reference = random.Random(seed), random.Random(seed)
    draw = draw_below(n, rng)
    assert [draw() for _ in range(count)] == [reference.randrange(n) for _ in range(count)]
    assert rng.getstate() == reference.getstate()


@given(
    universes,
    samples,
    antibodies,
    st.sampled_from([SAConfig, GDConfig]),
    st.sampled_from(list(NeighborOperator)),
    seeds,
)
def test_refine_output_is_valid_and_scored_like_antibody_fitness(
    universe, sample, antibody, method, op, seed
):
    """The chain scores moves by their delta on packed counts; the antibody
    it returns must be valid and have the best fitness it traced."""
    trace = io.StringIO()
    out = refine(antibody, universe, sample, method(operator=op), random.Random(seed), trace)
    assert_valid(out)
    best_fitness = int(trace.getvalue().splitlines()[-1].split(",")[3])
    assert antibody_fitness(out, universe, sample) == best_fitness


@given(antibodies, st.floats(0.0, 1.0), seeds)
def test_mutate_output_is_valid(antibody, rate, seed):
    jobs = _mutation(rate, random.Random(seed))(antibody.jobs)
    assert_valid(Antibody.trusted(jobs))


@settings(max_examples=200)
@given(antibodies, antibodies)
def test_crossover_output_is_valid(p1, p2):
    for child in order_crossover(p1.jobs, p2.jobs):
        assert_valid(Antibody.trusted(child))
