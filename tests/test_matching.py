import random

import pytest

from immunesched import (
    JOB_COUNT,
    MAX_SCORE_PER_ANTIGEN,
    Antibody,
    Antigen,
    AntigenSample,
    antibody_fitness,
    best_match,
    default_base_problem,
    generate_universe,
    max_fitness,
)
from reference import sliding_counts

# Golden alignment case: three positions line up at offset 3 (score 15), one
# position each at offsets 6 and 7 (score 5), nothing anywhere else.
GOLDEN_ANTIGEN = Antigen((1, 2, 7, 4, 3, 9, 6, 8, 14, 5, 13, 12, 10, 11, 15))
GOLDEN_ANTIBODY = Antibody((4, 3, 9, 5, 12))


def random_antigen(rng):
    ids = list(range(1, JOB_COUNT + 1))
    rng.shuffle(ids)
    return Antigen(tuple(ids))


def random_antibody(rng):
    return Antibody(tuple(rng.sample(range(1, JOB_COUNT + 1), 5)))


def test_best_match_golden_case():
    result = best_match(GOLDEN_ANTIGEN, GOLDEN_ANTIBODY)
    assert result.best_score == 15
    assert result.best_count == 3
    assert result.best_offset == 3


def test_best_match_prefix_is_perfect():
    antibody = Antibody(GOLDEN_ANTIGEN.sequence[:5])
    result = best_match(GOLDEN_ANTIGEN, antibody)
    assert (result.best_count, result.best_score, result.best_offset) == (5, 25, 0)


def test_best_match_tie_takes_smallest_offset():
    # Against the identity antigen, job 3 at position 0 aligns at offset 2 and
    # job 7 at position 1 aligns at offset 5; every other position misses.
    antigen = Antigen(tuple(range(1, JOB_COUNT + 1)))
    antibody = Antibody((3, 7, 1, 2, 4))
    result = best_match(antigen, antibody)
    assert (result.best_count, result.best_offset) == (1, 2)


def test_best_match_agrees_with_brute_force():
    rng = random.Random(1234)
    for _ in range(500):
        antigen, antibody = random_antigen(rng), random_antibody(rng)
        result = best_match(antigen, antibody)
        counts = sliding_counts(antigen, antibody)
        count = max(counts)
        offset = counts.index(count)  # ties go to the smallest offset
        assert (result.best_count, result.best_offset) == (count, offset)
        assert result.best_score == 5 * count


def test_fitness_single_antigen_prefix():
    universe = _universe()
    antibody = Antibody(universe.antigens[3].sequence[:5])
    assert antibody_fitness(antibody, universe, AntigenSample((3,))) == 25


def test_fitness_bounded_by_sample_size():
    universe = _universe()
    rng = random.Random(9)
    sample = AntigenSample((0, 2, 5, 7))
    for _ in range(200):
        fit = antibody_fitness(random_antibody(rng), universe, sample)
        assert 0 <= fit <= 100


def test_fitness_equals_sum_of_brute_force_scores():
    universe = _universe()
    rng = random.Random(77)
    sample = AntigenSample.draw(8, random.Random("sample"))
    for _ in range(100):
        antibody = random_antibody(rng)
        expected = sum(
            5 * max(sliding_counts(universe.antigens[i], antibody)) for i in sample.indices
        )
        assert antibody_fitness(antibody, universe, sample) == expected


def test_max_fitness_values():
    assert max_fitness(1) == 25
    assert max_fitness(4) == 100
    assert max_fitness(8) == 200
    with pytest.raises(ValueError):
        max_fitness(0)
    assert MAX_SCORE_PER_ANTIGEN == 25


def test_relabeling_symmetry():
    rng = random.Random(55)
    for _ in range(100):
        antigen, antibody = random_antigen(rng), random_antibody(rng)
        relabel = dict(zip(range(1, JOB_COUNT + 1), rng.sample(range(1, JOB_COUNT + 1), JOB_COUNT)))
        mapped_antigen = Antigen(tuple(relabel[j] for j in antigen.sequence))
        mapped_antibody = Antibody(tuple(relabel[j] for j in antibody.jobs))
        assert (
            best_match(antigen, antibody).best_count
            == best_match(mapped_antigen, mapped_antibody).best_count
        )


def test_antigen_sample_validation():
    with pytest.raises(ValueError):
        AntigenSample(())
    with pytest.raises(ValueError):
        AntigenSample((1, 1))
    with pytest.raises(ValueError):
        AntigenSample((0, 10))
    sample = AntigenSample.draw(4, random.Random(8))
    assert sample.size == 4
    assert sample == AntigenSample.draw(4, random.Random(8))
    with pytest.raises(ValueError):
        AntigenSample.draw(11, random.Random(8))


def test_one_sample_scored_against_two_universes_alternately():
    """Each universe holds its own column table and the sample only its lane
    masks; scoring the sample against one universe must not read the
    other's table."""
    first = _universe()
    second = generate_universe(default_base_problem(), random.Random(3))
    sample = AntigenSample((0, 4, 6))
    rng = random.Random(12)
    differ = False
    for _ in range(50):
        antibody = random_antibody(rng)
        fits = []
        for universe in (first, second, first, second):
            expected = sum(
                5 * max(sliding_counts(universe.antigens[i], antibody))
                for i in sample.indices
            )
            fits.append(antibody_fitness(antibody, universe, sample))
            assert fits[-1] == expected
        differ = differ or fits[0] != fits[1]
    assert differ  # some antibody scores differently in the two universes


def _universe():
    return generate_universe(default_base_problem(), random.Random(2))
