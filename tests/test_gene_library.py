import dataclasses
import gc
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from immunesched import (
    JOB_COUNT,
    LIBRARY_COUNT,
    Antibody,
    Antigen,
    AntigenUniverse,
    build_libraries,
    combine_components,
    default_base_problem,
    generate_pool,
    generate_universe,
)
from reference import first_occurrences, reference_candidates, reference_pool


@pytest.fixture(scope="module")
def universe():
    return generate_universe(default_base_problem(), random.Random(11))


@pytest.fixture(scope="module")
def libraries(universe):
    return build_libraries(universe)


def rotation(k):
    """The identity schedule rotated left by k."""
    ids = list(range(1, JOB_COUNT + 1))
    return tuple(ids[k:] + ids[:k])


def rotated_universe():
    """Ten cyclic rotations of the identity schedule.

    Rotation by three realigns the component grid, so the same
    six-job concatenations (and hence equal antibodies) arise from
    different library pairs.
    """
    return AntigenUniverse(tuple(Antigen(rotation(k)) for k in range(10)))


# Rotations share components, so universes that mix them with arbitrary
# permutations hold equal pool entries from different component pairs.
antigen_sequences = st.one_of(
    st.permutations(range(1, JOB_COUNT + 1)).map(tuple),
    st.integers(0, JOB_COUNT - 1).map(rotation),
)


def test_library_slices_known_antigen():
    sequence = (1, 2, 7, 4, 3, 9, 6, 8, 14, 5, 13, 12, 10, 11, 15)
    others = [Antigen(rotation(k)) for k in range(9)]
    universe = AntigenUniverse(tuple([Antigen(sequence)] + others))
    libs = build_libraries(universe)
    assert libs[0][0] == (1, 2, 7)
    assert libs[1][0] == (4, 3, 9)


def test_libraries_partition_every_antigen(universe, libraries):
    for k, antigen in enumerate(universe.antigens):
        rebuilt = ()
        for lib in libraries:
            rebuilt += lib[k]
        assert rebuilt == antigen.sequence


def test_every_library_has_ten_components(libraries):
    assert len(libraries) == LIBRARY_COUNT
    for lib in libraries:
        assert len(lib) == 10
        assert all(len(comp) == 3 for comp in lib)


def test_combine_keeps_first_component_plus_two():
    sequences = [ab.jobs for ab in combine_components((1, 2, 7), (6, 8, 9))]
    assert (1, 2, 7, 6, 8) in sequences


def test_combine_six_distinct_jobs_gives_six_candidates():
    candidates = combine_components((1, 2, 7), (6, 8, 9))
    assert len(candidates) == 6
    assert len(set(ab.jobs for ab in candidates)) == 6


@pytest.mark.parametrize("c1, c2", [((1, 2, 0), (6, 8, 9)), ((1, 2, 7), (6, 8, 16))])
def test_combine_rejects_an_out_of_range_job(c1, c2):
    with pytest.raises(ValueError, match="^antibody job id out of range$"):
        combine_components(c1, c2)


def test_combine_discards_duplicate_jobs():
    candidates = combine_components((1, 2, 3), (3, 4, 5))
    assert len(candidates) == 2
    assert all(ab.jobs == (1, 2, 3, 4, 5) for ab in candidates)


def test_combined_candidates_are_masked_subsequences(libraries):
    for c1, c2 in itertools.product(libraries[0], libraries[1]):
        jobs = [ab.jobs for ab in combine_components(c1, c2)]
        assert jobs == reference_candidates(c1, c2)


def test_pool_size_laws(libraries):
    pool_a = generate_pool(libraries, "A")
    pool_b = generate_pool(libraries, "B")
    pool_c = generate_pool(libraries, "C")
    assert len(pool_a) <= 6000
    assert len(pool_a) >= len(pool_c) >= len(pool_b)
    for ab in pool_a:
        assert len(set(ab.jobs)) == 5


def test_pool_dedup_semantics(libraries):
    reference = reference_pool(libraries)
    expected_b = first_occurrences(reference, key=lambda c: c[1])
    expected_c = first_occurrences(reference, key=lambda c: c)
    assert [ab.jobs for ab in generate_pool(libraries, "B")] == [
        jobs for _, jobs in expected_b
    ]
    assert [ab.jobs for ab in generate_pool(libraries, "C")] == [
        jobs for _, jobs in expected_c
    ]


def test_type_c_keeps_duplicates_across_library_pairs():
    libs = build_libraries(rotated_universe())
    pool_b = generate_pool(libs, "B")
    pool_c = generate_pool(libs, "C")
    assert len(pool_c) > len(pool_b)
    expected_c = first_occurrences(reference_pool(libs), key=lambda c: c)
    assert [ab.jobs for ab in pool_c] == [jobs for _, jobs in expected_c]
    by_sequence = {}
    for pair, jobs in expected_c:
        by_sequence.setdefault(jobs, set()).add(pair)
    assert any(len(pairs) > 1 for pairs in by_sequence.values())


def test_pool_rejects_unknown_type(libraries):
    with pytest.raises(ValueError):
        generate_pool(libraries, "D")


def test_pool_enumeration_is_ordered(libraries):
    pool = generate_pool(libraries, "A")
    assert [ab.jobs for ab in pool] == [jobs for _, jobs in reference_pool(libraries)]


def test_antibody_validation():
    with pytest.raises(ValueError):
        Antibody((1, 2, 3, 4, 4))
    with pytest.raises(ValueError):
        Antibody((1, 2, 3, 4, 16))


def test_antibody_is_its_jobs(libraries):
    ab = generate_pool(libraries, "A")[0]
    assert ab == Antibody(ab.jobs) == Antibody.trusted(ab.jobs)
    assert hash(ab) == hash(Antibody.trusted(ab.jobs))
    assert ab != Antibody(ab.jobs[::-1])


def test_trusted_antibody_is_a_validated_one_and_stays_frozen():
    jobs = (4, 3, 9, 5, 12)
    ab = Antibody.trusted(jobs)
    assert ab == Antibody(jobs) and hash(ab) == hash(Antibody(jobs))
    assert ab.jobs is jobs
    with pytest.raises(dataclasses.FrozenInstanceError):
        ab.jobs = (1, 2, 3, 4, 5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del ab.jobs
    assert ab.jobs is jobs


def test_trusted_antibody_takes_no_more_memory_than_a_validated_one():
    """`trusted` sets its field the way the dataclass's own __init__ does,
    so its instances get no dict of their own that validated ones lack.
    Each count is the growth over 1000 instances, taken after batches
    that absorb the one-time allocations of both paths and of tracemalloc.
    Garbage collection is off meanwhile: a collection runs the gc callbacks
    (hypothesis registers one), whose allocations would count in whichever
    window the collection happened to fall."""
    jobs = (4, 3, 9, 5, 12)
    warm = [[make(jobs) for _ in range(1000)] for make in (Antibody.trusted, Antibody)]
    gc.disable()
    tracemalloc.start()
    try:
        warm.append([Antibody(jobs) for _ in range(1000)])
        before = tracemalloc.get_traced_memory()[0]
        trusted = [Antibody.trusted(jobs) for _ in range(1000)]
        middle = tracemalloc.get_traced_memory()[0]
        validated = [Antibody(jobs) for _ in range(1000)]
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert middle - before <= after - middle


@pytest.mark.parametrize("population_type", ["A", "B", "C"])
@pytest.mark.parametrize("rotated", [False, True])
def test_pool_holds_one_antibody_per_distinct_job_tuple(libraries, population_type, rotated):
    libs = build_libraries(rotated_universe()) if rotated else libraries
    pool = generate_pool(libs, population_type)
    assert len({id(ab) for ab in pool}) == len({ab.jobs for ab in pool})


@pytest.mark.parametrize("make", [Antibody.trusted, Antibody])
def test_antibody_has_no_instance_dict(make):
    ab = make((4, 3, 9, 5, 12))
    assert not hasattr(ab, "__dict__")


@settings(max_examples=40, deadline=None)
@given(st.lists(antigen_sequences, min_size=10, max_size=10))
def test_pools_of_drawn_universes_are_the_reference_pools(sequences):
    """A, B and C hold the reference candidates and their first
    occurrences by jobs and by (pair, jobs), by value and in order."""
    libs = build_libraries(AntigenUniverse(tuple(Antigen(seq) for seq in sequences)))
    reference = reference_pool(libs)
    expected = {
        "A": reference,
        "B": first_occurrences(reference, key=lambda c: c[1]),
        "C": first_occurrences(reference, key=lambda c: c),
    }
    for population_type, candidates in expected.items():
        pool = generate_pool(libs, population_type)
        assert [ab.jobs for ab in pool] == [jobs for _, jobs in candidates]
