import itertools
import random

import pytest

from immunesched import (
    JOB_COUNT,
    LIBRARY_COUNT,
    Antibody,
    Antigen,
    AntigenUniverse,
    Component,
    Provenance,
    build_libraries,
    combine_components,
    default_base_problem,
    generate_pool,
    generate_universe,
)


@pytest.fixture(scope="module")
def universe():
    return generate_universe(default_base_problem(), random.Random(11))


@pytest.fixture(scope="module")
def libset(universe):
    return build_libraries(universe)


def rotated_universe():
    """Ten cyclic rotations of the identity schedule.

    Rotation by three realigns the component grid, so the same
    six-job concatenations (and hence equal antibodies) arise from
    different library pairs.
    """
    ids = list(range(1, JOB_COUNT + 1))
    antigens = tuple(Antigen(tuple(ids[k:] + ids[:k])) for k in range(10))
    return AntigenUniverse(antigens)


def test_library_slices_known_antigen():
    sequence = (1, 2, 7, 4, 3, 9, 6, 8, 14, 5, 13, 12, 10, 11, 15)
    ids = list(range(1, JOB_COUNT + 1))
    others = [Antigen(tuple(ids[k:] + ids[:k])) for k in range(9)]
    universe = AntigenUniverse(tuple([Antigen(sequence)] + others))
    libs = build_libraries(universe)
    assert libs.libraries[0].components[0].jobs == (1, 2, 7)
    assert libs.libraries[1].components[0].jobs == (4, 3, 9)


def test_libraries_partition_every_antigen(universe, libset):
    for k, antigen in enumerate(universe.antigens):
        rebuilt = ()
        for lib in libset.libraries:
            rebuilt += lib.components[k].jobs
        assert rebuilt == antigen.sequence


def test_every_library_has_ten_components(libset):
    assert len(libset.libraries) == LIBRARY_COUNT
    for lib in libset.libraries:
        assert len(lib.components) == 10
        for k, comp in enumerate(lib.components):
            assert comp.source == (k, lib.index)


def test_combine_keeps_first_component_plus_two():
    c1 = Component((1, 2, 7), (0, 0))
    c2 = Component((6, 8, 9), (0, 1))
    sequences = [ab.jobs for ab in combine_components(c1, c2)]
    assert (1, 2, 7, 6, 8) in sequences


def test_combine_six_distinct_jobs_gives_six_candidates():
    c1 = Component((1, 2, 7), (0, 0))
    c2 = Component((6, 8, 9), (0, 1))
    candidates = combine_components(c1, c2)
    assert len(candidates) == 6
    assert len(set(ab.jobs for ab in candidates)) == 6


def test_combine_discards_duplicate_jobs():
    c1 = Component((1, 2, 3), (0, 0))
    c2 = Component((3, 4, 5), (0, 1))
    candidates = combine_components(c1, c2)
    assert len(candidates) == 2
    assert all(ab.jobs == (1, 2, 3, 4, 5) for ab in candidates)


def test_combine_requires_lower_library_first():
    c1 = Component((1, 2, 3), (0, 2))
    c2 = Component((4, 5, 6), (0, 1))
    with pytest.raises(ValueError):
        combine_components(c1, c2)


def test_combined_candidates_are_masked_subsequences(libset):
    lib0, lib1 = libset.libraries[0], libset.libraries[1]
    for c1, c2 in itertools.product(lib0.components, lib1.components):
        concat = c1.jobs + c2.jobs
        for ab in combine_components(c1, c2):
            kept = tuple(concat[k] for k, bit in enumerate(ab.provenance.mask) if bit == "1")
            assert ab.jobs == kept
            assert ab.provenance.libraries == (0, 1)
            assert ab.provenance.components == (c1.source[0], c2.source[0])


def test_pool_size_laws(libset):
    pool_a = generate_pool(libset, "A")
    pool_b = generate_pool(libset, "B")
    pool_c = generate_pool(libset, "C")
    assert len(pool_a) <= 6000
    assert len(pool_a) >= len(pool_c) >= len(pool_b)
    for ab in pool_a.antibodies:
        assert len(set(ab.jobs)) == 5


def test_pool_dedup_semantics(libset):
    all_abs = generate_pool(libset, "A").antibodies
    seen_global = set()
    expected_b = []
    for ab in all_abs:
        if ab.jobs not in seen_global:
            seen_global.add(ab.jobs)
            expected_b.append(ab)
    seen_per_pair = set()
    expected_c = []
    for ab in all_abs:
        key = (ab.provenance.libraries, ab.jobs)
        if key not in seen_per_pair:
            seen_per_pair.add(key)
            expected_c.append(ab)
    assert list(generate_pool(libset, "B").antibodies) == expected_b
    assert list(generate_pool(libset, "C").antibodies) == expected_c


def test_type_c_keeps_duplicates_across_library_pairs():
    libs = build_libraries(rotated_universe())
    pool_b = generate_pool(libs, "B")
    pool_c = generate_pool(libs, "C")
    assert len(pool_c) > len(pool_b)
    by_sequence = {}
    for ab in pool_c.antibodies:
        by_sequence.setdefault(ab.jobs, set()).add(ab.provenance.libraries)
    assert any(len(pairs) > 1 for pairs in by_sequence.values())


def test_pool_rejects_unknown_type(libset):
    with pytest.raises(ValueError):
        generate_pool(libset, "D")


def test_pool_enumeration_is_ordered(libset):
    pool = generate_pool(libset, "A")
    keys = [
        (ab.provenance.libraries, ab.provenance.components, ab.provenance.mask)
        for ab in pool.antibodies
    ]
    assert keys == sorted(keys, key=lambda k: (k[0], k[1]))


def test_antibody_and_provenance_validation():
    with pytest.raises(ValueError):
        Antibody((1, 2, 3, 4, 4))
    with pytest.raises(ValueError):
        Antibody((1, 2, 3, 4, 16))
    with pytest.raises(ValueError):
        Provenance((1, 1), (0, 0), "111110")
    with pytest.raises(ValueError):
        Provenance((0, 1), (0, 0), "111100")
