"""Property tests of the packed-offset match kernel, of the universe's
lane-packed column table, of the sample's lane masks and the bit-count lane
score they feed, of coverage over the universe's lanes, of the operators
whose output skips Antibody validation, of the draws the operators and the
refinement chain use in place of randrange and rng.sample, of the score
table that refinement chains share, of the chain's inline Metropolis
probability, of the great deluge's floor, and of the GD chains that
refine_population skips at strict peaks."""

import io
import itertools
import math
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import immunesched.evolution
from immunesched import (
    JOB_COUNT,
    OFFSET_COUNT,
    POSITION_SCORE,
    UNIVERSE_SIZE,
    Antibody,
    Antigen,
    AntigenSample,
    AntigenUniverse,
    GAConfig,
    GDConfig,
    NeighborOperator,
    Population,
    SAConfig,
    acceptance_probability,
    antibody_fitness,
    best_match,
    coverage,
    evolve,
    max_fitness,
    order_crossover,
    refine,
    refine_population,
)
from immunesched.evolution import _key_fitness, _mutant, draw_below
from immunesched.local_search import SCORE_TABLE_SIZE
from immunesched.matching import LANE_BITS, _best_counts, _lane_masks
from reference import (
    JOB_IDS,
    reference_chain,
    reference_evolve,
    reference_ascent,
    reference_mutation,
    reference_refine_population,
    sliding_counts,
)

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
# ("change", slot, index among the unused jobs) or ("swap", slot, slot).
moves = st.one_of(
    st.tuples(st.just("change"), st.integers(0, 4), st.integers(0, JOB_COUNT - 6)),
    st.tuples(st.just("swap"), st.integers(0, 4), st.integers(0, 4)).filter(
        lambda move: move[1] != move[2]
    ),
)


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


# Zero to six members drawn from up to six distinct antibodies, so repeats
# are common.
members_lists = st.lists(antibodies, min_size=1, max_size=6).flatmap(
    lambda distinct: st.lists(st.sampled_from(distinct), max_size=6)
)


@given(universes, members_lists, st.integers(-3, 9))
def test_coverage_agrees_with_sliding_window(universe, members, threshold):
    expected = sum(
        not any(max(sliding_counts(antigen, ab)) >= threshold for ab in members)
        for antigen in universe.antigens
    )
    assert coverage(Population(members), universe, threshold) == expected


@given(universes, samples, antibodies)
def test_fitness_agrees_with_sliding_window(universe, sample, antibody):
    expected = sum(
        POSITION_SCORE * max(sliding_counts(universe.antigens[i], antibody))
        for i in sample.indices
    )
    assert antibody_fitness(antibody, universe, sample) == expected


def reference_best_counts():
    """Every value one lane can hold, mapped to its largest field.

    A lane is the sum of five slot entries, each naming one offset's field
    or none, so the multisets of five from the 11 offsets and "none"
    enumerate them all: C(16, 5) = 4368 values. The largest field is read
    by shifting and masking each of the 11 fields.
    """
    table = {}
    for offsets in itertools.combinations_with_replacement(range(OFFSET_COUNT + 1), 5):
        lane = sum(1 << 4 * d for d in offsets if d < OFFSET_COUNT)
        table[lane] = max(lane >> 4 * d & 0xF for d in range(OFFSET_COUNT))
    return table


LANE_BEST = reference_best_counts()


def lanes(value, count):
    """The LANE_BITS-bit lanes of a lane-packed int, by shifting and masking."""
    return [value >> LANE_BITS * k & (1 << LANE_BITS) - 1 for k in range(count)]


def move_on_lanes(cols, jobs, move):
    """Apply `move` to the lane-packed sum of `jobs` the way the chain
    does; return the moved sum and the moved jobs."""
    packed = sum(cols[slot][job] for slot, job in enumerate(jobs))
    kind, i, x = move
    if kind == "change":
        old, new = jobs[i], [job for job in JOB_IDS if job not in jobs][x]
        return packed - cols[i][old] + cols[i][new], jobs[:i] + (new,) + jobs[i + 1 :]
    a, b = jobs[i], jobs[x]
    moved = list(jobs)
    moved[i], moved[x] = b, a
    return packed - cols[i][a] - cols[x][b] + cols[i][b] + cols[x][a], tuple(moved)


def assert_lanes_score_the_move(universe, sample, antibody, move):
    packed, jobs = move_on_lanes(universe.columns, antibody.jobs, move)
    moved = Antibody(jobs)
    packed_lanes = lanes(packed, UNIVERSE_SIZE + 1)
    assert packed_lanes == [
        sum(n << 4 * d for d, n in enumerate(sliding_counts(antigen, moved)))
        for antigen in universe.antigens
    ] + [0]
    fitness = antibody_fitness(moved, universe, sample)
    assert POSITION_SCORE * sum(LANE_BEST[packed_lanes[i]] for i in sample.indices) == fitness
    assert POSITION_SCORE * _best_counts(packed, sample.masks) == fitness  # the chain's own score


@given(universes, samples, antibodies, moves)
def test_lane_packed_move_scores_like_antibody_fitness(universe, sample, antibody, move):
    """Lane k of the moved sum is antigen k's packed counts for the moved
    antibody, nothing spills past the tenth lane, and the sample's masks
    score its own lanes."""
    assert_lanes_score_the_move(universe, sample, antibody, move)


@pytest.mark.parametrize("move", [("change", 0, 0), ("change", 4, 9), ("swap", 0, 4)])
def test_lanes_at_their_largest_field_neither_carry_nor_borrow(move):
    """All ten lanes start with a field at 5, the most a field can hold:
    every antigen begins with the antibody's five jobs."""
    rng = random.Random(10)
    head = (3, 14, 7, 1, 10)
    tail = [job for job in JOB_IDS if job not in head]
    universe = AntigenUniverse(
        tuple(Antigen(head + tuple(rng.sample(tail, len(tail)))) for _ in range(UNIVERSE_SIZE))
    )
    sample = AntigenSample(tuple(range(UNIVERSE_SIZE)))
    antibody = Antibody(head)
    assert antibody_fitness(antibody, universe, sample) == max_fitness(UNIVERSE_SIZE)
    assert_lanes_score_the_move(universe, sample, antibody, move)


def test_lane_score_is_best_count_for_every_key():
    """Every packed value a lane can hold: the 4,368 keys of LANE_BEST."""
    masks = _lane_masks((0,))
    assert len(LANE_BEST) == 4368
    assert all(_best_counts(key, masks) == best for key, best in LANE_BEST.items())


KEYS = sorted(LANE_BEST)
FULL_LANE = 5 << 4 * (OFFSET_COUNT - 1)  # all five slots at the last offset


@example([FULL_LANE] * UNIVERSE_SIZE)
@given(st.lists(st.sampled_from(KEYS), min_size=1, max_size=UNIVERSE_SIZE))
def test_lane_score_sums_best_count_over_the_lanes(keys):
    """Any keys in every lane of 1 to 10, the top lane included: no lane's
    added constants carry into its neighbour."""
    packed = sum(key << LANE_BITS * k for k, key in enumerate(keys))
    assert _best_counts(packed, _lane_masks(tuple(range(len(keys))))) == sum(
        LANE_BEST[key] for key in keys
    )


@example([FULL_LANE] * UNIVERSE_SIZE, [0])
@given(
    st.lists(st.sampled_from(KEYS[1:]), min_size=UNIVERSE_SIZE, max_size=UNIVERSE_SIZE),
    st.lists(
        st.integers(0, UNIVERSE_SIZE - 1), min_size=1, max_size=UNIVERSE_SIZE - 1, unique=True
    ),
)
def test_only_the_sampled_lanes_score(keys, indices):
    """Non-zero keys in all ten lanes: the sample's masks score its own
    lanes, and every unsampled lane, each of which has a best count of at
    least 1, adds nothing."""
    packed = sum(key << LANE_BITS * k for k, key in enumerate(keys))
    sample = AntigenSample(tuple(indices))
    assert _best_counts(packed, sample.masks) == sum(LANE_BEST[keys[i]] for i in indices)


class OneHitRng:
    """Stub generator: mutates only position `posn`, with replacement draw `n`."""

    def __init__(self, posn, n):
        self.randoms = [0.0 if i == posn else 0.99 for i in range(5)]
        self.n = n

    def random(self):
        return self.randoms.pop(0)

    def randrange(self, stop):
        assert 0 <= self.n < stop
        return self.n


@given(
    st.lists(st.integers(1, JOB_COUNT), min_size=5, max_size=5, unique=True),
    st.integers(0, 4),
    st.integers(0, 9),
)
def test_reference_mutation_replacement_indexes_the_complement(jobs, posn, n):
    """Draw n replaces the hit position by the n-th smallest unused job.
    test_evolve_mutation_draws_match_the_reference carries this to evolve."""
    jobs = tuple(jobs)
    complement = [job for job in JOB_IDS if job not in jobs]
    out = reference_mutation(jobs, 0.5, OneHitRng(posn, n))
    assert out[posn] == complement[n]
    assert out[:posn] + out[posn + 1 :] == jobs[:posn] + jobs[posn + 1 :]


class KeyRng:
    """Stub generator that replays a mutation key's draws: position p hits
    when its 4-bit field holds n + 1, and then draws n."""

    def __init__(self, key):
        fields = [key >> 4 * p & 15 for p in range(5)]
        self.randoms = [0.0 if field else 0.99 for field in fields]
        self.draws = [field - 1 for field in fields if field]

    def random(self):
        return self.randoms.pop(0)

    def randrange(self, stop):
        n = self.draws.pop(0)
        assert 0 <= n < stop
        return n


mutation_keys = st.lists(st.integers(0, 10), min_size=5, max_size=5).map(
    lambda fields: sum(field << 4 * p for p, field in enumerate(fields))
)
ROTATED_UNIVERSE = AntigenUniverse(
    tuple(Antigen(tuple(JOB_IDS[k:]) + tuple(JOB_IDS[:k])) for k in range(UNIVERSE_SIZE))
)


@example(ROTATED_UNIVERSE, AntigenSample((0, 1, 2)), Antibody((1, 2, 3, 4, 5)), 0x11)
@example(ROTATED_UNIVERSE, AntigenSample((0, 5)), Antibody((1, 2, 3, 4, 5)), 0x11111)
@example(ROTATED_UNIVERSE, AntigenSample((0,)), Antibody((6, 2, 3, 4, 5)), 0xAAAA1)
@example(ROTATED_UNIVERSE, AntigenSample((1, 9)), Antibody((15, 14, 13, 12, 11)), 0xAAAAA)
@given(universes, samples, antibodies, mutation_keys)
def test_key_fitness_scores_the_child_that_the_key_builds(universe, sample, antibody, key):
    """A one-tuple generation scores a key on X's lanes, with X's ascending
    unused jobs: that must be the fitness of the child `_mutant` builds from
    the key, and the child must be the one the plain mutation builds from
    the key's draws. Keys range over every field value, so they include keys
    that hit all five positions and later hits that take a job an earlier
    hit freed (0x11 on (1, 2, 3, 4, 5) puts job 6 at position 0 and job 1,
    freed, at position 1)."""
    jobs = antibody.jobs
    free = tuple(job for job in JOB_IDS if job not in jobs)
    lanes = sum(column[job] for column, job in zip(universe.columns, jobs))
    child = _mutant(jobs, key, {})
    rng = KeyRng(key)
    assert child == reference_mutation(jobs, 0.5, rng)
    assert rng.randoms == rng.draws == []
    fitness = _key_fitness(jobs, free, lanes, key, universe, sample)
    assert fitness == antibody_fitness(Antibody(child), universe, sample)


@settings(max_examples=60)
@given(
    universes,
    samples,
    st.lists(antibodies, min_size=1, max_size=8),
    st.sampled_from([0.0, 0.7, 1.0]),
    st.integers(0, 4),
    seeds,
)
def test_evolve_mutation_draws_match_the_reference(
    universe, sample, members, crossover, generations, seed
):
    """evolve draws each unused-job index inline. At mutation rate 1 every
    slot of every child draws one, so the draws' values show in the final
    members: they must be the reference loop's, whose indices come from
    randrange, and both generators must end in the same state unless the
    stop at the fixed point cut evolve short."""
    cfg = GAConfig(
        generations=generations,
        crossover_rate=crossover,
        mutation_rate=1.0,
        population_size=len(members),
    )
    pop = Population(members).evaluate(universe, sample)
    rng, reference = random.Random(seed), random.Random(seed)
    final = evolve(pop, universe, sample, cfg, rng)
    jobs, fitnesses, _, frozen_at = reference_evolve(pop, universe, sample, cfg, reference)
    assert [ab.jobs for ab in final.antibodies] == jobs
    assert final.fitnesses == fitnesses
    stopped_early = frozen_at is not None and frozen_at < generations
    assert (rng.getstate() == reference.getstate()) != stopped_early


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


# Every example that refines reuses these two tables, zeroed: hypothesis
# keeps the exception of each failing example it caches, and with it every
# frame's locals, so a table made per example could pile up a megabyte per
# failure.
SHARED_TABLE, FRESH_TABLE = bytearray(SCORE_TABLE_SIZE), bytearray(SCORE_TABLE_SIZE)


@settings(max_examples=40)
@given(universes, samples, antibodies, st.sampled_from(list(NeighborOperator)), seeds)
def test_chain_draws_match_randrange_and_sample(universe, sample, antibody, op, seed):
    """The chain draws its moves inline. Both operators must give the values
    randrange and rng.sample would, and leave the generator where they
    would: refine returns the reference chain's antibody, and the two
    generators end in the same state."""
    SHARED_TABLE[:] = bytes(SCORE_TABLE_SIZE)
    for cfg in (SAConfig(operator=op), GDConfig(operator=op, stagnation_limit=None)):
        rng, reference = random.Random(seed), random.Random(seed)
        expected = reference_chain(antibody, universe, sample, cfg, reference)
        assert refine(antibody, universe, sample, cfg, rng, scores=SHARED_TABLE) == expected
        assert rng.getstate() == reference.getstate()


def decode(code):
    """The antibody whose code is `code`: 4 bits per slot, slot 0 lowest."""
    return Antibody(tuple(code >> 4 * slot & 0xF for slot in range(5)))


# (index of the start among the drawn starts, method, operator, seed, traced)
chains = st.tuples(
    st.integers(0, 2),
    st.sampled_from([SAConfig, GDConfig]),
    st.sampled_from(list(NeighborOperator)),
    seeds,
    st.booleans(),
)


@settings(max_examples=40)
@given(
    universes,
    samples,
    st.lists(antibodies, min_size=1, max_size=3),
    st.lists(chains, min_size=1, max_size=6),
)
def test_chains_sharing_a_score_table_run_as_with_a_fresh_one(universe, sample, starts, runs):
    """Several chains of one (universe, sample), some from the same start,
    share one score table. Each must return what it returns with a table of
    its own, write the same trace and leave its generator in the same
    state; and every entry they stored must be the decoded antibody's
    fitness + 1."""
    table, fresh = SHARED_TABLE, FRESH_TABLE
    table[:] = bytes(SCORE_TABLE_SIZE)
    for index, method, op, seed, traced in runs:
        start, cfg = starts[index % len(starts)], method(operator=op)
        shared_rng, fresh_rng = random.Random(seed), random.Random(seed)
        shared_trace, fresh_trace = (io.StringIO(), io.StringIO()) if traced else (None, None)
        fresh[:] = bytes(SCORE_TABLE_SIZE)
        shared = refine(start, universe, sample, cfg, shared_rng, shared_trace, scores=table)
        expected = refine(start, universe, sample, cfg, fresh_rng, fresh_trace, scores=fresh)
        assert shared == expected
        assert shared_rng.getstate() == fresh_rng.getstate()
        if traced:
            assert shared_trace.getvalue() == fresh_trace.getvalue()
    for code in itertools.compress(range(SCORE_TABLE_SIZE), table):
        entry, antibody = table[code], decode(code)
        assert entry == antibody_fitness(antibody, universe, sample) + 1


@given(st.integers(0, 250), st.integers(1, 250))
def test_inline_metropolis_probability_is_acceptance_probability(fit, delta):
    """refine computes a worse candidate's acceptance probability inline,
    as exp((fit - current) / T). It must equal acceptance_probability's
    value at every temperature of the default schedule."""
    current = fit + delta
    for temperature in SAConfig().temperatures:
        inline = math.exp((fit - current) / temperature)
        assert inline == acceptance_probability(current - fit, temperature)


@given(
    universes,
    samples,
    antibodies,
    st.sampled_from(list(NeighborOperator)),
    st.sampled_from([30, None]),
    seeds,
)
def test_gd_never_falls_below_its_start(universe, sample, antibody, op, limit, seed):
    """The boundary starts at the start fitness and only rises, so no
    accepted move takes the current fitness below the start's."""
    trace = io.StringIO()
    cfg = GDConfig(stagnation_limit=limit, operator=op)
    SHARED_TABLE[:] = bytes(SCORE_TABLE_SIZE)
    refine(antibody, universe, sample, cfg, random.Random(seed), trace, scores=SHARED_TABLE)
    start = antibody_fitness(antibody, universe, sample)
    rows = trace.getvalue().splitlines()[1:]
    assert rows
    assert all(int(row.split(",")[2]) >= start for row in rows)


@settings(max_examples=60)
@given(
    universes,
    samples,
    st.lists(antibodies, min_size=1, max_size=4),
    st.sampled_from(list(NeighborOperator)),
    st.integers(1, 150),
    st.one_of(st.none(), st.integers(1, 40)),
    seeds,
)
def test_gd_population_skipping_peaks_matches_the_reference(
    universe, sample, starts, op, iterations, limit, seed
):
    """Under GD, refine_population skips the chain of a start that every
    neighbour scores below. Its members, fitnesses and caller's generator
    must equal the reference's, which runs every chain, on populations
    that mix each drawn start with the end of steepest ascent from it, a
    strict peak or a plateau, twice."""
    cfg = GDConfig(iterations=iterations, stagnation_limit=limit, operator=op)
    members = []
    for ab in starts:
        top = reference_ascent(ab, universe, sample, op)
        members += [ab, top, top]
    pop = Population(members).evaluate(universe, sample)
    rng, reference = random.Random(seed), random.Random(seed)
    refined = refine_population(pop, universe, sample, cfg, rng)
    expected = reference_refine_population(pop, universe, sample, cfg, reference)
    assert (refined.antibodies, refined.fitnesses) == expected
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
    cfg, rng = method(operator=op), random.Random(seed)
    SHARED_TABLE[:] = bytes(SCORE_TABLE_SIZE)
    out = refine(antibody, universe, sample, cfg, rng, trace, scores=SHARED_TABLE)
    assert_valid(out)
    best_fitness = int(trace.getvalue().splitlines()[-1].split(",")[3])
    assert antibody_fitness(out, universe, sample) == best_fitness


@settings(max_examples=60)
@given(st.lists(antibodies, min_size=1, max_size=8), st.floats(0.0, 1.0), seeds)
def test_evolve_scores_only_valid_children(members, rate, seed):
    """Children skip Antibody validation. Without crossover each scored
    child is a mutated member, and each must pass that validation."""
    universe = AntigenUniverse(tuple(Antigen(tuple(JOB_IDS)) for _ in range(UNIVERSE_SIZE)))
    sample = AntigenSample((0,))
    cfg = GAConfig(
        generations=3, crossover_rate=0.0, mutation_rate=rate, population_size=len(members)
    )
    pop = Population(members).evaluate(universe, sample)

    def checked(ab, universe, sample):
        assert_valid(ab)
        return antibody_fitness(ab, universe, sample)

    with mock.patch.object(immunesched.evolution, "antibody_fitness", checked):
        evolve(pop, universe, sample, cfg, random.Random(seed))


@settings(max_examples=200)
@given(antibodies, antibodies)
def test_crossover_output_is_valid(p1, p2):
    for child in order_crossover(p1.jobs, p2.jobs):
        assert_valid(Antibody.trusted(child))
