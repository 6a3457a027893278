import io
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import immunesched.evolution
import reference
from immunesched import (
    Antibody,
    Antigen,
    AntigenSample,
    AntigenUniverse,
    GAConfig,
    Population,
    antibody_fitness,
    build_libraries,
    default_base_problem,
    evolve,
    generate_pool,
    generate_universe,
    load_population,
    max_fitness,
    order_crossover,
    sample_initial,
)
from immunesched.evolution import _mutant, _tournament, draw_below
from reference import reference_evolve, reference_mutation


class ScriptedRng:
    """Stub feeding predetermined values to random() and to the operators'
    randrange draws. A draw takes random bits until they fall below its
    range, so each scripted `randranges` value is returned by getrandbits
    and must already lie in that range."""

    def __init__(self, randoms=(), randranges=()):
        self.randoms = list(randoms)
        self.randranges = list(randranges)

    def random(self):
        return self.randoms.pop(0)

    def getrandbits(self, k):
        return self.randranges.pop(0)


@pytest.fixture(scope="module")
def setup():
    universe = generate_universe(default_base_problem(), random.Random(3))
    pool = generate_pool(build_libraries(universe), "A")
    sample = AntigenSample.draw(1, random.Random("s"))
    return universe, pool, sample


def evaluated_population(fitnesses):
    """A population whose cached fitnesses are forced to the given values."""
    rng = random.Random(0)
    pop = Population([Antibody(tuple(rng.sample(range(1, 16), 5))) for _ in fitnesses])
    pop.fitnesses = list(fitnesses)
    return pop


def test_population_evaluate_caches_fitness(setup):
    universe, pool, sample = setup
    pop = sample_initial(pool, 20, random.Random(1)).evaluate(universe, sample)
    for ab, fit in zip(pop.antibodies, pop.fitnesses):
        assert fit == antibody_fitness(ab, universe, sample)


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 2 3 4 5\n# next\n1 2 x 4 5\n",
         "line 3: invalid literal for int() with base 10: 'x'"),
        ("1 2 3 4 5\n1 2 3 4 2\n",
         "line 2: antibody needs 5 distinct jobs, got (1, 2, 3, 4, 2)"),
        ("# no antibodies\n\n", "line 3: expected at least 1 antibody, found 0"),
    ],
    ids=("non-integer", "duplicate-job", "comments-only"),
)
def test_load_population_errors_name_the_file_and_line(tmp_path, text, message):
    path = tmp_path / "p.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        load_population(path)
    assert str(err.value) == f"{path}: {message}"


def test_sample_initial_whole_pool_is_permutation(setup):
    _, pool, _ = setup
    pop = sample_initial(pool, len(pool), random.Random(4))
    assert sorted(ab.jobs for ab in pop.antibodies) == sorted(
        ab.jobs for ab in pool
    )


def test_sample_initial_draws_distinct_members(setup):
    """Distinct pool positions, without replacement. Equal pool entries are
    one object, so identity cannot stand for a position: the members are
    those of 100 distinct indices, and no job tuple occurs more often in
    the population than in the pool."""
    _, pool, _ = setup
    pop = sample_initial(pool, 100, random.Random(4))
    assert pop.size == 100
    indices = random.Random(4).sample(range(len(pool)), 100)
    assert list(pop.antibodies) == [pool[i] for i in indices]
    in_pool = Counter(ab.jobs for ab in pool)
    in_pop = Counter(ab.jobs for ab in pop.antibodies)
    assert all(count <= in_pool[jobs] for jobs, count in in_pop.items())


def test_sample_initial_deterministic(setup):
    _, pool, _ = setup
    a = sample_initial(pool, 100, random.Random(9))
    b = sample_initial(pool, 100, random.Random(9))
    assert a.antibodies == b.antibodies


def test_sample_initial_rejects_oversized_request(setup):
    _, pool, _ = setup
    message = f"^pool holds {len(pool)} antibodies, cannot sample {len(pool) + 1}$"
    with pytest.raises(ValueError, match=message):
        sample_initial(pool, len(pool) + 1, random.Random(0))


@pytest.mark.parametrize("pool_size, size", [(1, 1), (5, 3), (60, 20), (600, 100), (None, 100)])
@pytest.mark.parametrize("seed", [0, 7, 2**40])
def test_sample_initial_picks_the_members_that_index_sampling_picks(setup, pool_size, size, seed):
    """The same members, in the same order, as drawing `size` indices into
    the pool, and the generator left in the same state."""
    pool = setup[1][:pool_size]
    rng, reference = random.Random(seed), random.Random(seed)
    pop = sample_initial(pool, size, rng)
    assert pop.antibodies == [pool[i] for i in reference.sample(range(len(pool)), size)]
    assert rng.getstate() == reference.getstate()


def test_tournament_returns_the_fitter_of_two_draws():
    """The fitter index wins whether it is drawn first or second, and a
    tournament takes exactly two draws: the stub runs dry on a third."""
    f = evaluated_population([5, 40, 15, 20]).fitnesses
    for draws in ([1, 2], [2, 1]):
        rng = ScriptedRng(randranges=draws)
        assert _tournament(draw_below(len(f), rng))(f) == 1
        assert rng.randranges == []


def test_tournament_tie_breaks_to_lowest_index():
    f = evaluated_population([7, 7, 7]).fitnesses
    for draws in ([2, 1], [1, 2]):
        assert _tournament(draw_below(len(f), ScriptedRng(randranges=draws)))(f) == 1


def test_draws_over_an_empty_range_are_rejected():
    for n in (0, -3):
        with pytest.raises(ValueError, match="empty"):
            draw_below(n, random.Random(0))


def test_tournament_prefers_fitter_over_many_draws():
    pop = evaluated_population([1, 50, 10, 10])
    rng = random.Random(123)
    select = _tournament(draw_below(len(pop.fitnesses), rng))
    counts = [0, 0, 0, 0]
    for _ in range(10000):
        counts[select(pop.fitnesses)] += 1
    assert counts[1] > counts[0]


def test_crossover_identical_parents_returns_parents():
    p = (4, 3, 9, 5, 12)
    c1, c2 = order_crossover(p, p)
    assert c1 == p and c2 == p


def test_crossover_disjoint_parents_returns_parents():
    p1 = (1, 2, 3, 4, 5)
    p2 = (6, 7, 8, 9, 10)
    c1, c2 = order_crossover(p1, p2)
    assert c1 == p1 and c2 == p2


def test_crossover_hand_traced_reorder():
    c1, c2 = order_crossover((1, 2, 3, 4, 5), (9, 8, 3, 2, 10))
    assert c1 == (1, 3, 2, 4, 5)
    assert c2 == (9, 8, 2, 3, 10)


def test_crossover_preserves_job_sets_and_shared_order():
    rng = random.Random(404)
    for _ in range(1000):
        p1 = tuple(rng.sample(range(1, 16), 5))
        p2 = tuple(rng.sample(range(1, 16), 5))
        c1, c2 = order_crossover(p1, p2)
        assert set(c1) == set(p1)
        assert set(c2) == set(p2)
        shared = set(p1) & set(p2)
        assert [j for j in c1 if j in shared] == [j for j in p2 if j in shared]
        assert [j for j in c2 if j in shared] == [j for j in p1 if j in shared]


def key_scored(monkeypatch):
    """The one-tuple children that `evolve` scores from their keys, in
    order, each built here from the tuple and the key by `_mutant`."""
    keyed = []
    key_fitness = immunesched.evolution._key_fitness

    def counted(jobs, free, lanes, key, universe, sample):
        keyed.append(_mutant(jobs, key, {}))
        return key_fitness(jobs, free, lanes, key, universe, sample)

    monkeypatch.setattr(immunesched.evolution, "_key_fitness", counted)
    return keyed


def scored_children(universe, sample, members, cfg, rng, monkeypatch):
    """The job tuples `evolve` scores, in order: through the module seam, or,
    for a population of one tuple, from their keys; and the final population."""
    scored = key_scored(monkeypatch)

    def counted(ab, universe, sample):
        scored.append(ab.jobs)
        return antibody_fitness(ab, universe, sample)

    pop = Population(members).evaluate(universe, sample)
    monkeypatch.setattr(immunesched.evolution, "antibody_fitness", counted)
    final = evolve(pop, universe, sample, cfg, rng)
    return scored, final


def test_evolve_at_mutation_rate_zero_scores_no_child(setup, monkeypatch):
    """Without crossover or mutation every child is its parent's own tuple:
    none is scored, and every final member is an initial tuple itself."""
    universe, pool, sample = setup
    members = list(sample_initial(pool, 30, random.Random(4)).antibodies)
    cfg = GAConfig(generations=20, crossover_rate=0.0, mutation_rate=0.0, population_size=30)
    scored, final = scored_children(universe, sample, members, cfg, random.Random(0), monkeypatch)
    assert scored == []
    initial = [ab.jobs for ab in members]
    assert all(any(ab.jobs is jobs for jobs in initial) for ab in final.antibodies)


def test_evolve_at_mutation_rate_one_scores_children_new_in_every_slot(setup, monkeypatch):
    """A population of one tuple X, one generation, no crossover: every
    child is X with every position replaced, so each child scored from its
    key differs from both its parents, X and X, in every slot and holds
    five distinct in-range jobs."""
    universe, pool, sample = setup
    x = (4, 3, 9, 5, 12)
    assert antibody_fitness(Antibody(x), universe, sample) < max_fitness(sample.size)
    cfg = GAConfig(generations=1, crossover_rate=0.0, mutation_rate=1.0, population_size=100)
    children = set()
    for seed in range(10):
        rng = random.Random(seed)
        scored, _ = scored_children(universe, sample, [Antibody(x)] * 100, cfg, rng, monkeypatch)
        assert scored
        for out in scored:
            assert len(set(out)) == 5
            assert all(1 <= j <= 15 for j in out)
            assert all(out[i] != x[i] for i in range(5))
        children.update(scored)
    assert len(children) > 100


def test_evolve_mutates_a_single_position_without_duplicating(setup, monkeypatch):
    """One family of two copies of X: the two tournaments' four member
    draws, the crossover draw, then child one's five mutation draws, of
    which only position 2 hits, with unused-job draw 0, and child two's
    five, none of which hits. Draw 0 picks the smallest job X leaves out,
    from (1, 2, 6, 7, 8, 10, 11, 13, 14, 15), so the one child scored, from
    its key, is X with job 1 at position 2. The stub runs dry on any
    further draw."""
    universe, _, sample = setup
    x = (4, 3, 9, 5, 12)
    rng = ScriptedRng(
        randoms=[0.9, 0.9, 0.9, 0.0, 0.9, 0.9, *[0.9] * 5], randranges=[0, 0, 0, 0, 0]
    )
    cfg = GAConfig(generations=1, mutation_rate=0.5, population_size=2)
    scored, _ = scored_children(universe, sample, [Antibody(x)] * 2, cfg, rng, monkeypatch)
    assert scored == [(4, 3, 1, 5, 12)]
    assert rng.randoms == rng.randranges == []


def test_evolve_zero_generations_returns_population_unchanged(setup):
    universe, pool, sample = setup
    pop = sample_initial(pool, 30, random.Random(2)).evaluate(universe, sample)
    result = evolve(pop, universe, sample, GAConfig(generations=0), random.Random(1))
    assert result.antibodies == pop.antibodies
    assert result.fitnesses == pop.fitnesses


def test_evolve_requires_evaluated_population(setup):
    universe, pool, sample = setup
    pop = sample_initial(pool, 10, random.Random(2))
    with pytest.raises(ValueError, match="evaluated"):
        evolve(pop, universe, sample, GAConfig(generations=1), random.Random(1))


def test_evolve_best_fitness_never_decreases(setup):
    universe, pool, sample = setup
    for seed in range(3):
        pop = sample_initial(pool, 30, random.Random(seed)).evaluate(universe, sample)
        stream = io.StringIO()
        evolve(
            pop,
            universe,
            sample,
            GAConfig(generations=40),
            random.Random(seed),
            stats_stream=stream,
        )
        rows = stream.getvalue().splitlines()
        assert rows[0] == "generation,best,mean,worst"
        best_column = [int(r.split(",")[1]) for r in rows[1:]]
        assert len(best_column) == 41
        assert all(b <= a for b, a in zip(best_column, best_column[1:]))


def test_evolve_reaches_prefix_optimum(setup):
    universe, pool, sample = setup
    # The pool always contains the sampled antigen's five-job prefix (the
    # combination of its first two components), so 25 is reachable.
    prefix = universe.antigens[sample.indices[0]].sequence[:5]
    assert any(ab.jobs == prefix for ab in pool)
    pop = sample_initial(pool, 100, random.Random(0)).evaluate(universe, sample)
    final = evolve(pop, universe, sample, GAConfig(generations=250), random.Random(0))
    assert final.best_fitness == 25


def test_evolve_deterministic_for_equal_seeds(setup):
    universe, pool, sample = setup
    results = []
    for _ in range(2):
        pop = sample_initial(pool, 20, random.Random(5)).evaluate(universe, sample)
        final = evolve(pop, universe, sample, GAConfig(generations=25), random.Random(7))
        results.append((final.antibodies, final.fitnesses))
    assert results[0] == results[1]


def test_evolve_scores_each_new_job_tuple_once_through_the_module_seam(setup, monkeypatch):
    """Children are scored through a memo seeded with the initial
    population, and a miss calls the module-level antibody_fitness, where
    the benchmark's counting wrapper looks it up."""
    universe, pool, sample = setup
    pop = sample_initial(pool, 100, random.Random(0)).evaluate(universe, sample)
    scored = []

    def counted(ab, universe, sample):
        scored.append(ab.jobs)
        return antibody_fitness(ab, universe, sample)

    monkeypatch.setattr(immunesched.evolution, "antibody_fitness", counted)
    evolve(pop, universe, sample, GAConfig(generations=30), random.Random(0))
    assert len(scored) > 0
    assert len(scored) == len(set(scored))
    assert not set(scored) & {ab.jobs for ab in pop.antibodies}


def test_evolve_population_size_constant(setup):
    universe, pool, sample = setup
    pop = sample_initial(pool, 25, random.Random(1)).evaluate(universe, sample)
    final = evolve(pop, universe, sample, GAConfig(generations=10), random.Random(1))
    assert final.size == 25
    for ab, fit in zip(final.antibodies, final.fitnesses):
        assert fit == antibody_fitness(ab, universe, sample)


def test_ga_config_validation():
    with pytest.raises(ValueError):
        GAConfig(crossover_rate=1.5)
    with pytest.raises(ValueError):
        GAConfig(mutation_rate=-0.1)
    with pytest.raises(ValueError):
        GAConfig(generations=-1)
    with pytest.raises(ValueError):
        GAConfig(population_size=0)


@pytest.mark.parametrize("field", ["generations", "population_size"])
@pytest.mark.parametrize("value", [2.5, 3.0, "3", True, None])
def test_ga_config_rejects_non_integer_counts(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer$"):
        GAConfig(**{field: value})


job_tuples = st.lists(st.integers(1, 15), min_size=5, max_size=5, unique=True).map(tuple)
rates = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.permutations(range(1, 16)), min_size=10, max_size=10),
    st.lists(st.integers(0, 9), min_size=1, max_size=10, unique=True),
    st.lists(job_tuples, min_size=1, max_size=12),
    rates,
    rates,
    st.integers(0, 15),
    st.integers(0, 2**32),
    st.one_of(st.just(0), st.integers(1, 12)),
)
def test_evolve_matches_the_reference_loop(
    sequences, indices, members, crossover, mutation, generations, seed, planted
):
    """Same members, fitnesses and statistics as the loop written out without
    the unused-job memo, the top-two admission and the stop at the fixed
    point; the same generator state too, unless that stop cut the run short.

    A `planted` example starts every sampled antigen with the first one's
    five-job prefix and makes the first `planted` members that prefix, so
    the maximum fitness is reachable and the fixed point can occur."""
    if planted:
        prefix = tuple(sequences[indices[0]][:5])
        for k in indices:
            sequences[k] = [*prefix, *(j for j in sequences[k] if j not in prefix)]
        members = [prefix] * min(planted, len(members)) + members[planted:]
    universe = AntigenUniverse(tuple(Antigen(tuple(seq)) for seq in sequences))
    sample = AntigenSample(tuple(indices))
    cfg = GAConfig(
        generations=generations,
        crossover_rate=crossover,
        mutation_rate=mutation,
        population_size=len(members),
    )
    pop = Population([Antibody(jobs) for jobs in members]).evaluate(universe, sample)
    assert_evolves_like_the_reference(pop, universe, sample, cfg, seed)


def assert_evolves_like_the_reference(pop, universe, sample, cfg, seed):
    """`evolve` and the reference loop, from generators of equal seed, give
    the same members, fitnesses and statistics, and leave the generators in
    the same state unless the stop at the fixed point cut the run short.
    Returns the generation after which the reference reached that point."""
    rng, reference_rng = random.Random(seed), random.Random(seed)
    stream = io.StringIO()
    final = evolve(pop, universe, sample, cfg, rng, stats_stream=stream)
    jobs, fitnesses, stats, frozen_at = reference_evolve(
        pop, universe, sample, cfg, reference_rng
    )
    assert [ab.jobs for ab in final.antibodies] == jobs
    assert final.fitnesses == fitnesses
    assert stream.getvalue() == stats
    stopped_early = frozen_at is not None and frozen_at < cfg.generations
    assert (rng.getstate() == reference_rng.getstate()) != stopped_early
    return frozen_at


shortcut_configs = pytest.mark.parametrize(
    "size, crossover", [(size, crossover) for size in (7, 8) for crossover in (0.0, 0.7, 1.0)]
)


@shortcut_configs
def test_one_tuple_generations_match_the_reference(setup, size, crossover):
    """A population of one job tuple below the maximum: the first generation
    takes the one-tuple shortcut, and later ones take it whenever the
    population collapses back to one tuple."""
    universe, pool, sample = setup
    x = next(ab for ab in pool if antibody_fitness(ab, universe, sample) < 20)
    pop = Population([x] * size).evaluate(universe, sample)
    cfg = GAConfig(generations=20, crossover_rate=crossover, population_size=size)
    assert_evolves_like_the_reference(pop, universe, sample, cfg, seed=size * 2)


@shortcut_configs
@pytest.mark.parametrize("generations", [3, 30])
def test_all_at_maximum_generations_match_the_reference(setup, size, crossover, generations):
    """Distinct members all at the maximum fitness: the sampled antigen's
    five-job windows, each aligned with it at its own offset. Every
    generation takes the all-at-maximum shortcut until the population is
    one tuple, where the loop stops; three generations are too few for
    that, so the generator states are compared."""
    universe, _, sample = setup
    sequence = universe.antigens[sample.indices[0]].sequence
    windows = [Antibody(sequence[d : d + 5]) for d in range(size)]
    pop = Population(windows).evaluate(universe, sample)
    assert pop.fitnesses == [max_fitness(sample.size)] * size
    cfg = GAConfig(generations=generations, crossover_rate=crossover, population_size=size)
    frozen_at = assert_evolves_like_the_reference(pop, universe, sample, cfg, seed=size)
    if generations == 3:
        assert frozen_at is None


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.permutations(range(1, 16)), min_size=10, max_size=10),
    st.lists(st.integers(0, 9), min_size=1, max_size=10, unique=True),
    job_tuples,
    st.integers(1, 12),
    rates,
    st.integers(1, 25),
    st.integers(0, 2**32),
)
def test_one_tuple_populations_match_the_reference_loop(
    sequences, indices, x, size, crossover, generations, seed
):
    """Every member starts as one tuple X below the maximum, so the first
    generation already looks its children up in X's key table. A child that
    beats X, in any family, ends the one-tuple state; a later collapse to
    another tuple must start a table of its own. Members, fitnesses,
    statistics and generator state must be the plain loop's."""
    universe = AntigenUniverse(tuple(Antigen(tuple(seq)) for seq in sequences))
    sample = AntigenSample(tuple(indices))
    pop = Population([Antibody(x)] * size).evaluate(universe, sample)
    assume(pop.fitnesses[0] < max_fitness(sample.size))
    cfg = GAConfig(
        generations=generations, crossover_rate=crossover, mutation_rate=0.2, population_size=size
    )
    assert_evolves_like_the_reference(pop, universe, sample, cfg, seed)


def counted_builds(monkeypatch):
    """The (tuple, child) of every `_mutant` call, the job tuples scored
    through the module seam and the children scored from their keys (see
    `key_scored`), in order, as `evolve` makes them."""
    builds, scored = [], []
    keyed = key_scored(monkeypatch)

    def counted_mutant(jobs, key, unused):
        child = _mutant(jobs, key, unused)
        builds.append((jobs, child))
        return child

    def counted_fitness(ab, universe, sample):
        scored.append(ab.jobs)
        return antibody_fitness(ab, universe, sample)

    monkeypatch.setattr(immunesched.evolution, "_mutant", counted_mutant)
    monkeypatch.setattr(immunesched.evolution, "antibody_fitness", counted_fitness)
    return builds, scored, keyed


@pytest.mark.parametrize("seed", range(5))
def test_a_one_tuple_generation_builds_a_child_once_per_new_key(setup, monkeypatch, seed):
    """One generation of 100 copies of X: the reference loop shows every
    mutated child it makes, repeats included, and distinct keys give
    distinct children. `evolve` scores each new key once, from X's lanes,
    and neither builds nor scores through the module seam any child whose
    key does not beat X: it builds from X exactly the children that beat
    X, once per occurrence, to admit them."""
    universe, pool, sample = setup
    x = next(ab for ab in pool if antibody_fitness(ab, universe, sample) < 20)
    fx = antibody_fitness(x, universe, sample)
    pop = Population([x] * 100).evaluate(universe, sample)
    cfg = GAConfig(generations=1)
    mutated = []

    def recorded(jobs, rate, rng):
        child = reference_mutation(jobs, rate, rng)
        if child != jobs:
            mutated.append(child)
        return child

    monkeypatch.setattr(reference, "reference_mutation", recorded)
    reference_evolve(pop, universe, sample, cfg, random.Random(seed))
    assert len(mutated) > len(set(mutated))  # some keys repeat
    builds, scored, keyed = counted_builds(monkeypatch)
    evolve(pop, universe, sample, cfg, random.Random(seed))
    assert len(keyed) == len(set(keyed)) == len(set(mutated))
    assert set(keyed) == set(mutated)
    assert scored == []
    assert all(jobs == x.jobs for jobs, _ in builds)
    winners = [c for c in mutated if antibody_fitness(Antibody(c), universe, sample) > fx]
    assert [child for _, child in builds] == winners


def test_an_all_at_maximum_generation_builds_no_child(setup, monkeypatch):
    """Distinct members all at the maximum: three generations draw every
    key and every crossover, but cross, build and score no child."""
    universe, _, sample = setup
    sequence = universe.antigens[sample.indices[0]].sequence
    pop = Population([Antibody(sequence[d : d + 5]) for d in range(8)]).evaluate(universe, sample)
    builds, scored, keyed = counted_builds(monkeypatch)
    crossed = []

    def counted_crossover(p1, p2):
        crossed.append((p1, p2))
        return order_crossover(p1, p2)

    monkeypatch.setattr(immunesched.evolution, "order_crossover", counted_crossover)
    cfg = GAConfig(generations=3, crossover_rate=1.0, mutation_rate=0.5, population_size=8)
    evolve(pop, universe, sample, cfg, random.Random(1))
    assert builds == scored == keyed == crossed == []


def test_evolve_returns_a_frozen_population_without_drawing(setup):
    """Copies of the sampled antigen's five-job prefix sit at the maximum
    fitness (25), so the loop stops before the first generation."""
    universe, _, sample = setup
    prefix = universe.antigens[sample.indices[0]].sequence[:5]
    pop = Population([Antibody(prefix) for _ in range(30)]).evaluate(universe, sample)
    rng = random.Random(6)
    state = rng.getstate()
    stream = io.StringIO()
    cfg = GAConfig(generations=20)
    final = evolve(pop, universe, sample, cfg, rng, stats_stream=stream)
    assert final.antibodies == pop.antibodies
    assert final.fitnesses == pop.fitnesses
    rows = stream.getvalue().splitlines()
    assert rows[0] == "generation,best,mean,worst"
    assert rows[1:] == [f"{gen},25,25.0000,25" for gen in range(cfg.generations + 1)]
    assert rng.getstate() == state


def test_evolve_stops_at_the_fixed_point_with_the_reference_result(setup):
    """The default 250-generation run at ag 1 reaches one antibody at the
    maximum fitness early: the result and statistics equal the full
    reference loop's, and the generator shows that the remaining
    generations did not run."""
    universe, pool, sample = setup
    pop = sample_initial(pool, 100, random.Random(0)).evaluate(universe, sample)
    cfg = GAConfig()
    frozen_at = assert_evolves_like_the_reference(pop, universe, sample, cfg, seed=0)
    assert frozen_at is not None and frozen_at < cfg.generations
