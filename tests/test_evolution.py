import io
import random

import pytest

import immunesched.evolution
from immunesched import (
    Antibody,
    AntigenSample,
    GAConfig,
    Population,
    antibody_fitness,
    build_libraries,
    default_base_problem,
    evolve,
    generate_pool,
    generate_universe,
    order_crossover,
    sample_initial,
)
from immunesched.evolution import _mutation, _tournament
from immunesched.gene_library import draw_below


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


def test_sample_initial_whole_pool_is_permutation(setup):
    _, pool, _ = setup
    pop = sample_initial(pool, len(pool), random.Random(4))
    assert sorted(ab.jobs for ab in pop.antibodies) == sorted(
        ab.jobs for ab in pool
    )


def test_sample_initial_draws_distinct_members(setup):
    _, pool, _ = setup
    pop = sample_initial(pool, 100, random.Random(4))
    assert pop.size == 100
    assert len(set(id(ab) for ab in pop.antibodies)) == 100


def test_sample_initial_deterministic(setup):
    _, pool, _ = setup
    a = sample_initial(pool, 100, random.Random(9))
    b = sample_initial(pool, 100, random.Random(9))
    assert a.antibodies == b.antibodies


def test_sample_initial_rejects_oversized_request(setup):
    _, pool, _ = setup
    with pytest.raises(ValueError, match=f"{len(pool)}.*{len(pool) + 1}"):
        sample_initial(pool, len(pool) + 1, random.Random(0))


def test_tournament_k1_returns_the_single_draw():
    pop = evaluated_population([5, 10, 15, 20])
    f = pop.fitnesses
    assert _tournament(len(f), 1, ScriptedRng(randranges=[2]))(f) == 2


def test_tournament_full_draw_returns_global_best():
    pop = evaluated_population([5, 40, 15, 20])
    rng = ScriptedRng(randranges=[0, 1, 2, 3])
    assert _tournament(len(pop.fitnesses), 4, rng)(pop.fitnesses) == 1


def test_tournament_tie_breaks_to_lowest_index():
    pop = evaluated_population([7, 7, 7])
    f = pop.fitnesses
    assert _tournament(len(f), 2, ScriptedRng(randranges=[2, 1]))(f) == 1


def test_draws_over_an_empty_range_are_rejected():
    with pytest.raises(ValueError, match="empty"):
        _tournament(0, 2, random.Random(0))
    for n in (0, -3):
        with pytest.raises(ValueError, match="empty"):
            draw_below(n, random.Random(0))


def test_tournament_prefers_fitter_over_many_draws():
    pop = evaluated_population([1, 50, 10, 10])
    rng = random.Random(123)
    select = _tournament(len(pop.fitnesses), 2, rng)
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


def test_mutate_rate_zero_is_identity():
    jobs = (4, 3, 9, 5, 12)
    mutate_jobs = _mutation(0.0, random.Random(0))
    assert mutate_jobs(jobs) is jobs


def test_mutate_rate_one_replaces_every_position():
    jobs = (4, 3, 9, 5, 12)
    for seed in range(1000):
        out = _mutation(1.0, random.Random(seed))(jobs)
        assert len(set(out)) == 5
        assert all(1 <= j <= 15 for j in out)
        assert all(out[i] != jobs[i] for i in range(5))


def test_mutate_single_position_never_duplicates():
    jobs = (4, 3, 9, 5, 12)
    # Only position 2 mutates; the replacement draw picks index 0 of the
    # ascending eligible jobs (1, 2, 6, 7, 8, 10, 11, 13, 14, 15) -> job 1.
    rng = ScriptedRng(randoms=[0.9, 0.9, 0.0, 0.9, 0.9], randranges=[0])
    assert _mutation(0.5, rng)(jobs) == (4, 3, 1, 5, 12)


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
        GAConfig(tournament_size=0)
