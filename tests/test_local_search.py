import io
import math
import random

import pytest

from immunesched import (
    Antibody,
    Antigen,
    AntigenSample,
    AntigenUniverse,
    GDConfig,
    NeighborOperator,
    Population,
    SAConfig,
    acceptance_probability,
    antibody_fitness,
    build_libraries,
    decay_rate,
    default_base_problem,
    generate_pool,
    generate_universe,
    max_fitness,
    refine,
    refine_population,
    sample_initial,
)

CHANGE = NeighborOperator.CHANGE_ONE_JOB
SWAP = NeighborOperator.SWAP_TWO_JOBS


@pytest.fixture(scope="module")
def setup():
    universe = generate_universe(default_base_problem(), random.Random(6))
    pool = generate_pool(build_libraries(universe), "A")
    sample = AntigenSample.draw(1, random.Random("ls"))
    return universe, pool, sample


def prefix_antibody(universe, sample):
    return Antibody(universe.antigens[sample.indices[0]].sequence[:5])


def test_acceptance_probability_boundary_and_formula():
    assert acceptance_probability(0, 5000.0) == 1.0
    assert acceptance_probability(-3, 10.0) == 1.0
    assert acceptance_probability(5.0, 100.0) == pytest.approx(math.exp(-0.05))
    assert 0.0 < acceptance_probability(10.0, 0.05) < 1.0


def test_decay_rate_exact_values():
    assert decay_rate(20, 25, 120) == -(1 / 24)
    assert decay_rate(25, 25, 120) == 0.0


def test_sa_runs_570_steps_with_defaults(setup):
    universe, pool, sample = setup
    trace = io.StringIO()
    refine(pool[0], universe, sample, SAConfig(), random.Random(1), trace=trace)
    rows = trace.getvalue().splitlines()
    assert rows[0] == "step,temperature,current_fitness,best_fitness,accepted"
    assert len(rows) - 1 == 570


def shared_prefix_universe(rng):
    """Ten antigens that all start with the same five jobs, so an antibody
    can reach the maximum fitness against any sample."""
    head = rng.sample(range(1, 16), 5)
    tail = [job for job in range(1, 16) if job not in head]
    return AntigenUniverse(
        tuple(Antigen(tuple(head + rng.sample(tail, len(tail)))) for _ in range(10))
    )


@pytest.mark.parametrize("ag", [1, 8])
@pytest.mark.parametrize("universe_kind", ["generated", "shared-prefix"])
def test_ceiling_exit_returns_what_the_full_schedule_returns(setup, ag, universe_kind):
    """An untraced chain stops at the maximum fitness; a traced one runs the
    full schedule. Both must return the same antibody. A chain that stopped
    early drew fewer numbers, so its generator ends in another state."""
    universe, pool, _ = setup
    if universe_kind == "shared-prefix":
        universe = shared_prefix_universe(random.Random(ag))
        pool = generate_pool(build_libraries(universe), "A")
    early_stops = 0
    for seed in range(30):
        sample = AntigenSample.draw(ag, random.Random(f"ceiling/{seed}"))
        starts = (pool[seed * 13 % len(pool)], prefix_antibody(universe, sample))
        for ab in starts:
            for cfg in (SAConfig(), GDConfig()):
                fast_rng, full_rng = random.Random(seed), random.Random(seed)
                fast = refine(ab, universe, sample, cfg, fast_rng)
                trace = io.StringIO()
                full = refine(ab, universe, sample, cfg, full_rng, trace=trace)
                assert fast.jobs == full.jobs, (seed, ab.jobs, cfg)
                if isinstance(cfg, SAConfig):
                    assert len(trace.getvalue().splitlines()) - 1 == 570
                early_stops += fast_rng.getstate() != full_rng.getstate()
    # No antibody matches eight generated antigens fully, so there the exit
    # never fires and only the equality is checked.
    if (universe_kind, ag) != ("generated", 8):
        assert early_stops > 0


def test_sa_never_returns_worse(setup):
    universe, pool, sample = setup
    cfg = SAConfig(initial_temperature=50.0, final_temperature=0.5, cooling_factor=0.9)
    for seed in range(30):
        ab = pool[seed * 7 % len(pool)]
        before = antibody_fitness(ab, universe, sample)
        after = antibody_fitness(refine(ab, universe, sample, cfg, random.Random(seed)), universe, sample)
        assert after >= before


def test_sa_keeps_optimum(setup):
    universe, pool, sample = setup
    ab = prefix_antibody(universe, sample)
    out = refine(ab, universe, sample, SAConfig(), random.Random(3))
    assert antibody_fitness(out, universe, sample) == max_fitness(sample.size)
    assert out is ab  # nothing strictly better exists, so the original returns


def test_gd_boundary_reaches_target_without_stagnation(setup):
    universe, pool, sample = setup
    ab = pool[5]
    start = antibody_fitness(ab, universe, sample)
    target = max_fitness(sample.size)
    trace = io.StringIO()
    cfg = GDConfig(iterations=120, stagnation_limit=None)
    refine(ab, universe, sample, cfg, random.Random(2), trace=trace)
    rows = trace.getvalue().splitlines()
    assert len(rows) - 1 == 120
    boundaries = [float(r.split(",")[1]) for r in rows[1:]]
    assert boundaries[0] == pytest.approx(start - decay_rate(start, target, 120))
    assert all(b2 >= b1 for b1, b2 in zip(boundaries, boundaries[1:]))
    assert abs(boundaries[-1] - target) <= 1e-9


def test_gd_with_zero_decay_stays_at_optimum(setup):
    universe, pool, sample = setup
    ab = prefix_antibody(universe, sample)
    trace = io.StringIO()
    out = refine(
        ab, universe, sample, GDConfig(stagnation_limit=None), random.Random(4), trace=trace
    )
    assert antibody_fitness(out, universe, sample) == max_fitness(sample.size)
    boundaries = {float(r.split(",")[1]) for r in trace.getvalue().splitlines()[1:]}
    assert boundaries == {float(max_fitness(sample.size))}


def test_gd_accepts_a_worse_candidate_at_the_boundary_without_drawing():
    rng = random.Random(8)
    state = rng.getstate()
    assert GDConfig().accepts_worse(20, 25, 20.0, rng)
    assert not GDConfig().accepts_worse(19, 25, 20.0, rng)
    assert rng.getstate() == state


def test_gd_stagnation_stops_after_limit(setup):
    universe, pool, sample = setup
    ab = prefix_antibody(universe, sample)  # already optimal: no step improves
    trace = io.StringIO()
    refine(ab, universe, sample, GDConfig(stagnation_limit=7), random.Random(5), trace=trace)
    assert len(trace.getvalue().splitlines()) - 1 == 7


def test_gd_never_returns_worse(setup):
    universe, pool, sample = setup
    for seed in range(30):
        ab = pool[seed * 11 % len(pool)]
        before = antibody_fitness(ab, universe, sample)
        after = antibody_fitness(
            refine(ab, universe, sample, GDConfig(), random.Random(seed)), universe, sample
        )
        assert after >= before


def test_refine_population_total_never_decreases(setup):
    universe, pool, sample = setup
    fast_sa = SAConfig(initial_temperature=20.0, final_temperature=0.5, cooling_factor=0.85)
    for seed, cfg in enumerate(
        [
            fast_sa,
            SAConfig(initial_temperature=20.0, final_temperature=0.5, cooling_factor=0.85, operator=SWAP),
            GDConfig(iterations=40),
            GDConfig(iterations=40, operator=SWAP),
        ]
    ):
        pop = sample_initial(pool, 30, random.Random(seed)).evaluate(universe, sample)
        before = pop.total_fitness
        refined = refine_population(pop, universe, sample, cfg, random.Random(seed))
        assert refined.total_fitness >= before
        assert refined.size == pop.size


def test_refine_population_fixed_point_at_optimum(setup):
    universe, pool, sample = setup
    ab = prefix_antibody(universe, sample)
    pop = Population([ab] * 10).evaluate(universe, sample)
    refined = refine_population(pop, universe, sample, GDConfig(), random.Random(8))
    assert refined.antibodies == pop.antibodies


def test_refine_population_deterministic(setup):
    universe, pool, sample = setup
    cfg = GDConfig(iterations=30)
    outputs = []
    for _ in range(2):
        pop = sample_initial(pool, 20, random.Random(3)).evaluate(universe, sample)
        refined = refine_population(pop, universe, sample, cfg, random.Random(12))
        outputs.append((refined.antibodies, refined.fitnesses))
    assert outputs[0] == outputs[1]


def test_refine_population_requires_evaluation_and_config_type(setup):
    universe, pool, sample = setup
    pop = sample_initial(pool, 5, random.Random(0))
    with pytest.raises(ValueError, match="evaluated"):
        refine_population(pop, universe, sample, GDConfig(), random.Random(0))
    pop.evaluate(universe, sample)
    with pytest.raises(TypeError):
        refine_population(pop, universe, sample, object(), random.Random(0))


def test_config_validation():
    with pytest.raises(ValueError):
        SAConfig(initial_temperature=1.0, final_temperature=2.0)
    with pytest.raises(ValueError):
        SAConfig(initial_temperature=math.inf)  # levels() would never end
    with pytest.raises(ValueError):
        SAConfig(cooling_factor=1.0)
    with pytest.raises(ValueError):
        GDConfig(iterations=0)
    with pytest.raises(ValueError):
        GDConfig(stagnation_limit=0)
    GDConfig(stagnation_limit=None)  # disabled stagnation is allowed


def test_config_operator_strings_are_coerced(setup):
    universe, pool, sample = setup
    for kind in (SAConfig, GDConfig):
        assert kind(operator="change").operator is CHANGE
        assert kind(operator="swap").operator is SWAP
        with pytest.raises(ValueError, match="not a valid NeighborOperator"):
            kind(operator="bogus")
    by_string = refine(pool[3], universe, sample, SAConfig(operator="change"), random.Random(4))
    by_member = refine(pool[3], universe, sample, SAConfig(operator=CHANGE), random.Random(4))
    assert by_string == by_member
