import io
import itertools
import math
import random

import pytest

import immunesched.local_search
from immunesched import (
    ANTIBODY_LENGTH,
    JOB_COUNT,
    POSITION_SCORE,
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
from reference import (
    reference_chain,
    reference_kind,
    reference_neighbours,
    reference_refine_population,
    sliding_counts,
)

CHANGE = NeighborOperator.CHANGE_ONE_JOB
SWAP = NeighborOperator.SWAP_TWO_JOBS


@pytest.fixture(scope="module")
def setup():
    universe = generate_universe(default_base_problem(), random.Random(6))
    pool = generate_pool(build_libraries(universe), "A")
    sample = AntigenSample.draw(1, random.Random("ls"))
    return universe, pool, sample


@pytest.fixture(scope="module")
def eight():
    """An eight-antigen sample, against which some pool members below the
    maximum are strict peaks under either move; against `setup`'s one
    antigen, only the swap move has such peaks."""
    return AntigenSample.draw(8, random.Random("ls/8"))


def prefix_antibody(universe, sample):
    return Antibody(universe.antigens[sample.indices[0]].sequence[:5])


def ceiling_mix(members, universe, sample):
    """`members` with every fourth one, from the first, replaced by
    `prefix_antibody`, at the maximum against a one-antigen sample, and
    every fourth one, from the third, by a distinct change-one-job
    neighbour of it one step below the maximum."""
    top = prefix_antibody(universe, sample)
    below = max_fitness(sample.size) - POSITION_SCORE
    moved = (
        Antibody(top.jobs[:slot] + (job,) + top.jobs[slot + 1 :])
        for slot in range(ANTIBODY_LENGTH)
        for job in range(1, JOB_COUNT + 1)
        if job not in top.jobs
    )
    neighbours = [ab for ab in moved if antibody_fitness(ab, universe, sample) == below]
    mixed = list(members)
    mixed[0::4] = [top] * len(mixed[0::4])
    mixed[2::4] = neighbours[: len(mixed[2::4])]
    return mixed


def strict_peaks(members, universe, sample, op, count):
    """The first `count` distinct members below the maximum that every
    neighbour under `op` scores below, found by brute force."""
    peaks = [
        ab for ab in dict.fromkeys(members)
        if antibody_fitness(ab, universe, sample) < max_fitness(sample.size)
        and reference_kind(ab, universe, sample, op) == "peak"
    ]
    assert len(peaks) >= count
    return peaks[:count]


def expected_chains(members, universe, sample, cfg):
    """The members whose chain runs, by brute force: those below the
    maximum and, under GD, not at a strict peak."""
    return [
        ab for ab in members
        if antibody_fitness(ab, universe, sample) < max_fitness(sample.size)
        and (isinstance(cfg, SAConfig) or reference_kind(ab, universe, sample, cfg.operator) != "peak")
    ]


@pytest.fixture
def chains(monkeypatch):
    """The antibodies `refine_population` starts a chain from, in order."""
    started = []

    def counting_refine(ab, *args, **kwargs):
        started.append(ab)
        return refine(ab, *args, **kwargs)

    monkeypatch.setattr(immunesched.local_search, "refine", counting_refine)
    return started


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


def test_gd_accepts_a_worse_candidate_at_the_boundary_without_drawing(setup):
    """From fitness 10 against one antigen, 15 iterations raise the boundary
    by exactly 1 per step. Step 6 draws a candidate at 15 while the current
    is at 20: it is worse, but on the boundary 15.0, so GD accepts it. Its
    stagnation limit of 3 ends the chain there, and the generator is where
    the six steps' move draws alone leave it: the boundary took no draw."""
    universe, _, sample = setup
    ab = Antibody((12, 9, 1, 13, 14))
    assert antibody_fitness(ab, universe, sample) == 10
    rng, trace = random.Random(4), io.StringIO()
    refine(ab, universe, sample, GDConfig(iterations=15, stagnation_limit=3), rng, trace)
    assert trace.getvalue().splitlines()[-2:] == ["5,15.0,20,20,1", "6,16.0,15,20,1"]
    moves_only = random.Random(4)
    for _ in range(6):
        moves_only.randrange(ANTIBODY_LENGTH)
        moves_only.randrange(JOB_COUNT - ANTIBODY_LENGTH)
    assert rng.getstate() == moves_only.getstate()


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


@pytest.mark.parametrize("ag", [1, 4, 10])
@pytest.mark.parametrize(
    "cfg",
    [SAConfig(), SAConfig(operator=SWAP), GDConfig(), GDConfig(operator=SWAP)],
    ids=["sa-change", "sa-swap", "gd-change", "gd-swap"],
)
def test_refine_population_fitnesses_match_a_fresh_evaluation(setup, ag, cfg):
    """The refined population's fitnesses are its antibodies' scores, as an
    independent matcher slides each one along every sampled antigen."""
    universe, pool, _ = setup
    sample = AntigenSample.draw(ag, random.Random(f"fresh/{ag}"))
    pop = sample_initial(pool, 20, random.Random(ag)).evaluate(universe, sample)
    refined = refine_population(pop, universe, sample, cfg, random.Random(ag))
    assert refined.antibodies != pop.antibodies  # some chain improved its start
    antigens = [universe.antigens[k] for k in sample.indices]
    fresh = [
        POSITION_SCORE * sum(max(sliding_counts(antigen, ab)) for antigen in antigens)
        for ab in refined.antibodies
    ]
    assert refined.fitnesses == fresh


@pytest.mark.parametrize("ag, mixed", [(1, False), (8, False), (1, True)], ids=["1", "8", "1-ceiling"])
@pytest.mark.parametrize(
    "cfg",
    [SAConfig(), SAConfig(operator=SWAP), GDConfig(), GDConfig(operator=SWAP)],
    ids=["sa-change", "sa-swap", "gd-change", "gd-swap"],
)
def test_refine_population_matches_the_reference(setup, ag, mixed, cfg):
    """Members and fitnesses equal the plain reference's: one derived
    generator per member, in member order, every chain run and scored
    afresh. The caller's generator ends where the reference leaves its own,
    also when some members start at the maximum or one step below it."""
    universe, pool, _ = setup
    sample = AntigenSample.draw(ag, random.Random(f"reference/{ag}"))
    pop = sample_initial(pool, 12, random.Random(ag))
    if mixed:
        pop = Population(ceiling_mix(pop.antibodies, universe, sample))
    pop.evaluate(universe, sample)
    if mixed:
        assert pop.fitnesses[0::4] == [max_fitness(ag)] * 3
        assert pop.fitnesses[2::4] == [max_fitness(ag) - POSITION_SCORE] * 3
    rng, reference = random.Random(ag), random.Random(ag)
    refined = refine_population(pop, universe, sample, cfg, rng)
    expected = reference_refine_population(pop, universe, sample, cfg, reference)
    assert refined.antibodies != pop.antibodies  # some chain improved its start
    assert (refined.antibodies, refined.fitnesses) == expected
    assert rng.getstate() == reference.getstate()


def test_refine_population_runs_and_scores_only_what_a_chain_can_change(setup, chains, monkeypatch):
    """`refine` runs once per member below the maximum and, under GD, not at
    a strict peak (here the swap move has some), in member order, and
    `antibody_fitness` once per member that its chain changed. A
    population all at the maximum runs no chain and comes back as it was.
    Either way the caller's generator advances by one 64-bit draw per
    member."""
    universe, pool, sample = setup
    scored = []

    def counting_fitness(ab, *args):
        scored.append(ab)
        return antibody_fitness(ab, *args)

    monkeypatch.setattr(immunesched.local_search, "antibody_fitness", counting_fitness)
    top = prefix_antibody(universe, sample)
    mixed = ceiling_mix(pool[:12], universe, sample)
    for cfg, members in itertools.product((GDConfig(), GDConfig(operator=SWAP)), (mixed, [top] * 10)):
        pop = Population(members).evaluate(universe, sample)
        expected_run = expected_chains(members, universe, sample, cfg)
        chains.clear()
        scored.clear()
        rng, expected = random.Random(5), random.Random(5)
        refined = refine_population(pop, universe, sample, cfg, rng)
        for _ in members:
            expected.getrandbits(64)
        assert rng.getstate() == expected.getstate()
        assert chains == expected_run
        assert scored == [new for new, ab in zip(refined.antibodies, members) if new is not ab]
        assert bool(scored) == bool(chains)  # some chain changed its member
        assert refined.fitnesses == [antibody_fitness(ab, universe, sample) for ab in refined.antibodies]
    assert chains == [] and scored == []
    assert refined is not pop
    assert refined.antibodies == pop.antibodies
    assert refined.fitnesses == pop.fitnesses


@pytest.mark.parametrize("op", [CHANGE, SWAP], ids=["change", "swap"])
def test_refine_population_runs_no_gd_chain_from_a_strict_peak(setup, eight, chains, op):
    """A strict peak's GD chain would reject every step, as the boundary
    starts at its fitness and never falls. The member keeps its antibody
    and fitness without a chain but still takes its seed draw; a call whose
    starts are all peaks makes no `refine` call."""
    universe, pool, _ = setup
    sample = eight
    cfg = GDConfig(operator=op)
    peaks = strict_peaks(pool, universe, sample, op, 3)
    others = expected_chains(pool[:200], universe, sample, cfg)[:4]
    for members in (peaks + others + peaks, peaks * 3):
        pop = Population(members).evaluate(universe, sample)
        chains.clear()
        rng, expected = random.Random(4), random.Random(4)
        refined = refine_population(pop, universe, sample, cfg, rng)
        for _ in members:
            expected.getrandbits(64)
        assert rng.getstate() == expected.getstate()
        assert chains == expected_chains(members, universe, sample, cfg)
        assert chains == [ab for ab in members if ab not in peaks]
        for ab, fit, new, new_fit in zip(members, pop.fitnesses, refined.antibodies, refined.fitnesses):
            if ab in peaks:
                assert (new, new_fit) == (ab, fit)
    assert chains == []


def test_refine_population_checks_each_start_afresh_in_every_call(setup, eight, chains):
    """Whether a start is a strict peak depends on the sample: a peak
    against one sample runs its chain against another, and the check is
    not carried from call to call."""
    universe, pool, sample = setup
    start = next(
        ab for ab in strict_peaks(pool[:300], universe, eight, CHANGE, 1)
        if expected_chains([ab], universe, sample, GDConfig()) == [ab]
    )
    for against in (eight, sample, eight):
        pop = Population([start] * 2).evaluate(universe, against)
        chains.clear()
        refine_population(pop, universe, against, GDConfig(), random.Random(0))
        assert chains == expected_chains([start] * 2, universe, against, GDConfig())
    assert chains == []


def test_refine_population_runs_a_gd_chain_from_a_plateau_start(setup, chains):
    """A start whose best neighbour ties it is no strict peak: GD accepts
    the tie and can climb from there, so its chain runs."""
    universe, pool, sample = setup
    start = next(ab for ab in pool if reference_kind(ab, universe, sample, CHANGE) == "plateau")
    pop = Population([start] * 4).evaluate(universe, sample)
    seed = next(
        seed for seed in range(20)
        if sum(reference_refine_population(pop, universe, sample, GDConfig(), random.Random(seed))[1])
        > pop.total_fitness
    )
    refined = refine_population(pop, universe, sample, GDConfig(), random.Random(seed))
    assert chains == [start] * 4
    assert refined.total_fitness > pop.total_fitness


@pytest.mark.parametrize("op", [CHANGE, SWAP], ids=["change", "swap"])
def test_refine_population_runs_sa_chains_from_strict_peaks(setup, eight, chains, op):
    """Metropolis acceptance can take a worse neighbour and leave a peak,
    so SA runs the chain of every member below the maximum."""
    universe, pool, _ = setup
    sample = eight
    members = strict_peaks(pool, universe, sample, op, 2) * 2
    pop = Population(members).evaluate(universe, sample)
    refine_population(pop, universe, sample, SAConfig(operator=op), random.Random(2))
    assert chains == expected_chains(members, universe, sample, SAConfig()) == members


def test_the_peak_check_reads_every_neighbour(setup, chains):
    """A start is a strict peak only when all of its neighbours score below
    it. Each start here has neighbours that reach it only at one edge of
    its neighbourhood: only in the last slot, only with the last unused
    job, or only by swapping one pair of slots, each of the ten pairs. None
    is a peak, so every chain runs."""
    universe, pool, sample = setup

    def reaching(ab, against, op):
        """Indices, in reference_neighbours' order, of the neighbours that
        score at least `ab`: slot * 10 + the unused job's index for a
        change, the pair's index among the ten for a swap."""
        fit = antibody_fitness(ab, universe, against)
        moved = reference_neighbours(ab, op)
        return [i for i, n in enumerate(moved) if antibody_fitness(n, universe, against) >= fit]

    last_slot = next(ab for ab in pool if (r := reaching(ab, sample, CHANGE)) and all(i >= 40 for i in r))
    four = AntigenSample.draw(4, random.Random("ls/4"))
    last_job = Antibody((2, 7, 15, 10, 11))
    assert reaching(last_job, four, CHANGE) == [9]
    pairs = [next(ab for ab in pool if reaching(ab, sample, SWAP) == [pair]) for pair in range(10)]
    for members, against, op in (
        ([last_slot] * 2, sample, CHANGE),
        ([last_job] * 2, four, CHANGE),
        (pairs, sample, SWAP),
    ):
        pop = Population(members).evaluate(universe, against)
        cfg = GDConfig(operator=op)
        chains.clear()
        refine_population(pop, universe, against, cfg, random.Random(1))
        assert chains == expected_chains(members, universe, against, cfg) == members


@pytest.mark.parametrize("ag", [1, 4, 8])
@pytest.mark.parametrize(
    "cfg",
    [
        SAConfig(),
        SAConfig(operator=SWAP),
        GDConfig(),
        GDConfig(operator=SWAP),
        SAConfig(initial_temperature=1.0, final_temperature=0.6, cooling_factor=0.5),
        GDConfig(iterations=1),
        GDConfig(iterations=2, stagnation_limit=None),
    ],
    ids=["sa-change", "sa-swap", "gd-change", "gd-swap", "sa-one-step", "gd-one-step",
         "gd-two-steps-no-limit"],
)
def test_trace_matches_the_reference(setup, ag, cfg):
    """A traced chain writes the plain reference chain's rows byte for byte,
    returns its antibody and leaves the generator where it does. The short
    schedules pin both ends of the chain's walk over its levels: a two-level
    SA schedule runs one step, GD of one and two iterations one and two."""
    universe, pool, _ = setup
    sample = AntigenSample.draw(ag, random.Random(f"trace/{ag}"))
    ab = pool[ag * 31]
    rng, reference = random.Random(ag), random.Random(ag)
    trace, expected = io.StringIO(), io.StringIO()
    out = refine(ab, universe, sample, cfg, rng, trace)
    assert out == reference_chain(ab, universe, sample, cfg, reference, expected)
    assert trace.getvalue() == expected.getvalue()
    assert rng.getstate() == reference.getstate()


def test_refine_population_fixed_point_at_optimum(setup):
    universe, pool, sample = setup
    ab = prefix_antibody(universe, sample)
    pop = Population([ab] * 10).evaluate(universe, sample)
    refined = refine_population(pop, universe, sample, GDConfig(), random.Random(8))
    assert refined.antibodies == pop.antibodies


def test_refine_population_chains_share_one_table_per_call(setup, monkeypatch):
    """Every chain of one call gets the same score table, and each call a
    new one, since an entry holds for one (universe, sample) only."""
    universe, pool, sample = setup
    tables = []

    def recording_refine(ab, *args, scores):
        tables.append(scores)
        return refine(ab, *args, scores=scores)

    monkeypatch.setattr(immunesched.local_search, "refine", recording_refine)
    pop = sample_initial(pool, 12, random.Random(3)).evaluate(universe, sample)
    chains = len(expected_chains(pop.antibodies, universe, sample, GDConfig()))
    for seed in (1, 2):
        refine_population(pop, universe, sample, GDConfig(), random.Random(seed))
    first, second = tables[:chains], tables[chains:]
    assert chains > 1 and len(second) == chains
    assert all(table is first[0] for table in first)
    assert all(table is second[0] for table in second)
    assert first[0] is not second[0]
    assert any(first[0])


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
    # All at the maximum, a population runs no chain to check the type.
    at_maximum = Population([prefix_antibody(universe, sample)] * 5).evaluate(universe, sample)
    for members in (pop, at_maximum):
        with pytest.raises(TypeError, match="expected SAConfig or GDConfig, got object"):
            refine_population(members, universe, sample, object(), random.Random(0))


def test_refine_rejects_other_config_types(setup):
    """The chain picks its acceptance rule by config type, so any other
    object is refused rather than run under GD's rule."""
    universe, pool, sample = setup
    with pytest.raises(TypeError, match="expected SAConfig or GDConfig, got object"):
        refine(pool[0], universe, sample, object(), random.Random(0))


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


@pytest.mark.parametrize("field", ["iterations", "stagnation_limit"])
@pytest.mark.parametrize("value", [30.5, 30.0, "30", True])
def test_gd_config_rejects_non_integer_counts(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        GDConfig(**{field: value})


def test_config_operator_strings_are_coerced(setup):
    universe, pool, sample = setup
    for kind in (SAConfig, GDConfig):
        assert kind(operator="change").operator is CHANGE
        assert kind(operator="swap").operator is SWAP
        with pytest.raises(ValueError, match=r"^operator must be one of \('change', 'swap'\)$"):
            kind(operator="bogus")
    by_string = refine(pool[3], universe, sample, SAConfig(operator="change"), random.Random(4))
    by_member = refine(pool[3], universe, sample, SAConfig(operator=CHANGE), random.Random(4))
    assert by_string == by_member
