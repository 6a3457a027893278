"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

The heavyweight fixtures (the full default coverage experiment and the
ten-repetition refinement study) are session-scoped so each runs once.
"""

import io
import itertools
import random
import time

import pytest

from immunesched import (
    Antibody,
    Antigen,
    AntigenSample,
    ExperimentConfig,
    GAConfig,
    GDConfig,
    JOB_COUNT,
    NeighborOperator,
    OFFSET_COUNT,
    SAConfig,
    acceptance_probability,
    antibody_fitness,
    best_match,
    build_libraries,
    combine_components,
    coverage,
    decay_rate,
    default_base_problem,
    derived_rng,
    emit_reports,
    evolve,
    generate_pool,
    generate_universe,
    max_fitness,
    order_crossover,
    refine,
    refine_population,
    run_experiment,
    sample_initial,
)


def report(number, label, ok, detail=""):
    suffix = f" - {detail}" if detail else ""
    print(f"[acceptance] criterion {number:>2} ({label}): {'PASS' if ok else 'FAIL'}{suffix}")
    return ok


def random_antigen(rng):
    ids = list(range(1, JOB_COUNT + 1))
    rng.shuffle(ids)
    return Antigen(tuple(ids))


def random_antibody(rng):
    return Antibody(tuple(rng.sample(range(1, JOB_COUNT + 1), 5)))


def brute_force_best(antigen, antibody):
    best_count, best_offset = 0, 0
    for offset in range(OFFSET_COUNT):
        count = sum(
            1
            for j in range(len(antibody.jobs))
            if antibody.jobs[j] == antigen.sequence[offset + j]
        )
        if count > best_count:
            best_count, best_offset = count, offset
    return best_count, best_offset


@pytest.fixture(scope="session")
def default_coverage_run():
    """The full default experiment (type A, mutation 0.2, 250 generations,
    10 replicates, ag sizes 1/4/8, no refinement) plus its wall time."""
    cfg = ExperimentConfig(master_seed=0)
    started = time.perf_counter()
    table, run_report = run_experiment(cfg)
    return table, run_report, time.perf_counter() - started


@pytest.fixture(scope="session")
def refinement_study():
    """Ten seeded repetitions of the refinement protocol.

    Phase one uses the low-mutation configuration (0.001) with a short
    generation budget so the evolved populations stay partially converged,
    which is the regime where phase-two refinement has measurable
    headroom. Each repetition evolves ten replicate populations per
    antigen sample size and refines each with simulated annealing and the
    great deluge, sharing the phase-one populations between the two
    methods.
    """
    base = default_base_problem()
    ga = GAConfig(generations=40, mutation_rate=0.001)
    results = []
    for master in range(10):
        universe = generate_universe(base, derived_rng(master, "universe"))
        pool = generate_pool(build_libraries(universe), "A")
        improvements = {}
        for ag in (1, 8):
            totals = {"before": 0, "sa": 0, "gd": 0}
            for rep in range(10):
                sample = AntigenSample.draw(ag, derived_rng(master, "sample", ag, rep))
                pop = sample_initial(pool, 100, derived_rng(master, "init", ag, rep))
                pop.evaluate(universe, sample)
                final = evolve(pop, universe, sample, ga, derived_rng(master, "ga", ag, rep))
                totals["before"] += final.total_fitness
                refine_rng = derived_rng(master, "refine", ag, rep)
                sa_pop = refine_population(final, universe, sample, SAConfig(), refine_rng)
                totals["sa"] += sa_pop.total_fitness
                gd_pop = refine_population(
                    final, universe, sample, GDConfig(), derived_rng(master, "refine", ag, rep)
                )
                totals["gd"] += gd_pop.total_fitness
            improvements[ag] = {
                method: 100.0 * (totals[method] - totals["before"]) / totals["before"]
                for method in ("sa", "gd")
            }
        results.append(improvements)
    return results


def test_criterion_01_matching_oracle_equivalence():
    rng = random.Random(20240101)
    started = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        antigen, antibody = random_antigen(rng), random_antibody(rng)
        result = best_match(antigen, antibody)
        count, offset = brute_force_best(antigen, antibody)
        if (result.best_count, result.best_score, result.best_offset) != (count, 5 * count, offset):
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 1.0
    assert report(1, "matching oracle equivalence", ok, f"{elapsed:.2f}s, {mismatches} mismatches")


def test_criterion_02_golden_alignment_case():
    antigen = Antigen((1, 2, 7, 4, 3, 9, 6, 8, 14, 5, 13, 12, 10, 11, 15))
    antibody = Antibody((4, 3, 9, 5, 12))
    result = best_match(antigen, antibody)
    ok = (result.best_score, result.best_count, result.best_offset) == (15, 3, 3)
    assert report(2, "golden alignment case", ok, f"score={result.best_score}@{result.best_offset}")


def test_criterion_03_pool_laws():
    base = default_base_problem()
    started = time.perf_counter()
    universes = [generate_universe(base, random.Random(seed)) for seed in range(10)]
    ok = len(set(universes)) == 10
    sizes = []
    for universe in universes:
        libraries = build_libraries(universe)
        pool_a = generate_pool(libraries, "A")
        pool_b = generate_pool(libraries, "B")
        pool_c = generate_pool(libraries, "C")
        sizes.append(len(pool_a))
        ok = ok and len(pool_a) <= 6000
        ok = ok and len(pool_a) >= len(pool_c) >= len(pool_b)
        ok = ok and all(len(set(ab.jobs)) == 5 for ab in pool_a)
        for i, j in itertools.combinations(range(5), 2):
            for c1 in libraries[i]:
                for c2 in libraries[j]:
                    if len(set(c1 + c2)) == 6:
                        ok = ok and len(combine_components(c1, c2)) == 6
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 5.0
    assert report(3, "pool laws over 10 universes", ok, f"{elapsed:.2f}s, |A| in {min(sizes)}..{max(sizes)}")


def test_criterion_04_coverage_row_trend():
    base = default_base_problem()
    ok = True
    populations = 0
    for seed in range(3):
        universe = generate_universe(base, random.Random(seed))
        pool = generate_pool(build_libraries(universe), "A")
        sample = AntigenSample.draw(4, derived_rng(seed, "sample"))
        initial = sample_initial(pool, 50, derived_rng(seed, "init")).evaluate(universe, sample)
        evolved = evolve(
            initial, universe, sample, GAConfig(generations=30), derived_rng(seed, "ga")
        )
        refined = refine_population(
            evolved, universe, sample, GDConfig(), derived_rng(seed, "refine")
        )
        for pop in (initial, evolved, refined):
            populations += 1
            counts = [coverage(pop, universe, t) for t in (2, 3, 4, 5)]
            ok = ok and counts == sorted(counts)
    assert report(4, "unmatched counts rise with threshold", ok, f"{populations} populations")


def test_criterion_05_coverage_column_trend(default_coverage_run):
    table, _, elapsed = default_coverage_run
    ok = elapsed < 300.0
    worst_slack = 0.0
    for t in table.thresholds:
        for lo, hi in ((1, 4), (4, 8)):
            slack = table.cell(t, hi) - table.cell(t, lo)
            worst_slack = max(worst_slack, slack)
            ok = ok and slack <= 0.5
    assert report(
        5,
        "unmatched counts fall with more antigens",
        ok,
        f"{elapsed:.0f}s, worst column slack {worst_slack:+.1f}",
    )


def test_criterion_06_refinement_monotone_and_direction(refinement_study):
    universe = generate_universe(default_base_problem(), random.Random(123))
    pool = generate_pool(build_libraries(universe), "A")
    sample = AntigenSample.draw(4, random.Random("acc6"))
    quick_sa = dict(initial_temperature=20.0, final_temperature=0.5, cooling_factor=0.85)
    monotone = True
    for seed in range(5):
        pop = sample_initial(pool, 30, random.Random(seed)).evaluate(universe, sample)
        for operator in (NeighborOperator.CHANGE_ONE_JOB, NeighborOperator.SWAP_TWO_JOBS):
            for cfg in (SAConfig(operator=operator, **quick_sa), GDConfig(operator=operator)):
                refined = refine_population(pop, universe, sample, cfg, random.Random(seed))
                monotone = monotone and refined.total_fitness >= pop.total_fitness

    sa_direction = sum(1 for imp in refinement_study if imp[1]["sa"] > imp[8]["sa"])
    gd_direction = sum(1 for imp in refinement_study if imp[1]["gd"] > imp[8]["gd"])
    ok = monotone and sa_direction >= 8 and gd_direction >= 8
    assert report(
        6,
        "refinement monotone; larger gains at ag=1 than ag=8",
        ok,
        f"direction SA {sa_direction}/10, GD {gd_direction}/10",
    )


def test_criterion_07_gd_level_identity():
    ok = decay_rate(20, 25, 120) == -(1 / 24)
    universe = generate_universe(default_base_problem(), random.Random(7))
    pool = generate_pool(build_libraries(universe), "A")
    sample = AntigenSample.draw(1, random.Random("acc7"))
    trace = io.StringIO()
    refine(
        pool[0],
        universe,
        sample,
        GDConfig(iterations=120, stagnation_limit=None),
        random.Random(7),
        trace=trace,
    )
    rows = trace.getvalue().splitlines()[1:]
    final_boundary = float(rows[-1].split(",")[1])
    gap = abs(final_boundary - max_fitness(sample.size))
    ok = ok and len(rows) == 120 and gap <= 1e-9
    assert report(7, "deluge boundary identity", ok, f"final gap {gap:.2e}")


def test_criterion_08_sa_schedule():
    universe = generate_universe(default_base_problem(), random.Random(8))
    pool = generate_pool(build_libraries(universe), "A")
    sample = AntigenSample.draw(1, random.Random("acc8"))
    trace = io.StringIO()
    refine(pool[0], universe, sample, SAConfig(), random.Random(8), trace=trace)
    steps = len(trace.getvalue().splitlines()) - 1
    ok = steps == 570
    ok = ok and all(acceptance_probability(0, t) == 1.0 for t in (5000.0, 1.0, 0.05))
    assert report(8, "annealing schedule", ok, f"{steps} temperature steps")


def test_criterion_09_ga_elitism_and_crossover_safety():
    base = default_base_problem()
    ok = True
    for seed in range(2):
        universe = generate_universe(base, random.Random(seed + 40))
        pool = generate_pool(build_libraries(universe), "A")
        sample = AntigenSample.draw(4, derived_rng(seed, "sample9"))
        pop = sample_initial(pool, 100, derived_rng(seed, "init9")).evaluate(universe, sample)
        stream = io.StringIO()
        evolve(pop, universe, sample, GAConfig(), derived_rng(seed, "ga9"), stats_stream=stream)
        best = [int(row.split(",")[1]) for row in stream.getvalue().splitlines()[1:]]
        ok = ok and len(best) == 251
        ok = ok and all(b2 >= b1 for b1, b2 in zip(best, best[1:]))

    rng = random.Random(90)
    for _ in range(10_000):
        p1, p2 = random_antibody(rng), random_antibody(rng)
        c1, c2 = order_crossover(p1, p2)
        ok = ok and set(c1.jobs) == set(p1.jobs) and len(set(c1.jobs)) == 5
        ok = ok and set(c2.jobs) == set(p2.jobs) and len(set(c2.jobs)) == 5
    assert report(9, "elitism monotone; crossover duplicate-free", ok)


def test_criterion_10_reproducibility_and_speed(tmp_path):
    cfg_kwargs = dict(
        ag_sample_sizes=(1, 4),
        replicates=2,
        phase2="sa",
        ga=GAConfig(generations=10, population_size=30),
        sa=SAConfig(initial_temperature=30.0, final_temperature=0.5, cooling_factor=0.85),
        master_seed=99,
    )
    out_dirs = []
    for run in range(2):
        cfg = ExperimentConfig(**cfg_kwargs)
        table, run_report = run_experiment(cfg)
        out = tmp_path / f"run{run}"
        emit_reports(table, run_report, cfg, out)
        out_dirs.append(out)
    identical = all(
        (out_dirs[0] / name).read_bytes() == (out_dirs[1] / name).read_bytes()
        for name in ("coverage.csv", "fitness.csv")
    )

    started = time.perf_counter()
    universe = generate_universe(default_base_problem(), derived_rng(0, "universe"))
    pool = generate_pool(build_libraries(universe), "A")
    sample = AntigenSample.draw(8, derived_rng(0, "sample", 8, 0))
    pop = sample_initial(pool, 100, derived_rng(0, "init", 8, 0)).evaluate(universe, sample)
    final = evolve(pop, universe, sample, GAConfig(), derived_rng(0, "ga", 8, 0))
    refine_population(final, universe, sample, SAConfig(), derived_rng(0, "refine", 8, 0))
    replicate_seconds = time.perf_counter() - started

    ok = identical and replicate_seconds < 120.0
    assert report(
        10,
        "byte-identical reruns; single replicate speed",
        ok,
        f"replicate took {replicate_seconds:.1f}s",
    )
