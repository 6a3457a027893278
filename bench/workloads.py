"""The benchmark's workloads, the replicate pipeline and its output checks.

A replicate is the unit of work a user of `immunesched experiment` waits
on: draw an antigen sample, sample and evaluate an initial population,
evolve it, optionally refine it, and score coverage at thresholds 2..5.
Everything here calls the package's public functions only, with the
same derived seed paths as `run_experiment`, so universe `u` of run seed
`s` replicates exactly what `immunesched experiment --seed <1000*s+u>`
computes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import operator
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from immunesched import (
    AntigenSample,
    CoverageTable,
    ExperimentConfig,
    GAConfig,
    GDConfig,
    RunReport,
    SAConfig,
    build_libraries,
    coverage,
    default_base_problem,
    derived_rng,
    emit_reports,
    evolve,
    fitness_improvement,
    generate_pool,
    generate_universe,
    max_fitness,
    refine_population,
    sample_initial,
)
from immunesched.experiment import COVERAGE_CSV, FITNESS_CSV

from calibration import ReferenceClock

THRESHOLDS = (2, 3, 4, 5)
UNIVERSE_STRIDE = 1000
# The paper's problem, restated for the reference checks.
JOB_IDS = range(1, 16)
ANTIBODY_LENGTH = 5
POSITION_SCORE = 5


@dataclass(frozen=True)
class Workload:
    name: str
    ag_sizes: tuple[int, ...]
    ga: GAConfig
    refine: SAConfig | GDConfig | None
    # Universes of a run, one master seed each; its rounds cycle over them.
    # Coverage depends strongly on the universe, so averaging over several
    # keeps the quality metrics steady from seed to seed.
    universes: int
    # Replicates per (universe, ag size) in the fixed block that every run
    # completes and that the quality metrics and CSV digests cover.
    block_reps: int

    @property
    def phase2(self) -> str:
        if self.refine is None:
            return "none"
        return "sa" if isinstance(self.refine, SAConfig) else "gd"

    @property
    def block_rounds(self) -> int:
        return self.universes * self.block_reps

    @property
    def block_size(self) -> int:
        return self.block_rounds * len(self.ag_sizes)


STUDY_GA = GAConfig(generations=40, mutation_rate=0.001)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("experiment-default", (1, 4, 8), GAConfig(), None, universes=20, block_reps=1),
        Workload("refine-sa", (1, 8), STUDY_GA, SAConfig(), universes=14, block_reps=1),
        Workload("refine-gd", (1, 8), STUDY_GA, GDConfig(), universes=30, block_reps=2),
    )
}

# Small enough that a run of every workload takes seconds; for the smoke test.
TINY_GA = GAConfig(generations=3, population_size=20)
TINY_SA = SAConfig(initial_temperature=30.0, final_temperature=0.5, cooling_factor=0.85)
TINY_GD = GDConfig(iterations=20, stagnation_limit=5)


def workload(name: str, scale: str) -> Workload:
    full = WORKLOADS[name]
    if scale == "full":
        return full
    refine = {"none": None, "sa": TINY_SA, "gd": TINY_GD}[full.phase2]
    return dataclasses.replace(full, ga=TINY_GA, refine=refine, universes=2, block_reps=1)


@dataclass
class Universe:
    master_seed: int
    universe: object
    pool: object
    setup_wall_s: float
    setup_s: float  # rescaled to the reference machine speed


@dataclass
class Outcome:
    """What a replicate leaves behind once its outputs are checked."""

    universe: int
    rep: int
    ag: int
    wall_s: float
    seconds: float  # rescaled to the reference machine speed
    error: str | None = None
    evolved_total: int = 0
    final_total: int = 0
    unmatched: tuple[int, ...] = ()
    distinct_evolved: tuple = ()
    members: int = 0
    ceiling_start: int = 0
    improved: int = 0
    # Kept for the first round only, as input to the local-search probe.
    probe_input: tuple | None = None


def set_up(seed: int, wl: Workload, ui: int, tracer, clock: ReferenceClock) -> Universe:
    """Build universe `ui` of the run and its type A pool, timing it."""
    master = seed * UNIVERSE_STRIDE + ui
    started = time.perf_counter()
    with tracer.span("generate_universe", "scheduling"):
        universe = generate_universe(default_base_problem(), derived_rng(master, "universe"))
    with tracer.span("build_libraries", "gene_library"):
        libset = build_libraries(universe)
    with tracer.span("generate_pool", "gene_library"):
        pool = generate_pool(libset, "A")
    wall = time.perf_counter() - started
    return Universe(master, universe, pool, wall, clock.rescale(wall))


def _replicate(wl: Workload, u: Universe, rep: int, ag: int, tracer):
    master = u.master_seed
    with tracer.span("replicate", "experiment"):
        sample = AntigenSample.draw(ag, derived_rng(master, "sample", ag, rep))
        with tracer.span("sample_initial", "population"):
            initial = sample_initial(
                u.pool, wl.ga.population_size, derived_rng(master, "init", ag, rep)
            )
        with tracer.span("Population.evaluate", "population"):
            initial.evaluate(u.universe, sample)
        with tracer.span("evolve", "evolution"):
            evolved = evolve(initial, u.universe, sample, wl.ga, derived_rng(master, "ga", ag, rep))
        final = evolved
        if wl.refine is not None:
            with tracer.span("refine_population", "local_search"):
                final = refine_population(
                    evolved, u.universe, sample, wl.refine, derived_rng(master, "refine", ag, rep)
                )
        with tracer.span("coverage", "experiment"):
            unmatched = tuple(coverage(final, u.universe, t) for t in THRESHOLDS)
    return sample, initial, evolved, final, unmatched


def run_pass(
    wl: Workload, seed: int, tracer, seconds: float, log=sys.stderr
) -> tuple[list[Universe], list[Outcome]]:
    """Run whole rounds (one replicate per ag size) until the fixed block is
    done and `seconds` have passed. Round k serves universe k mod U with
    replicate index k div U, so the first rounds are the block. Each
    universe is set up just before its first round, which spreads the
    set-ups over the run instead of timing them all in one stretch."""
    universes: list[Universe] = []
    outcomes: list[Outcome] = []
    clock = ReferenceClock()
    started = time.perf_counter()
    k = 0
    while k < wl.block_rounds or time.perf_counter() - started < seconds:
        ui, rep = k % wl.universes, k // wl.universes
        if ui == len(universes):
            universes.append(set_up(seed, wl, ui, tracer, clock))
        for ag in wl.ag_sizes:
            outcomes.append(
                _checked(wl, universes[ui], ui, rep, ag, tracer, clock, len(outcomes), k, log)
            )
        k += 1
    return universes, outcomes


def _checked(wl, u, ui, rep, ag, tracer, clock, index, round_index, log) -> Outcome:
    tracer.begin_replicate(index)
    started = time.perf_counter()
    try:
        sample, initial, evolved, final, unmatched = _replicate(wl, u, rep, ag, tracer)
    except Exception:
        wall = time.perf_counter() - started
        tracer.end_replicate()
        traceback.print_exc(file=log)
        return Outcome(ui, rep, ag, wall, clock.rescale(wall), error="raised")
    wall = time.perf_counter() - started
    tracer.end_replicate()
    outcome = Outcome(ui, rep, ag, wall, clock.rescale(wall))
    try:
        check_replicate(wl, u.universe, sample, initial, evolved, final, unmatched)
    except CheckFailed as err:
        print(f"replicate u{ui} rep {rep} ag {ag}: {err}", file=log)
        outcome.error = str(err)
        return outcome
    ceiling = max_fitness(ag)
    outcome.evolved_total = evolved.total_fitness
    outcome.final_total = final.total_fitness
    outcome.unmatched = unmatched
    outcome.distinct_evolved = tuple({ab.jobs: ab for ab in evolved.antibodies}.values())
    outcome.members = evolved.size
    outcome.ceiling_start = sum(1 for f in evolved.fitnesses if f == ceiling)
    outcome.improved = sum(1 for b, a in zip(evolved.fitnesses, final.fitnesses) if a > b)
    if round_index == 0:
        outcome.probe_input = (u, sample, evolved)
    return outcome


class CheckFailed(Exception):
    pass


def _reference_count(sequence: tuple[int, ...], jobs: tuple[int, ...]) -> int:
    """Best number of agreeing positions over every offset, by brute force."""
    return max(
        sum(map(operator.eq, jobs, sequence[offset : offset + len(jobs)]))
        for offset in range(len(sequence) - len(jobs) + 1)
    )


def check_replicate(wl, universe, sample, initial, evolved, final, unmatched) -> None:
    """Check a replicate's outputs against an independent reference.

    Raises CheckFailed when an antibody holds a duplicate or out-of-range
    job, a cached fitness differs from the reference, the population size
    changed, evolution lost its best member, refinement lowered any
    member's fitness, or the coverage counts are wrong or not monotone in
    the threshold.
    """
    antigens = [a.sequence for a in universe.antigens]
    counts: dict[tuple[int, ...], list[int]] = {}

    def best_counts(jobs):
        if jobs not in counts:
            counts[jobs] = [_reference_count(seq, jobs) for seq in antigens]
        return counts[jobs]

    for label, pop in (("initial", initial), ("evolved", evolved), ("final", final)):
        if pop.size != wl.ga.population_size:
            raise CheckFailed(f"{label} population has {pop.size} members")
        if pop.fitnesses is None:
            raise CheckFailed(f"{label} population is not evaluated")
        for ab, fit in zip(pop.antibodies, pop.fitnesses):
            jobs = ab.jobs
            if len(jobs) != ANTIBODY_LENGTH or len(set(jobs)) != ANTIBODY_LENGTH:
                raise CheckFailed(f"{label} antibody {jobs} is not {ANTIBODY_LENGTH} distinct jobs")
            if any(j not in JOB_IDS for j in jobs):
                raise CheckFailed(f"{label} antibody {jobs} holds an out-of-range job")
            row = best_counts(jobs)
            expected = POSITION_SCORE * sum(row[i] for i in sample.indices)
            if fit != expected:
                raise CheckFailed(f"{label} antibody {jobs} has fitness {fit}, expected {expected}")
    if max(evolved.fitnesses) < max(initial.fitnesses):
        raise CheckFailed("evolution lost the initial population's best member")
    if any(a < b for b, a in zip(evolved.fitnesses, final.fitnesses)):
        raise CheckFailed("refinement lowered a member's fitness")
    expected_unmatched = tuple(
        sum(
            1
            for i in range(len(antigens))
            if not any(best_counts(ab.jobs)[i] >= t for ab in final.antibodies)
        )
        for t in THRESHOLDS
    )
    if unmatched != expected_unmatched:
        raise CheckFailed(f"coverage {unmatched}, expected {expected_unmatched}")
    if any(b < a for a, b in zip(unmatched, unmatched[1:])):
        raise CheckFailed(f"coverage {unmatched} decreases with the threshold")


def block(wl: Workload, outcomes: list[Outcome]) -> list[Outcome]:
    return [o for o in outcomes if o.rep < wl.block_reps]


def emit_block(
    wl: Workload, universes: list[Universe], outcomes: list[Outcome], out_dir: Path
) -> str | None:
    """Write coverage.csv and fitness.csv with `emit_reports` for each
    universe's block, and return one digest over all of them (None when a
    block replicate failed, so there is nothing complete to digest)."""
    rows = block(wl, outcomes)
    if len(rows) != wl.block_size or any(o.error for o in rows):
        return None
    digest = hashlib.sha256()
    for ui, u in enumerate(universes):
        mine = [o for o in rows if o.universe == ui]
        cells = {
            (t, ag): sum(o.unmatched[i] for o in mine if o.ag == ag) / wl.block_reps
            for i, t in enumerate(THRESHOLDS)
            for ag in wl.ag_sizes
        }
        table = CoverageTable(THRESHOLDS, wl.ag_sizes, cells)
        before = {ag: [o.evolved_total for o in mine if o.ag == ag] for ag in wl.ag_sizes}
        after, improvements = {}, {}
        if wl.refine is not None:
            after = {ag: [o.final_total for o in mine if o.ag == ag] for ag in wl.ag_sizes}
            improvements = {ag: fitness_improvement(before[ag], after[ag]) for ag in wl.ag_sizes}
        cfg = ExperimentConfig(
            population_type="A",
            ag_sample_sizes=wl.ag_sizes,
            thresholds=THRESHOLDS,
            replicates=wl.block_reps,
            phase2=wl.phase2,
            ga=wl.ga,
            sa=wl.refine if isinstance(wl.refine, SAConfig) else SAConfig(),
            gd=wl.refine if isinstance(wl.refine, GDConfig) else GDConfig(),
            master_seed=u.master_seed,
        )
        target = out_dir / f"u{ui:02d}"
        emit_reports(table, RunReport(before, after, improvements, {}), cfg, target)
        digest.update(f"universe {ui}\n".encode())
        digest.update((target / COVERAGE_CSV).read_bytes())
        digest.update((target / FITNESS_CSV).read_bytes())
    return digest.hexdigest()


def quality(wl: Workload, outcomes: list[Outcome]) -> tuple[float, float]:
    """fitness_ratio and unmatched_mean over the block's checked replicates."""
    rows = [o for o in block(wl, outcomes) if not o.error]
    if not rows:
        return 0.0, 0.0  # every block replicate failed; the run is incorrect anyway
    attainable = sum(wl.ga.population_size * max_fitness(o.ag) for o in rows)
    ratio = sum(o.final_total for o in rows) / attainable
    unmatched = sum(sum(o.unmatched) / len(THRESHOLDS) for o in rows) / len(rows)
    return ratio, unmatched
