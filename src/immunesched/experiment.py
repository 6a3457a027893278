"""End-to-end experiment runner: coverage tables and fitness-improvement reports.

One experiment builds (or loads) the antigen universe and the typed
antibody pool, then for every antigen-sample size runs the replicate
protocol: draw a fresh antigen sample, sample an initial population,
evolve it, optionally refine it, and score the resulting population's
coverage of all ten antigens at every matching threshold. Replicate seeds
derive deterministically from the master seed, so the whole pipeline is a
pure function of its configuration. The per-stage functions (draw_sample,
evolve_replicate, refine_replicate) hold the only seed paths; the CLI's
stage subcommands call them as replicate 0.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TextIO

from .evolution import GAConfig, evolve
from .gene_library import AntibodyPool, build_libraries, generate_pool
from .local_search import GDConfig, NeighborOperator, SAConfig, refine_population
from .matching import AntigenSample, is_matched
from .population import Population, sample_initial
from .scheduling import (
    UNIVERSE_SIZE,
    AntigenUniverse,
    default_base_problem,
    generate_universe,
    load_base_problem,
    load_universe,
)

PHASE2_CHOICES = ("none", "sa", "gd")

COVERAGE_CSV = "coverage.csv"
FITNESS_CSV = "fitness.csv"
MANIFEST_JSON = "run.json"


def derived_rng(master_seed: int, *parts: object) -> random.Random:
    """A generator seeded from the master seed and a stage path, e.g.
    ("sample", ag_size, replicate). String seeding is platform-stable."""
    return random.Random("/".join(str(p) for p in (master_seed, *parts)))


@dataclass
class ExperimentConfig:
    universe_path: str | None = None
    base_problem_path: str | None = None
    population_type: str = "A"
    ag_sample_sizes: tuple[int, ...] = (1, 4, 8)
    thresholds: tuple[int, ...] = (2, 3, 4, 5)
    replicates: int = 10
    phase2: str = "none"
    ga: GAConfig = field(default_factory=GAConfig)
    sa: SAConfig = field(default_factory=SAConfig)
    gd: GDConfig = field(default_factory=GDConfig)
    master_seed: int = 0

    def __post_init__(self) -> None:
        self.population_type = self.population_type.upper()
        if self.phase2 not in PHASE2_CHOICES:
            raise ValueError(f"phase2 must be one of {PHASE2_CHOICES}")
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        sizes = tuple(sorted(self.ag_sample_sizes))
        if len(set(sizes)) != len(sizes):
            raise ValueError("ag sample sizes must be distinct")
        if any(not 1 <= s <= UNIVERSE_SIZE for s in sizes):
            raise ValueError(f"ag sample sizes must lie in 1..{UNIVERSE_SIZE}")
        self.ag_sample_sizes = sizes
        self.thresholds = tuple(sorted(self.thresholds))


@dataclass(frozen=True)
class CoverageTable:
    """Average number of antigens (out of 10) unmatched by any antibody,
    by matching threshold (rows) and antigen sample size (columns)."""

    thresholds: tuple[int, ...]
    ag_sizes: tuple[int, ...]
    cells: dict[tuple[int, int], float]

    def __post_init__(self) -> None:
        for t in self.thresholds:
            for ag in self.ag_sizes:
                value = self.cells[(t, ag)]
                if not 0.0 <= value <= UNIVERSE_SIZE:
                    raise ValueError(f"cell ({t},{ag}) = {value} outside 0..{UNIVERSE_SIZE}")
        for ag in self.ag_sizes:
            previous = None
            for t in self.thresholds:
                value = self.cells[(t, ag)]
                if previous is not None and value < previous:
                    raise ValueError(
                        f"unmatched counts must not decrease with threshold (ag={ag})"
                    )
                previous = value

    def cell(self, threshold: int, ag_size: int) -> float:
        return self.cells[(threshold, ag_size)]


@dataclass
class RunReport:
    """Per-replicate fitness totals, improvement percentages and timings.

    `after_totals` and `improvements` are empty when no phase-two method
    ran. Timings are wall-clock seconds per pipeline stage.
    """

    before_totals: dict[int, list[int]]
    after_totals: dict[int, list[int]]
    improvements: dict[int, float]
    timings: dict[str, object]


def coverage(pop: Population, universe: AntigenUniverse, threshold: int) -> int:
    """Number of universe antigens matched by no antibody at the threshold.

    Always evaluated against all ten antigens, whatever sample the
    population was trained on.
    """
    # Evolved populations hold few distinct antibodies; score each once.
    distinct = {ab.jobs: ab for ab in pop.antibodies}.values()
    unmatched = 0
    for antigen in universe.antigens:
        if not any(is_matched(antigen, ab, threshold) for ab in distinct):
            unmatched += 1
    return unmatched


def fitness_improvement(before: list[int], after: list[int]) -> float:
    """Percentage change of the summed fitness totals across replicates."""
    if len(before) != len(after):
        raise ValueError(
            f"before/after replicate counts differ ({len(before)} vs {len(after)})"
        )
    total_before = sum(before)
    total_after = sum(after)
    if total_before == 0:
        raise ValueError("total fitness before refinement is zero")
    return 100.0 * (total_after - total_before) / total_before


def resolve_universe(cfg: ExperimentConfig) -> AntigenUniverse:
    """Load the configured universe file, or generate one from the base problem."""
    if cfg.universe_path:
        return load_universe(cfg.universe_path)
    if cfg.base_problem_path:
        base = load_base_problem(cfg.base_problem_path)
    else:
        base = default_base_problem()
    return generate_universe(base, derived_rng(cfg.master_seed, "universe"))


def draw_sample(cfg: ExperimentConfig, ag: int, rep: int) -> AntigenSample:
    """The antigen sample that replicate `rep` of ag sample size `ag` trains on."""
    return AntigenSample.draw(ag, derived_rng(cfg.master_seed, "sample", ag, rep))


def evolve_replicate(
    cfg: ExperimentConfig,
    universe: AntigenUniverse,
    pool: AntibodyPool,
    sample: AntigenSample,
    ag: int,
    rep: int,
    stats_stream: TextIO | None = None,
) -> Population:
    """Phase one of a replicate: sample an initial population and evolve it."""
    pop = sample_initial(
        pool, cfg.ga.population_size, derived_rng(cfg.master_seed, "init", ag, rep)
    )
    pop.evaluate(universe, sample)
    rng = derived_rng(cfg.master_seed, "ga", ag, rep)
    return evolve(pop, universe, sample, cfg.ga, rng, stats_stream=stats_stream)


def refine_replicate(
    cfg: ExperimentConfig,
    universe: AntigenUniverse,
    pop: Population,
    sample: AntigenSample,
    ag: int,
    rep: int,
) -> Population:
    """Phase two of a replicate: refine an evaluated population with cfg.phase2."""
    if cfg.phase2 == "none":
        raise ValueError("phase2 is 'none'; there is no refinement to run")
    method = cfg.sa if cfg.phase2 == "sa" else cfg.gd
    rng = derived_rng(cfg.master_seed, "refine", ag, rep)
    return refine_population(pop, universe, sample, method, rng)


def run_experiment(cfg: ExperimentConfig) -> tuple[CoverageTable, RunReport]:
    """Run the full replicate protocol and aggregate coverage and fitness."""
    run_start = time.perf_counter()
    universe = resolve_universe(cfg)
    t0 = time.perf_counter()
    libset = build_libraries(universe)
    pool = generate_pool(libset, cfg.population_type)
    pool_seconds = time.perf_counter() - t0

    unmatched_sums: dict[tuple[int, int], int] = {
        (t, ag): 0 for t in cfg.thresholds for ag in cfg.ag_sample_sizes
    }
    before_totals: dict[int, list[int]] = {}
    after_totals: dict[int, list[int]] = {}
    improvements: dict[int, float] = {}
    phase1_seconds = {ag: 0.0 for ag in cfg.ag_sample_sizes}
    phase2_seconds = {ag: 0.0 for ag in cfg.ag_sample_sizes}
    coverage_seconds = {ag: 0.0 for ag in cfg.ag_sample_sizes}

    for ag in cfg.ag_sample_sizes:
        before_totals[ag] = []
        per_replicate_after: list[int] = []
        for rep in range(cfg.replicates):
            try:
                sample = draw_sample(cfg, ag, rep)
                t0 = time.perf_counter()
                result = evolve_replicate(cfg, universe, pool, sample, ag, rep)
                phase1_seconds[ag] += time.perf_counter() - t0
                before_totals[ag].append(result.total_fitness)
                if cfg.phase2 != "none":
                    t0 = time.perf_counter()
                    result = refine_replicate(cfg, universe, result, sample, ag, rep)
                    phase2_seconds[ag] += time.perf_counter() - t0
                    per_replicate_after.append(result.total_fitness)
                t0 = time.perf_counter()
                for threshold in cfg.thresholds:
                    unmatched_sums[(threshold, ag)] += coverage(result, universe, threshold)
                coverage_seconds[ag] += time.perf_counter() - t0
            except Exception as err:
                raise RuntimeError(
                    f"replicate {rep} (ag sample size {ag}) failed: {err}"
                ) from err
        if cfg.phase2 != "none":
            after_totals[ag] = per_replicate_after
            improvements[ag] = fitness_improvement(before_totals[ag], per_replicate_after)

    cells = {key: total / cfg.replicates for key, total in unmatched_sums.items()}
    table = CoverageTable(cfg.thresholds, cfg.ag_sample_sizes, cells)
    timings: dict[str, object] = {
        "pool_build_seconds": pool_seconds,
        "phase1_seconds": phase1_seconds,
        "phase2_seconds": phase2_seconds,
        "coverage_seconds": coverage_seconds,
        "total_seconds": time.perf_counter() - run_start,
    }
    return table, RunReport(before_totals, after_totals, improvements, timings)


def emit_reports(
    table: CoverageTable,
    report: RunReport,
    cfg: ExperimentConfig,
    out_dir: str | Path,
) -> None:
    """Write coverage.csv, fitness.csv and the run.json manifest.

    The CSVs are deterministic for a fixed configuration and master seed;
    wall-clock timings live only in the manifest.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    lines = ["threshold," + ",".join(str(ag) for ag in table.ag_sizes)]
    for t in table.thresholds:
        row = ",".join(f"{table.cell(t, ag):.1f}" for ag in table.ag_sizes)
        lines.append(f"{t},{row}")
    (out / COVERAGE_CSV).write_text("\n".join(lines) + "\n")

    lines = ["ag,phase1_total,phase2_total,improvement_pct"]
    for ag in sorted(report.before_totals):
        phase1_total = sum(report.before_totals[ag])
        if ag in report.after_totals:
            phase2_total = str(sum(report.after_totals[ag]))
            pct = f"{report.improvements[ag]:.1f}"
        else:
            phase2_total = ""
            pct = ""
        lines.append(f"{ag},{phase1_total},{phase2_total},{pct}")
    (out / FITNESS_CSV).write_text("\n".join(lines) + "\n")

    manifest = {
        "config": asdict(cfg),
        "master_seed": cfg.master_seed,
        "report": asdict(report),
    }
    (out / MANIFEST_JSON).write_text(json.dumps(manifest, indent=2) + "\n")


def config_from_manifest(path: str | Path) -> ExperimentConfig:
    """Rebuild the configuration recorded in a run.json manifest."""
    data = json.loads(Path(path).read_text())["config"]
    for key, kind in (("ga", GAConfig), ("sa", SAConfig), ("gd", GDConfig)):
        if key in data:
            fields = data[key]
            if "operator" in fields:
                fields["operator"] = NeighborOperator(fields["operator"])
            data[key] = kind(**fields)
    return ExperimentConfig(**data)
