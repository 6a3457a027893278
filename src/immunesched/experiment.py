"""End-to-end experiment runner: coverage tables and fitness-improvement reports.

One experiment builds (or loads) the antigen universe and the typed
antibody pool, then for every antigen-sample size runs the replicate
protocol: draw a fresh antigen sample, sample an initial population,
evolve it, optionally refine it, and score the resulting population's
coverage of all ten antigens at every matching threshold. Replicate seeds
derive deterministically from the master seed, so the whole pipeline is a
pure function of its configuration. resolve_universe derives the
"universe" path and the per-stage functions (draw_sample, evolve_replicate,
refine_replicate) derive the rest; the CLI's stage subcommands call them as
replicate 0.
"""

from __future__ import annotations

import json
import platform
import random
import time
from dataclasses import asdict, dataclass, field, fields
from itertools import pairwise
from pathlib import Path
from typing import TextIO

from . import __version__
from .evolution import GAConfig, evolve
from .gene_library import POPULATION_TYPES, Antibody, build_libraries, generate_pool
from .local_search import GDConfig, SAConfig, refine_population
from .matching import AntigenSample, coverage
from .population import Population, sample_initial
from .scheduling import (
    ANTIBODY_LENGTH,
    UNIVERSE_SIZE,
    AntigenUniverse,
    check_fields,
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


@dataclass(frozen=True)
class ExperimentConfig:
    universe_path: str | None = None
    base_problem_path: str | None = None
    population_type: str = field(default="A", metadata={"choices": POPULATION_TYPES})
    ag_sample_sizes: tuple[int, ...] = field(
        default=(1, 4, 8), metadata={"range": (1, UNIVERSE_SIZE)}
    )
    # A threshold counts agreeing positions, so only 1..ANTIBODY_LENGTH can
    # separate matched antigens from unmatched ones.
    thresholds: tuple[int, ...] = field(
        default=(2, 3, 4, 5), metadata={"range": (1, ANTIBODY_LENGTH)}
    )
    replicates: int = field(default=10, metadata={"range": (1, None)})
    phase2: str = field(default="none", metadata={"choices": PHASE2_CHOICES})
    ga: GAConfig = field(default_factory=GAConfig)
    sa: SAConfig = field(default_factory=SAConfig)
    gd: GDConfig = field(default_factory=GDConfig)
    master_seed: int = 0

    def __post_init__(self) -> None:
        if type(self.population_type) is str:  # check_fields rejects any other kind
            object.__setattr__(self, "population_type", self.population_type.upper())
        check_fields(self)


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
            column = [self.cells[(t, ag)] for t in self.thresholds]
            if any(b < a for a, b in pairwise(column)):
                raise ValueError(f"unmatched counts must not decrease with threshold (ag={ag})")

    def cell(self, threshold: int, ag_size: int) -> float:
        return self.cells[(threshold, ag_size)]


@dataclass
class RunReport:
    """Per-replicate fitness totals, improvement percentages and timings.

    `after_totals` and `improvements` are empty when no phase-two method
    ran. Timings are wall-clock seconds per pipeline stage.
    `distinct_members` counts the distinct antibodies of each replicate's
    evolved population.
    """

    before_totals: dict[int, list[int]]
    after_totals: dict[int, list[int]]
    improvements: dict[int, float]
    timings: dict[str, object]
    distinct_members: dict[int, list[int]] = field(default_factory=dict)


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
    pool: tuple[Antibody, ...],
    sample: AntigenSample,
    rep: int,
    stats_stream: TextIO | None = None,
) -> Population:
    """Phase one of a replicate: sample an initial population and evolve it."""
    pop = sample_initial(
        pool, cfg.ga.population_size, derived_rng(cfg.master_seed, "init", sample.size, rep)
    )
    pop.evaluate(universe, sample)
    rng = derived_rng(cfg.master_seed, "ga", sample.size, rep)
    return evolve(pop, universe, sample, cfg.ga, rng, stats_stream=stats_stream)


def refine_replicate(
    cfg: ExperimentConfig,
    universe: AntigenUniverse,
    pop: Population,
    sample: AntigenSample,
    rep: int,
) -> Population:
    """Phase two of a replicate: refine an evaluated population with cfg.phase2."""
    if cfg.phase2 == "none":
        raise ValueError("phase2 is 'none'; there is no refinement to run")
    method = cfg.sa if cfg.phase2 == "sa" else cfg.gd
    rng = derived_rng(cfg.master_seed, "refine", sample.size, rep)
    return refine_population(pop, universe, sample, method, rng)


def run_experiment(cfg: ExperimentConfig) -> tuple[CoverageTable, RunReport]:
    """Run the full replicate protocol and aggregate coverage and fitness.
    Each replicate adds its totals, distinct members and stage seconds to
    the report as it finishes."""
    run_start = time.perf_counter()
    universe = resolve_universe(cfg)
    t0 = time.perf_counter()
    pool = generate_pool(build_libraries(universe), cfg.population_type)
    report = RunReport({}, {}, {}, {"pool_build_seconds": time.perf_counter() - t0}, {})
    for stage in ("phase1_seconds", "phase2_seconds", "coverage_seconds"):
        report.timings[stage] = dict.fromkeys(cfg.ag_sample_sizes, 0.0)
    unmatched_sums: dict[tuple[int, int], int] = {
        (t, ag): 0 for t in cfg.thresholds for ag in cfg.ag_sample_sizes
    }

    for ag in cfg.ag_sample_sizes:
        for rep in range(cfg.replicates):
            try:
                sample = draw_sample(cfg, ag, rep)
                t0 = time.perf_counter()
                result = evolve_replicate(cfg, universe, pool, sample, rep)
                report.timings["phase1_seconds"][ag] += time.perf_counter() - t0
                report.before_totals.setdefault(ag, []).append(result.total_fitness)
                distinct = len({ab.jobs for ab in result.antibodies})
                report.distinct_members.setdefault(ag, []).append(distinct)
                if cfg.phase2 != "none":
                    t0 = time.perf_counter()
                    result = refine_replicate(cfg, universe, result, sample, rep)
                    report.timings["phase2_seconds"][ag] += time.perf_counter() - t0
                    report.after_totals.setdefault(ag, []).append(result.total_fitness)
                t0 = time.perf_counter()
                for threshold in cfg.thresholds:
                    unmatched_sums[(threshold, ag)] += coverage(result, universe, threshold)
                report.timings["coverage_seconds"][ag] += time.perf_counter() - t0
            except Exception as err:
                raise RuntimeError(
                    f"replicate {rep} (ag sample size {ag}) failed: {err}"
                ) from err
        if cfg.phase2 != "none":
            report.improvements[ag] = fitness_improvement(
                report.before_totals[ag], report.after_totals[ag]
            )

    cells = {key: total / cfg.replicates for key, total in unmatched_sums.items()}
    report.timings["total_seconds"] = time.perf_counter() - run_start
    return CoverageTable(cfg.thresholds, cfg.ag_sample_sizes, cells), report


def emit_reports(
    table: CoverageTable,
    report: RunReport,
    cfg: ExperimentConfig,
    out_dir: str | Path,
) -> None:
    """Write coverage.csv, fitness.csv and the run.json manifest.

    The CSVs are deterministic for a fixed configuration and master seed;
    wall-clock timings, and the package and Python versions that wrote the
    run, live only in the manifest.
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
        "immunesched_version": __version__,
        "python_version": platform.python_version(),
        "report": asdict(report),
    }
    (out / MANIFEST_JSON).write_text(json.dumps(manifest, indent=2) + "\n")


def config_from_manifest(path: str | Path) -> ExperimentConfig:
    """Rebuild the configuration recorded in a run.json manifest. A key
    missing from a block, or unknown to it, fails by its name."""
    manifest = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    if not isinstance(manifest, dict) or "config" not in manifest:
        raise ValueError("missing key 'config'")
    if not isinstance(data := manifest["config"], dict):
        raise ValueError("config must be an object")
    for key, kind in (("ga", GAConfig), ("sa", SAConfig), ("gd", GDConfig)):
        if isinstance(data.get(key), dict):  # anything else is the checker's to reject
            data[key] = _from_block(kind, data[key], f"{key}.")
    return _from_block(ExperimentConfig, data, "")


def _from_block(kind: type, block: dict, prefix: str):
    """`kind(**block)`, once `block` holds exactly `kind`'s fields."""
    if odd := sorted(block.keys() ^ {f.name for f in fields(kind)}):
        raise ValueError(f"{'unknown' if odd[0] in block else 'missing'} key '{prefix}{odd[0]}'")
    return kind(**block)
