"""Seed-pinned golden outputs: any change to the RNG stream shows up here.

Each experiment case runs a small experiment and compares the written
coverage.csv and fitness.csv byte for byte with the files under
tests/golden/<case>/. Each trace case refines one antibody with a trace
and compares the trace bytes with tests/golden/trace/<method>.csv. The
evolve cases run the full default phase one (250 generations) of
replicate 0 and compare its per-generation statistics and final
population with tests/golden/evolve/. A change that alters the random
stream on purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py [case ...]

(all cases when none is named) and says so in CHANGES.md.
"""

import io
import random
import sys
from pathlib import Path

import pytest

from immunesched import (
    AntigenSample,
    ExperimentConfig,
    GAConfig,
    GDConfig,
    NeighborOperator,
    SAConfig,
    build_libraries,
    default_base_problem,
    emit_reports,
    generate_pool,
    generate_universe,
    refine,
    run_experiment,
    save_population,
)
from immunesched.experiment import (
    COVERAGE_CSV,
    FITNESS_CSV,
    draw_sample,
    evolve_replicate,
    resolve_universe,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
CSVS = (COVERAGE_CSV, FITNESS_CSV)
SWAP = NeighborOperator.SWAP_TWO_JOBS
# Experiment cases: name -> (phase2, ExperimentConfig overrides).
CASES = {
    "none": ("none", {}),
    "sa": ("sa", {}),
    "gd": ("gd", {}),
    "sa-swap": ("sa", {"sa": SAConfig(operator=SWAP)}),
    "gd-swap-nostag": ("gd", {"gd": GDConfig(operator=SWAP, stagnation_limit=None)}),
    # The swap neighbourhood is exhausted within ~30 steps, so only the
    # change operator shows whether chains without a limit run to the end.
    "gd-nostag": ("gd", {"gd": GDConfig(stagnation_limit=None)}),
    "type-b": ("none", {"population_type": "B"}),
    "type-c": ("none", {"population_type": "C"}),
}
# Trace cases: method -> refinement config.
TRACES = {"sa": SAConfig(), "gd": GDConfig()}
# Evolve cases: the default protocol's ag sample sizes.
EVOLVE_AGS = (1, 4, 8)


def golden_config(case: str) -> ExperimentConfig:
    # Three generations leave phase one short of the fitness ceiling, so
    # every stage (evolve, SA, GD) still moves the totals: after a few
    # dozen generations the population collapses onto one antibody and a
    # change to the random stream could pass unseen.
    phase2, overrides = CASES[case]
    return ExperimentConfig(
        ag_sample_sizes=(1, 8),
        replicates=2,
        phase2=phase2,
        ga=GAConfig(generations=3),
        master_seed=11,
        **overrides,
    )


def write_case(case: str, out_dir: Path) -> None:
    cfg = golden_config(case)
    table, report = run_experiment(cfg)
    emit_reports(table, report, cfg, out_dir)


def trace_bytes(method: str) -> bytes:
    """The trace of one chain against four antigens from a start well below
    the ceiling: both chains accept worse candidates and improve the best
    several times, and GD stops at its stagnation limit after 84 steps."""
    cfg = TRACES[method]
    universe = generate_universe(default_base_problem(), random.Random(11))
    pool = generate_pool(build_libraries(universe), "A")
    sample = AntigenSample.draw(4, random.Random("golden-trace"))
    trace = io.StringIO()
    refine(pool[18], universe, sample, cfg, random.Random(11), trace=trace)
    return trace.getvalue().encode()


def write_evolve(ag: int, out_dir: Path) -> None:
    """Replicate 0's default phase one at master seed 11, as `immunesched
    evolve --seed 11 --ag-sample <ag> --stats` writes it: the stats CSV and
    the saved final population. The three-generation experiment cases
    stop short of convergence; these pin the whole default run, in which
    each population collapses onto one antibody by generation 7."""
    cfg = ExperimentConfig(master_seed=11)
    universe = resolve_universe(cfg)
    pool = generate_pool(build_libraries(universe), cfg.population_type)
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / f"ag{ag}-stats.csv").open("w") as stats:
        final = evolve_replicate(
            cfg, universe, pool, draw_sample(cfg, ag, 0), 0, stats_stream=stats
        )
    save_population(final, out_dir / f"ag{ag}-population.txt")


@pytest.mark.parametrize("case", CASES)
def test_csvs_match_golden(case, tmp_path):
    write_case(case, tmp_path)
    for name in CSVS:
        expected = (GOLDEN / case / name).read_bytes()
        assert (tmp_path / name).read_bytes() == expected, f"{case}/{name} changed"


@pytest.mark.parametrize("method", TRACES)
def test_trace_matches_golden(method):
    expected = (GOLDEN / "trace" / f"{method}.csv").read_bytes()
    assert trace_bytes(method) == expected, f"trace/{method}.csv changed"


@pytest.mark.parametrize("ag", EVOLVE_AGS)
def test_evolve_matches_golden(ag, tmp_path):
    write_evolve(ag, tmp_path)
    for path in sorted(tmp_path.iterdir()):
        expected = (GOLDEN / "evolve" / path.name).read_bytes()
        assert path.read_bytes() == expected, f"evolve/{path.name} changed"


if __name__ == "__main__":
    names = sys.argv[1:] or [*CASES, *(f"trace/{m}" for m in TRACES), "evolve"]
    for name in names:
        if name == "evolve":
            target = GOLDEN / "evolve"
            for ag in EVOLVE_AGS:
                write_evolve(ag, target)
        elif name.startswith("trace/"):
            target = GOLDEN / f"{name}.csv"
            target.parent.mkdir(exist_ok=True)
            target.write_bytes(trace_bytes(name.removeprefix("trace/")))
        else:
            target = GOLDEN / name
            write_case(name, target)
            (target / "run.json").unlink()
        print(f"wrote {target}", file=sys.stderr)
