import csv
import json
import random

import pytest

from immunesched import (
    Antibody,
    AntigenSample,
    CoverageTable,
    ExperimentConfig,
    GAConfig,
    GDConfig,
    NeighborOperator,
    Population,
    RunReport,
    SAConfig,
    build_libraries,
    config_from_manifest,
    coverage,
    default_base_problem,
    emit_reports,
    fitness_improvement,
    generate_pool,
    generate_universe,
    is_matched,
    run_experiment,
    sample_initial,
)


@pytest.fixture(scope="module")
def universe():
    return generate_universe(default_base_problem(), random.Random(17))


@pytest.fixture(scope="module")
def pool(universe):
    return generate_pool(build_libraries(universe), "A")


def small_config(**overrides):
    defaults = dict(
        ag_sample_sizes=(1, 4),
        thresholds=(2, 3, 4, 5),
        replicates=2,
        ga=GAConfig(generations=5, population_size=20),
        master_seed=13,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_coverage_empty_population_misses_everything(universe):
    assert coverage(Population([]), universe, 2) == 10


def test_coverage_zero_when_all_prefixes_present(universe):
    pop = Population([Antibody(ag.sequence[:5]) for ag in universe.antigens])
    assert coverage(pop, universe, 5) == 0


def test_coverage_counts_unmatched_antigens(universe, pool):
    pop = Population([Antibody(universe.antigens[0].sequence[:5])])
    expected = sum(
        1
        for ag in universe.antigens
        if not is_matched(ag, pop.antibodies[0], 5)
    )
    assert coverage(pop, universe, 5) == expected


def test_coverage_monotone_in_threshold(universe, pool):
    pop = sample_initial(pool, 40, random.Random(3))
    counts = [coverage(pop, universe, t) for t in range(2, 6)]
    assert counts == sorted(counts)


def test_coverage_monotone_under_antibody_addition(universe, pool):
    rng = random.Random(5)
    pop = sample_initial(pool, 20, rng)
    extended = Population(pop.antibodies + [pool.antibodies[0]])
    for t in range(2, 6):
        assert coverage(extended, universe, t) <= coverage(pop, universe, t)


def test_fitness_improvement_values():
    assert fitness_improvement([10, 20], [10, 20]) == 0.0
    assert fitness_improvement([600, 400], [700, 585]) == 28.5
    with pytest.raises(ValueError):
        fitness_improvement([0, 0], [5, 5])
    with pytest.raises(ValueError):
        fitness_improvement([1, 2], [1])


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(phase2="annealing")
    with pytest.raises(ValueError):
        ExperimentConfig(replicates=0)
    with pytest.raises(ValueError):
        ExperimentConfig(ag_sample_sizes=(1, 1))
    with pytest.raises(ValueError):
        ExperimentConfig(ag_sample_sizes=(0, 4))
    cfg = ExperimentConfig(population_type="b", ag_sample_sizes=(8, 1))
    assert cfg.population_type == "B"
    assert cfg.ag_sample_sizes == (1, 8)


def test_coverage_table_validation():
    cells = {(2, 1): 1.0, (3, 1): 0.5}
    with pytest.raises(ValueError, match="decrease"):
        CoverageTable((2, 3), (1,), cells)
    with pytest.raises(ValueError, match="outside"):
        CoverageTable((2,), (1,), {(2, 1): 11.0})


def test_run_experiment_deterministic():
    first_table, first_report = run_experiment(small_config())
    second_table, second_report = run_experiment(small_config())
    assert first_table == second_table
    assert first_report.before_totals == second_report.before_totals


def test_run_experiment_structure():
    table, report = run_experiment(small_config())
    assert table.thresholds == (2, 3, 4, 5)
    assert table.ag_sizes == (1, 4)
    for key, value in table.cells.items():
        assert 0.0 <= value <= 10.0
    for ag in (1, 4):
        assert len(report.before_totals[ag]) == 2
    assert report.after_totals == {}
    assert report.improvements == {}
    assert report.timings["total_seconds"] > 0


def test_run_experiment_phase2_improvements_nonnegative():
    cfg = small_config(
        phase2="sa",
        sa=SAConfig(initial_temperature=20.0, final_temperature=0.5, cooling_factor=0.85),
    )
    _, report = run_experiment(cfg)
    for ag in (1, 4):
        assert sum(report.after_totals[ag]) >= sum(report.before_totals[ag])
        assert report.improvements[ag] >= 0.0


def test_run_experiment_gd_phase2():
    cfg = small_config(phase2="gd", gd=GDConfig(iterations=20))
    _, report = run_experiment(cfg)
    for ag in (1, 4):
        assert report.improvements[ag] >= 0.0


def test_emit_reports_roundtrip(tmp_path):
    cfg = small_config(phase2="gd", gd=GDConfig(iterations=15))
    table, report = run_experiment(cfg)
    emit_reports(table, report, cfg, tmp_path)

    with open(tmp_path / "coverage.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["threshold", "1", "4"]
    for row in rows[1:]:
        t = int(row[0])
        for ag, cell in zip((1, 4), row[1:]):
            assert float(cell) == float(f"{table.cell(t, ag):.1f}")

    with open(tmp_path / "fitness.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["ag", "phase1_total", "phase2_total", "improvement_pct"]
    by_ag = {int(r[0]): r for r in rows[1:]}
    for ag in (1, 4):
        assert int(by_ag[ag][1]) == sum(report.before_totals[ag])
        assert int(by_ag[ag][2]) == sum(report.after_totals[ag])

    manifest = json.loads((tmp_path / "run.json").read_text())
    assert manifest["master_seed"] == cfg.master_seed
    assert manifest["config"]["phase2"] == "gd"
    assert config_from_manifest(tmp_path / "run.json") == cfg


DEFAULT_CONFIG_BLOCK = """{
  "config": {
    "universe_path": null,
    "base_problem_path": null,
    "population_type": "A",
    "ag_sample_sizes": [
      1,
      4,
      8
    ],
    "thresholds": [
      2,
      3,
      4,
      5
    ],
    "replicates": 10,
    "phase2": "none",
    "ga": {
      "generations": 250,
      "crossover_rate": 0.7,
      "mutation_rate": 0.2,
      "tournament_size": 2,
      "population_size": 100
    },
    "sa": {
      "initial_temperature": 5000.0,
      "final_temperature": 0.05,
      "cooling_factor": 0.98,
      "operator": "change"
    },
    "gd": {
      "iterations": 120,
      "stagnation_limit": 30,
      "operator": "change"
    },
    "master_seed": 0
  },
  "master_seed": 0,
"""


def emit_config_only(cfg, out_dir):
    cells = {(t, ag): 0.0 for t in cfg.thresholds for ag in cfg.ag_sample_sizes}
    table = CoverageTable(cfg.thresholds, cfg.ag_sample_sizes, cells)
    emit_reports(table, RunReport({}, {}, {}, {}), cfg, out_dir)
    return out_dir / "run.json"


def test_manifest_config_block_format_is_pinned(tmp_path):
    path = emit_config_only(ExperimentConfig(), tmp_path)
    assert path.read_text().startswith(DEFAULT_CONFIG_BLOCK)
    assert config_from_manifest(path) == ExperimentConfig()


def test_manifest_roundtrips_non_default_config(tmp_path):
    swap = NeighborOperator.SWAP_TWO_JOBS
    cfg = ExperimentConfig(
        universe_path="u.txt",
        ag_sample_sizes=(8, 1, 4),
        phase2="sa",
        sa=SAConfig(operator=swap),
        gd=GDConfig(stagnation_limit=None, operator=swap),
        master_seed=3,
    )
    assert config_from_manifest(emit_config_only(cfg, tmp_path)) == cfg


def test_emit_reports_empty_phase2_columns(tmp_path):
    cfg = small_config()
    table, report = run_experiment(cfg)
    emit_reports(table, report, cfg, tmp_path)
    rows = (tmp_path / "fitness.csv").read_text().splitlines()
    assert rows[1].endswith(",,")


def test_manifest_rerun_reproduces_csv_bytes(tmp_path):
    cfg = small_config(phase2="sa", sa=SAConfig(initial_temperature=10.0, final_temperature=1.0, cooling_factor=0.8))
    table, report = run_experiment(cfg)
    first = tmp_path / "first"
    emit_reports(table, report, cfg, first)

    rerun_cfg = config_from_manifest(first / "run.json")
    rerun_table, rerun_report = run_experiment(rerun_cfg)
    second = tmp_path / "second"
    emit_reports(rerun_table, rerun_report, rerun_cfg, second)

    for name in ("coverage.csv", "fitness.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_run_experiment_with_universe_file(tmp_path, universe):
    from immunesched import save_universe

    path = tmp_path / "u.txt"
    save_universe(universe, path)
    cfg = small_config(universe_path=str(path), replicates=1)
    table, _ = run_experiment(cfg)
    assert table.ag_sizes == (1, 4)


def test_failed_replicate_names_its_index(universe, tmp_path):
    cfg = small_config(ga=GAConfig(generations=1, population_size=100_000))
    with pytest.raises(RuntimeError, match=r"replicate 0"):
        run_experiment(cfg)
