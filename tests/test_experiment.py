import csv
import dataclasses
import functools
import json
import math
import platform
import random

import pytest

import immunesched
from immunesched import (
    Antibody,
    AntigenUniverse,
    CoverageTable,
    ExperimentConfig,
    GAConfig,
    GDConfig,
    NeighborOperator,
    Population,
    RunReport,
    SAConfig,
    best_match,
    build_libraries,
    config_from_manifest,
    coverage,
    default_base_problem,
    emit_reports,
    fitness_improvement,
    generate_pool,
    generate_universe,
    resolve_universe,
    run_experiment,
    sample_initial,
)
from immunesched.experiment import draw_sample, evolve_replicate
from reference import reference_experiment


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
        if best_match(ag, pop.antibodies[0]).best_count < 5
    )
    assert coverage(pop, universe, 5) == expected


def test_coverage_monotone_in_threshold(universe, pool):
    pop = sample_initial(pool, 40, random.Random(3))
    counts = [coverage(pop, universe, t) for t in range(2, 6)]
    assert counts == sorted(counts)


def test_coverage_monotone_under_antibody_addition(universe, pool):
    rng = random.Random(5)
    pop = sample_initial(pool, 20, rng)
    extended = Population(pop.antibodies + [pool[0]])
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
    for field, value, message in [
        ("replicates", 2.5, "replicates must be an integer"),
        ("replicates", True, "replicates must be an integer"),
        ("ag_sample_sizes", (1.5,), "ag_sample_sizes must be integers"),
        ("ag_sample_sizes", (4, True), "ag_sample_sizes must be integers"),
        ("ag_sample_sizes", (), "ag_sample_sizes must not be empty"),
        ("thresholds", (2.5,), "thresholds must be integers"),
        ("thresholds", (3, 4.0), "thresholds must be integers"),
        ("master_seed", None, "master_seed must be an integer"),
        ("master_seed", "7", "master_seed must be an integer"),
        ("master_seed", 2.5, "master_seed must be an integer"),
        ("master_seed", True, "master_seed must be an integer"),
        ("population_type", 1, "population_type must be a string"),
        ("population_type", None, "population_type must be a string"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}"):
            ExperimentConfig(**{field: value})
    for thresholds in ((4, 4, 5), (4, 5, 5)):
        with pytest.raises(ValueError, match="thresholds must be distinct"):
            ExperimentConfig(thresholds=thresholds)
    with pytest.raises(ValueError, match="thresholds must not be empty"):
        ExperimentConfig(thresholds=())
    for thresholds in ((0, 2), (9,), (2, 6)):
        with pytest.raises(ValueError, match=r"thresholds must lie in 1\.\.5"):
            ExperimentConfig(thresholds=thresholds)
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


def test_manifest_records_distinct_members_per_replicate(tmp_path):
    cfg = small_config()
    table, report = run_experiment(cfg)
    emit_reports(table, report, cfg, tmp_path)
    recorded = json.loads((tmp_path / "run.json").read_text())["report"]["distinct_members"]
    universe = resolve_universe(cfg)
    pool = generate_pool(build_libraries(universe), cfg.population_type)
    expected = {}
    for ag in cfg.ag_sample_sizes:
        evolved = [
            evolve_replicate(cfg, universe, pool, draw_sample(cfg, ag, rep), rep)
            for rep in range(cfg.replicates)
        ]
        expected[str(ag)] = [len({ab.jobs for ab in pop.antibodies}) for pop in evolved]
    assert recorded == expected
    assert all(1 <= n <= cfg.ga.population_size for ns in recorded.values() for n in ns)


# (path into the manifest's config block, hand-edited value, expected message)
MANIFEST_EDITS = [
    (("ga", "generations"), 2.5, "generations must be an integer"),
    (("ga", "crossover_rate"), "0.5", "crossover_rate must be a number"),
    (("ga", "mutation_rate"), True, "mutation_rate must be a number"),
    (("sa", "initial_temperature"), "5000", "initial_temperature must be a number"),
    (("sa", "cooling_factor"), "0.9", "cooling_factor must be a number"),
    (("replicates",), 2.5, "replicates must be an integer"),
    (("ag_sample_sizes",), [1.5], "ag_sample_sizes must be integers"),
    (("ag_sample_sizes",), [], "ag_sample_sizes must not be empty"),
    (("thresholds",), [2.5], "thresholds must be integers"),
]


@pytest.mark.parametrize(
    "keys, value, message",
    MANIFEST_EDITS,
    ids=[f"{'.'.join(keys)}={value!r}" for keys, value, _ in MANIFEST_EDITS],
)
def test_manifest_with_a_fractional_count_is_rejected(tmp_path, keys, value, message):
    """A hand-edited run.json fails by the field's name, not by a bare
    TypeError from a comparison or from range()."""
    path = emit_config_only(small_config(), tmp_path)
    manifest = json.loads(path.read_text())
    *sections, key = keys
    block = manifest["config"]
    for section in sections:
        block = block[section]
    block[key] = value
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=f"^{message}"):
        config_from_manifest(path)


# Every config field's kind, written out apart from the annotations; a
# trailing "?" marks a field that may be None.
FIELD_KINDS = {
    GAConfig: {
        "generations": "int",
        "crossover_rate": "float",
        "mutation_rate": "float",
        "population_size": "int",
    },
    SAConfig: {
        "initial_temperature": "float",
        "final_temperature": "float",
        "cooling_factor": "float",
        "operator": "enum",
    },
    GDConfig: {"iterations": "int", "stagnation_limit": "int?", "operator": "enum"},
    ExperimentConfig: {
        "universe_path": "str?",
        "base_problem_path": "str?",
        "population_type": "str",
        "ag_sample_sizes": "ints",
        "thresholds": "ints",
        "replicates": "int",
        "phase2": "str",
        "ga": "config",
        "sa": "config",
        "gd": "config",
        "master_seed": "int",
    },
}
SECTIONS = {GAConfig: ("ga",), SAConfig: ("sa",), GDConfig: ("gd",), ExperimentConfig: ()}


def wrong_values(kind):
    """None (unless optional), a bool, a string, a float for an int, a list
    for a scalar or a scalar for a tuple, NaN and inf: those that apply."""
    values = [True, math.nan, math.inf] + ([] if kind.endswith("?") else [None])
    kind = kind.rstrip("?")
    if kind not in ("str", "enum"):
        values.append("3")
    values += {
        "int": [2.5, [3]],
        "float": [[0.5]],
        "str": [3, ["A"]],
        "enum": [["change"]],
        "config": [[3]],
        "ints": [[2.5], 5],
    }[kind]
    return values


WRONG_KIND_CASES = [
    (cls, name, value)
    for cls, kinds in FIELD_KINDS.items()
    for name, kind in kinds.items()
    for value in wrong_values(kind)
]


def test_field_kind_table_covers_every_config_field():
    for cls, kinds in FIELD_KINDS.items():
        assert [f.name for f in dataclasses.fields(cls)] == list(kinds)


@pytest.mark.parametrize(
    "cls, name, value",
    WRONG_KIND_CASES,
    ids=[f"{cls.__name__}.{name}={value!r}" for cls, name, value in WRONG_KIND_CASES],
)
def test_wrong_kind_is_rejected_by_name(tmp_path, cls, name, value):
    """A wrong kind fails with a ValueError that starts with the field's name,
    both from the constructor and from a hand-edited run.json."""
    with pytest.raises(ValueError, match=f"^{name} must "):
        cls(**{name: value})
    path = emit_config_only(ExperimentConfig(), tmp_path)
    manifest = json.loads(path.read_text())
    block = manifest["config"]
    for section in SECTIONS[cls]:
        block = block[section]
    block[name] = value
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=f"^{name} must "):
        config_from_manifest(path)


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


def test_manifest_with_a_byte_order_mark_reads_the_same(tmp_path):
    path = emit_config_only(small_config(phase2="gd"), tmp_path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert config_from_manifest(path) == small_config(phase2="gd")


@pytest.mark.parametrize(
    "cfg, name", [(ExperimentConfig(), "replicates"), (GAConfig(), "generations"),
                  (SAConfig(), "cooling_factor"), (GDConfig(), "iterations")],
)
def test_configs_are_frozen(cfg, name):
    """Assigning a field would skip the checks that the constructor runs."""
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cfg, name, 0)


def test_manifest_config_block_format_is_pinned(tmp_path):
    path = emit_config_only(ExperimentConfig(), tmp_path)
    assert path.read_text().startswith(DEFAULT_CONFIG_BLOCK)
    assert config_from_manifest(path) == ExperimentConfig()


def test_manifest_names_the_code_that_wrote_it_and_still_roundtrips(tmp_path):
    """run.json carries the package and Python versions beside the master
    seed, outside the config block, so config_from_manifest reads it back."""
    cfg = small_config(phase2="gd", master_seed=7)
    path = emit_config_only(cfg, tmp_path)
    manifest = json.loads(path.read_text())
    assert list(manifest) == [
        "config", "master_seed", "immunesched_version", "python_version", "report"
    ]
    assert manifest["immunesched_version"] == immunesched.__version__
    assert manifest["python_version"] == platform.python_version()
    assert config_from_manifest(path) == cfg


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


def edit_manifest(tmp_path, section, edit):
    """Write the default config's run.json with `edit` applied to the block
    at `section`, and return its path."""
    path = emit_config_only(ExperimentConfig(), tmp_path)
    manifest = json.loads(path.read_text())
    block = manifest["config"]
    for key in section:
        block = block[key]
    edit(block)
    path.write_text(json.dumps(manifest))
    return path


UNKNOWN_KEYS = [
    ((), "typo"),
    (("ga",), "typo"),
    (("sa",), "typo"),
    (("gd",), "typo"),
    # A run.json written while selection had a tournament size.
    (("ga",), "tournament_size"),
]


@pytest.mark.parametrize(
    "section, key", UNKNOWN_KEYS, ids=[f"section{i}" for i in range(len(UNKNOWN_KEYS))]
)
def test_manifest_unknown_key_is_named(tmp_path, section, key):
    """A key the config does not declare fails by its name, not by a bare
    TypeError from the constructor."""
    path = edit_manifest(tmp_path, section, lambda block: block.update({key: 2}))
    name = ".".join((*section, key))
    with pytest.raises(ValueError, match=f"^unknown key '{name}'$"):
        config_from_manifest(path)


MISSING_KEYS = [
    ((), "ga"),
    ((), "replicates"),
    (("ga",), "generations"),
    (("sa",), "operator"),
    (("gd",), "stagnation_limit"),
]


@pytest.mark.parametrize("section, key", MISSING_KEYS)
def test_manifest_missing_key_is_named(tmp_path, section, key):
    """A dropped key fails by its name; it is not filled in by its default."""
    path = edit_manifest(tmp_path, section, lambda block: block.pop(key))
    name = ".".join((*section, key))
    with pytest.raises(ValueError, match=f"^missing key '{name}'$"):
        config_from_manifest(path)


# (the manifest as written, expected message): no config object to rebuild.
NO_CONFIG_BLOCK = [
    ({"master_seed": 0}, "missing key 'config'"),
    ([{"config": {}}], "missing key 'config'"),
    ({"config": [1, 2]}, "config must be an object"),
]


@pytest.mark.parametrize(
    "manifest, message", NO_CONFIG_BLOCK, ids=["no-config", "top-level-list", "config-list"]
)
def test_manifest_without_a_config_object_is_rejected(tmp_path, manifest, message):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=f"^{message}$"):
        config_from_manifest(path)


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


def test_an_experiment_builds_its_universe_table_once(monkeypatch):
    """Every sample and replicate at every ag size, phase one and phase two
    alike, reads the one column table of the run's universe."""
    builds = []
    build = AntigenUniverse.columns.func

    def counted(universe):
        builds.append(universe)
        return build(universe)

    columns = functools.cached_property(counted)
    columns.__set_name__(AntigenUniverse, "columns")
    monkeypatch.setattr(AntigenUniverse, "columns", columns)
    cfg = small_config(ag_sample_sizes=(1, 4, 8), phase2="sa")
    _, report = run_experiment(cfg)
    assert [len(totals) for totals in report.after_totals.values()] == [2, 2, 2]
    assert builds == [resolve_universe(cfg)]


FAST_SA = SAConfig(initial_temperature=20.0, final_temperature=0.5, cooling_factor=0.85)
SWAP = NeighborOperator.SWAP_TWO_JOBS
PHASE2_CASES = {
    "none": {},
    "sa-change": dict(phase2="sa", sa=FAST_SA),
    "sa-swap": dict(phase2="sa", sa=dataclasses.replace(FAST_SA, operator=SWAP)),
    "gd-change": dict(phase2="gd", gd=GDConfig(iterations=40)),
    "gd-swap": dict(phase2="gd", gd=GDConfig(iterations=40, operator=SWAP)),
}


@pytest.mark.parametrize("phase2", PHASE2_CASES)
@pytest.mark.parametrize("population_type", ["A", "B", "C"])
def test_run_experiment_matches_the_reference(tmp_path, population_type, phase2):
    """Both CSVs equal, byte for byte, those the plain reference writes from
    the same seed paths: its own pool, index sampling, GA loop, chains and
    sliding-window coverage."""
    cfg = small_config(
        population_type=population_type, ag_sample_sizes=(1, 8), **PHASE2_CASES[phase2]
    )
    table, report = run_experiment(cfg)
    emit_reports(table, report, cfg, tmp_path)
    written = tuple((tmp_path / name).read_text() for name in ("coverage.csv", "fitness.csv"))
    assert written == reference_experiment(cfg)
