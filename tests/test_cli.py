import csv
import json
import re

from immunesched import (
    ExperimentConfig,
    GAConfig,
    load_population,
    load_universe,
    run_experiment,
)
from immunesched.cli import main, parse_config_file


def run(*argv):
    return main([str(a) for a in argv])


def test_gen_universe_writes_valid_file(tmp_path, capsys):
    out = tmp_path / "universe.txt"
    assert run("gen-universe", "--seed", 3, "--out", out) == 0
    universe = load_universe(out)
    assert len(universe.antigens) == 10
    assert "10 antigens" in capsys.readouterr().out


def test_gen_universe_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    run("gen-universe", "--seed", 3, "--out", a)
    run("gen-universe", "--seed", 3, "--out", b)
    assert a.read_bytes() == b.read_bytes()


def test_full_pipeline(tmp_path, capsys):
    universe_path = tmp_path / "u.txt"
    evolved = tmp_path / "evolved.txt"
    refined = tmp_path / "refined.txt"
    stats = tmp_path / "stats.csv"
    run("gen-universe", "--seed", 5, "--out", universe_path)
    assert (
        run(
            "evolve",
            "--universe", universe_path,
            "--ag-sample", 1,
            "--seed", 5,
            "--generations", 10,
            "--out", evolved,
            "--stats", stats,
        )
        == 0
    )
    pop = load_population(evolved)
    assert pop.size == 100
    assert len(stats.read_text().splitlines()) == 12  # header + generations 0..10

    assert (
        run(
            "refine",
            "--universe", universe_path,
            "--population", evolved,
            "--ag-sample", 1,
            "--seed", 5,
            "--phase2", "gd",
            "--out", refined,
        )
        == 0
    )
    assert load_population(refined).size == 100

    assert run("evaluate", "--universe", universe_path, "--population", refined) == 0
    out = capsys.readouterr().out
    for threshold in (2, 3, 4, 5):
        assert f"threshold {threshold}:" in out


def test_evaluate_writes_csv(tmp_path):
    universe_path = tmp_path / "u.txt"
    pop_path = tmp_path / "p.txt"
    report = tmp_path / "coverage_row.csv"
    run("gen-universe", "--seed", 2, "--out", universe_path)
    run("evolve", "--universe", universe_path, "--ag-sample", 1, "--seed", 2,
        "--generations", 2, "--out", pop_path)
    assert run("evaluate", "--universe", universe_path, "--population", pop_path,
               "--out", report) == 0
    with report.open() as stream:
        rows = list(csv.reader(stream))
    assert rows[0] == ["threshold", "unmatched"]
    assert [int(r[0]) for r in rows[1:]] == [2, 3, 4, 5]


def test_experiment_emits_reports(tmp_path):
    out_dir = tmp_path / "results"
    assert (
        run(
            "experiment",
            "--seed", 9,
            "--ag-sample", 1,
            "--ag-sample", 4,
            "--replicates", 2,
            "--generations", 3,
            "--phase2", "gd",
            "--out", out_dir,
        )
        == 0
    )
    assert (out_dir / "coverage.csv").exists()
    assert (out_dir / "fitness.csv").exists()
    manifest = json.loads((out_dir / "run.json").read_text())
    assert manifest["config"]["replicates"] == 2
    assert manifest["config"]["ag_sample_sizes"] == [1, 4]


def test_stage_subcommands_reproduce_experiment_replicate_zero(tmp_path, capsys):
    seed, ag, generations = 7, 4, 5
    universe_path = tmp_path / "u.txt"
    evolved = tmp_path / "evolved.txt"
    run("gen-universe", "--seed", seed, "--out", universe_path)
    assert run("evolve", "--universe", universe_path, "--ag-sample", ag, "--seed", seed,
               "--generations", generations, "--out", evolved) == 0
    assert run("refine", "--universe", universe_path, "--population", evolved,
               "--ag-sample", ag, "--seed", seed, "--phase2", "gd",
               "--out", tmp_path / "refined.txt") == 0
    out = capsys.readouterr().out
    evolved_total = int(re.search(r"total (\d+)", out).group(1))
    before, after = map(int, re.search(r"total fitness (\d+) -> (\d+)", out).groups())

    cfg = ExperimentConfig(ag_sample_sizes=(ag,), replicates=1, phase2="gd",
                           ga=GAConfig(generations=generations), master_seed=seed)
    _, report = run_experiment(cfg)
    assert evolved_total == before == report.before_totals[ag][0]
    assert after == report.after_totals[ag][0]


def test_experiment_accepts_every_ag_sample_size_up_to_ten(tmp_path):
    assert run("experiment", "--ag-sample", 10, "--replicates", 1, "--generations", 1,
               "--out", tmp_path / "results") == 0


def test_out_of_range_ag_sample_fails_with_error(tmp_path, capsys):
    assert run("experiment", "--ag-sample", 11, "--out", tmp_path / "results") == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_gives_nonzero_exit(tmp_path, capsys):
    assert run("evaluate", "--universe", tmp_path / "absent.txt",
               "--population", tmp_path / "absent2.txt") == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_universe_gives_nonzero_exit(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 3\n")
    assert run("evolve", "--universe", bad, "--out", tmp_path / "pop.txt") == 2
    assert "error:" in capsys.readouterr().err


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nseed = 42\ntype=b\n\nag_sample=1,4\n")
    assert parse_config_file(cfg) == {"seed": "42", "type": "b", "ag_sample": "1,4"}


def test_config_file_rejects_bad_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed 42\n")
    assert run("gen-universe", "--out", tmp_path / "u.txt", "--config", cfg) == 2


def test_config_file_bad_value_names_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    cfg.write_text("seed=abc\n")
    assert run("gen-universe", "--config", cfg, "--out", tmp_path / "u.txt") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: line 1: invalid literal for int()"), err
    cfg.write_text("# stage subcommands take one size\nag_sample=1,4\n")
    argv = ("--universe", tmp_path / "u.txt", "--out", tmp_path / "p.txt", "--config", cfg)
    assert run("evolve", *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: line 2: ag_sample must be a single value"), err


def test_config_file_overrides_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("generations=2\n")
    universe_path = tmp_path / "u.txt"
    stats = tmp_path / "stats.csv"
    run("gen-universe", "--seed", 1, "--out", universe_path)
    assert (
        run(
            "evolve",
            "--universe", universe_path,
            "--ag-sample", 1,
            "--generations", 50,
            "--out", tmp_path / "pop.txt",
            "--stats", stats,
            "--config", cfg,
        )
        == 0
    )
    assert len(stats.read_text().splitlines()) == 4  # header + generations 0..2


def test_config_file_unknown_key_fails(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("granularity=9\n")
    assert run("gen-universe", "--out", tmp_path / "u.txt", "--config", cfg) == 2


def test_experiment_config_file_sets_ag_list(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ag_sample=1,4\nreplicates=1\ngenerations=2\nseed=4\n")
    out_dir = tmp_path / "results"
    assert run("experiment", "--out", out_dir, "--config", cfg) == 0
    manifest = json.loads((out_dir / "run.json").read_text())
    assert manifest["config"]["ag_sample_sizes"] == [1, 4]
    assert manifest["config"]["replicates"] == 1
    assert manifest["master_seed"] == 4
