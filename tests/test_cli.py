import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from immunesched import (
    ExperimentConfig,
    GAConfig,
    GDConfig,
    SAConfig,
    default_base_problem,
    load_population,
    load_universe,
    run_experiment,
)
from immunesched.cli import _build_parser, _config, main


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


def test_config_file_with_comments_and_spaces_matches_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\n\n  seed = 42  \n\n")
    paths = [tmp_path / name for name in ("file.txt", "flags.txt", "default.txt")]
    assert run("gen-universe", "--out", paths[0], "--config", cfg) == 0
    assert run("gen-universe", "--out", paths[1], "--seed", 42) == 0
    assert run("gen-universe", "--out", paths[2]) == 0
    from_file, from_flags, default = (path.read_bytes() for path in paths)
    assert from_file == from_flags != default


def test_config_file_rejects_bad_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed 42\n")
    assert run("gen-universe", "--out", tmp_path / "u.txt", "--config", cfg) == 2
    assert capsys.readouterr().err == f"error: {cfg}: line 1: expected key=value\n"


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


@pytest.mark.parametrize(
    "entry, message",
    [
        ("replicates=0", "replicates must be at least 1"),
        ("ag_sample=1,11", "ag_sample_sizes must lie in 1..10"),
        ("ag_sample=", "ag_sample needs a value"),
        ("operator=bogus", "operator must be one of ('change', 'swap')"),
        ("phase2=xx", "phase2 must be one of ('none', 'sa', 'gd')"),
        ("type=z", "population_type must be one of ('A', 'B', 'C')"),
        ("generations=-1", "generations must be at least 0"),
    ],
)
def test_config_file_rejected_value_names_file_and_line(tmp_path, capsys, entry, message):
    cfg = tmp_path / "c.txt"
    cfg.write_text(f"# a comment\nseed=3\n{entry}\n")
    assert run("experiment", "--config", cfg, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err == f"error: {cfg}: line 3: {message}\n"


def test_module_entry_point_exits_2_on_a_bad_config_line(tmp_path):
    """`python -m immunesched` in a process of its own: a rejected --config
    line sets exit status 2 and prints the `file: line N:` message."""
    bad = tmp_path / "bad.txt"
    bad.write_text("# a comment\nseed=3\nreplicates=0\n")
    src = Path(__file__).resolve().parents[1] / "src"
    argv = ["experiment", "--config", str(bad), "--out", str(tmp_path / "o")]
    done = subprocess.run(
        [sys.executable, "-m", "immunesched", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert done.returncode == 2
    assert done.stderr == f"error: {bad}: line 3: replicates must be at least 1\n"
    assert done.stdout == ""


def test_refine_config_rejects_phase2_none(tmp_path, capsys):
    universe_path, pop_path = tmp_path / "u.txt", tmp_path / "p.txt"
    run("gen-universe", "--out", universe_path)
    run("evolve", "--universe", universe_path, "--generations", 0, "--out", pop_path)
    capsys.readouterr()
    cfg = tmp_path / "c.txt"
    cfg.write_text("seed=3\nphase2=none\n")
    argv = ("--universe", universe_path, "--population", pop_path,
            "--phase2", "sa", "--out", tmp_path / "r.txt", "--config", cfg)
    assert run("refine", *argv) == 2
    assert capsys.readouterr().err == (
        f"error: {cfg}: line 2: phase2 must be one of ('sa', 'gd') for 'refine'\n"
    )


def test_refine_from_zero_total_fitness_prints_no_percentage(tmp_path, capsys):
    universe_path, pop_path, out = tmp_path / "u.txt", tmp_path / "p.txt", tmp_path / "r.txt"
    universe_path.write_text("1 2 3 4 5 6 7 8 9 10 11 12 13 14 15\n" * 10)
    pop_path.write_text("12 13 14 15 1\n")  # no job at an alignable position
    assert run("refine", "--universe", universe_path, "--population", pop_path,
               "--phase2", "sa", "--out", out) == 0
    printed = capsys.readouterr().out
    assert re.fullmatch(rf"wrote {re.escape(str(out))}: total fitness 0 -> \d+\n", printed)


def test_invalid_flags_are_not_blamed_on_the_config_file(tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    cfg.write_text("seed=3\n")
    assert run("experiment", "--replicates", 0, "--config", cfg, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err == "error: replicates must be at least 1\n"


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


# Each subcommand's required flags, and the flags it reads into its config.
REQUIRED = {
    "gen-universe": ("--out", "u.txt"),
    "evolve": ("--universe", "u.txt", "--out", "p.txt"),
    "refine": ("--universe", "u.txt", "--population", "p.txt", "--phase2", "sa", "--out", "r.txt"),
    "evaluate": ("--universe", "u.txt", "--population", "p.txt"),
    "experiment": ("--out", "results"),
}
FLAGS = {
    "gen-universe": {"seed", "base_problem", "out"},
    "evolve": {"seed", "universe", "ag_sample", "type", "generations", "crossover_rate",
               "mutation_rate", "out", "stats"},
    "refine": {"seed", "universe", "ag_sample", "operator", "population", "phase2", "out"},
    "evaluate": {"universe", "population", "out"},
    "experiment": {"seed", "universe", "base_problem", "ag_sample", "type", "generations",
                   "crossover_rate", "mutation_rate", "phase2", "operator", "replicates", "out"},
}
# Each run flag, a value other than its default, and the config it makes
# from the config that the required flags alone make.
RUN_FLAGS = {
    "seed": ("7", lambda c: replace(c, master_seed=7)),
    "universe": ("v.txt", lambda c: replace(c, universe_path="v.txt")),
    "base_problem": ("b.txt", lambda c: replace(c, base_problem_path="b.txt")),
    "ag_sample": ("4", lambda c: replace(c, ag_sample_sizes=(4,))),
    "type": ("b", lambda c: replace(c, population_type="B")),
    "generations": ("12", lambda c: replace(c, ga=replace(c.ga, generations=12))),
    "crossover_rate": ("0.25", lambda c: replace(c, ga=replace(c.ga, crossover_rate=0.25))),
    "mutation_rate": ("0.125", lambda c: replace(c, ga=replace(c.ga, mutation_rate=0.125))),
    "phase2": ("gd", lambda c: replace(c, phase2="gd")),
    "operator": ("swap", lambda c: replace(
        c, sa=SAConfig(operator="swap"), gd=GDConfig(operator="swap"))),
    "replicates": ("3", lambda c: replace(c, replicates=3)),
}


def parse(command, *flags):
    return _build_parser().parse_args([command, *REQUIRED[command], *flags])


@pytest.mark.parametrize("command", FLAGS)
def test_each_subcommand_reads_its_own_flags(command):
    """A config key is valid exactly when it names one of these flags."""
    assert set(parse(command).flag_types) == FLAGS[command]


@pytest.mark.parametrize(
    "command, expected",
    [
        ("gen-universe", ExperimentConfig()),
        ("evolve", ExperimentConfig(universe_path="u.txt", ag_sample_sizes=(1,))),
        ("refine", ExperimentConfig(universe_path="u.txt", ag_sample_sizes=(1,), phase2="sa")),
        ("evaluate", ExperimentConfig(universe_path="u.txt")),
        ("experiment", ExperimentConfig()),
    ],
)
def test_required_flags_alone_build_the_default_config(command, expected):
    assert _config(parse(command)) == expected


@pytest.mark.parametrize(
    "command, flag",
    [(command, flag) for command in FLAGS for flag in RUN_FLAGS if flag in FLAGS[command]],
)
def test_each_run_flag_sets_its_config_field(command, flag):
    value, expected = RUN_FLAGS[flag]
    option = "--" + flag.replace("_", "-")
    assert _config(parse(command, option, value)) == expected(_config(parse(command)))


@pytest.mark.parametrize("key", ["func", "command", "flag_types", "config", "help"])
def test_namespace_entries_are_not_config_keys(tmp_path, capsys, key):
    cfg = tmp_path / "c.txt"
    cfg.write_text(f"{key}=1\n")
    assert run("gen-universe", "--config", cfg, "--out", tmp_path / "u.txt") == 2
    assert capsys.readouterr().err == (
        f"error: {cfg}: line 1: unknown config key '{key}' for 'gen-universe'\n"
    )


def test_input_files_read_the_same_with_a_byte_order_mark(tmp_path, capsys):
    """Universe, base-problem, population and --config files saved with a
    UTF-8 byte-order mark give the same result as without one."""

    def assert_same_with_bom(command, flag, path, *argv):
        marked = tmp_path / ("bom-" + path.name)
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        out, results = tmp_path / "out.txt", []
        for given in (path, marked):
            assert run(command, flag, given, *argv, "--out", out) == 0
            results.append((out.read_bytes(), capsys.readouterr().out))
        assert results[0] == results[1]

    base, cfg = tmp_path / "base.txt", tmp_path / "run.cfg"
    jobs = default_base_problem().jobs
    base.write_text(f"jobs {len(jobs)}\n" + "".join(
        f"{j.id} {j.processing_time} {j.due_date} {j.arrival_date}\n" for j in jobs
    ))
    cfg.write_text("seed=42\n")
    universe, pop = tmp_path / "u.txt", tmp_path / "p.txt"
    run("gen-universe", "--out", universe)
    run("evolve", "--universe", universe, "--generations", 2, "--out", pop)
    capsys.readouterr()
    assert_same_with_bom("gen-universe", "--base-problem", base)
    assert_same_with_bom("gen-universe", "--config", cfg)
    assert_same_with_bom("evolve", "--universe", universe, "--generations", 2)
    assert_same_with_bom("evaluate", "--population", pop, "--universe", universe)


def test_input_files_that_are_not_utf8_name_the_file_and_line(tmp_path, capsys):
    """A universe, population, base-problem or --config file holding a byte
    that is not UTF-8 fails with exit 2, naming the file and that byte's
    line as read_lines counts lines: a byte-order mark adds none, CRLF ends
    one, and a bad byte that starts a line is on that line."""
    universe, pop, out = tmp_path / "u.txt", tmp_path / "p.txt", tmp_path / "out.txt"
    run("gen-universe", "--out", universe)
    run("evolve", "--universe", universe, "--generations", 1, "--out", pop)
    capsys.readouterr()

    def assert_named(data, lineno, message, *argv):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(data)
        assert run(*(bad if a is None else a for a in argv)) == 2
        assert capsys.readouterr().err == f"error: {bad}: line {lineno}: byte {message}\n"

    start = "is not UTF-8 (invalid start byte)"
    lines = universe.read_bytes().splitlines(keepends=True)
    assert_named(b"".join(lines[:2]) + b"\xff" + b"".join(lines[2:]), 3, f"0xff {start}",
                 "evaluate", "--universe", None, "--population", pop)
    assert_named(b"1 2 3 4 5\n# caf\xe9\n", 2, "0xe9 is not UTF-8 (invalid continuation byte)",
                 "evaluate", "--universe", universe, "--population", None)
    assert_named(b"\xef\xbb\xbfjobs 15\r\n\r\n\x80 2 30 0\r\n", 3, f"0x80 {start}",
                 "gen-universe", "--base-problem", None, "--out", out)
    assert_named(b"seed=4\xff2\n", 1, f"0xff {start}",
                 "gen-universe", "--config", None, "--out", out)
