"""tools/ab.py's parsing and summary, on canned bench/run.py output, and
its copy of the checkout, on a temporary git repository."""

import argparse
import json
import shutil
import subprocess

import pytest

from ab import copy_checkout, parse_run, parse_seeds, quartiles, summarize

DIRECTIONS = {"replicates_per_s": "higher", "setup_s": "lower", "fitness_ratio": "higher"}


def run_output(rate, setup, ratio=0.9, digest="a2d4e098", failed=0):
    """bench/run.py's untraced output, cut to the lines ab.py reads."""
    metrics = {
        "replicates_per_s": {"value": rate, "unit": "1/s"},
        "setup_s": {"value": setup, "unit": "s"},
        "fitness_ratio": {"value": ratio, "unit": "ratio"},
    }
    return "\n".join(
        [
            f"info untraced digest {digest} (coverage.csv and fitness.csv, every universe)",
            f"metric replicates_per_s {rate!r} 1/s  (90 replicates)",
            json.dumps({"correct": not failed, "attempted": 90, "failed": failed, "metrics": metrics}),
        ]
    )


def test_parse_run_reads_the_result_line_and_the_digest():
    run = parse_run(run_output(18.5, 0.012, failed=3))
    assert run == {
        "metrics": {"replicates_per_s": 18.5, "setup_s": 0.012, "fitness_ratio": 0.9},
        "digest": "a2d4e098",
        "attempted": 90,
        "failed": 3,
    }
    assert parse_run("info untraced digest unavailable\n" + run_output(1, 1).splitlines()[-1])[
        "digest"
    ] is None


@pytest.mark.parametrize(
    "output",
    ["", "metric replicates_per_s 1.0 1/s", '{"correct": true}'],
    ids=["empty", "no-json", "no-metrics"],
)
def test_parse_run_rejects_output_without_a_result_line(output):
    with pytest.raises(ValueError, match="no result line"):
        parse_run(output)


def test_parse_seeds():
    assert parse_seeds("1..3") == [1, 2, 3]
    assert parse_seeds("4..4") == [4]
    for text in ("4", "3..1", "-1..2"):
        with pytest.raises(argparse.ArgumentTypeError, match="no seeds"):
            parse_seeds(text)


def test_quartiles():
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)


def test_summary_counts_wins_by_each_metric_direction():
    rates = [(18.0, 20.0), (19.0, 18.5), (18.5, 20.5), (18.2, 20.1), (18.4, 20.2)]
    pairs = [
        {"parent": parse_run(run_output(p, 0.013)), "change": parse_run(run_output(c, 0.012))}
        for p, c in rates
    ]
    summary = summarize(pairs, DIRECTIONS)
    rate = summary["metrics"]["replicates_per_s"]
    assert rate["parent"] == {"q1": 18.2, "median": 18.4, "q3": 18.5}
    assert rate["change"] == {"q1": 20.0, "median": 20.1, "q3": 20.2}
    assert rate["ratio"] == pytest.approx(20.1 / 18.4)
    assert rate["won"] == 4
    assert rate["gap_exceeds_parent_iqr"]
    setup = summary["metrics"]["setup_s"]
    assert setup["won"] == 5  # lower is better
    assert setup["ratio"] == pytest.approx(0.012 / 0.013)
    assert setup["gap_exceeds_parent_iqr"]  # the parent's runs all read 0.013
    assert summary["metrics"]["fitness_ratio"]["won"] == 0  # a tie is no win
    assert summary["equal_in_every_pair"] == {
        "digest": True,
        "fitness_ratio": True,
        "unmatched_mean": True,
    }
    assert summary["failed"] == {"parent": 0, "change": 0}
    assert summary["pairs"] == 5


def test_summary_flags_a_pair_whose_outputs_differ():
    same = parse_run(run_output(18.0, 0.01))
    pairs = [
        {"parent": same, "change": same},
        {"parent": same, "change": parse_run(run_output(18.0, 0.01, ratio=0.8, digest="b2"))},
    ]
    summary = summarize(pairs, DIRECTIONS)
    assert summary["equal_in_every_pair"] == {
        "digest": False,
        "fitness_ratio": False,
        "unmatched_mean": True,
    }
    assert not summary["metrics"]["replicates_per_s"]["gap_exceeds_parent_iqr"]


def test_summary_leaves_out_a_metric_some_run_lacks():
    full, short = parse_run(run_output(18.0, 0.01)), parse_run(run_output(18.0, 0.01))
    del short["metrics"]["setup_s"]
    summary = summarize([{"parent": full, "change": short}], DIRECTIONS)
    assert set(summary["metrics"]) == {"replicates_per_s", "fitness_ratio"}


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_the_change_side_is_the_checkout_on_disk_without_ignored_files(tmp_path):
    """The copy holds an uncommitted edit and a new untracked file, leaves out
    a tracked file deleted on disk, and holds no ignored `.bench_out/`."""
    repo, copy = tmp_path / "repo", tmp_path / "copy"
    (repo / "bench").mkdir(parents=True)
    (repo / ".gitignore").write_text(".bench_out/\n")
    (repo / "bench" / "run.py").write_text("committed\n")
    (repo / "gone.txt").write_text("committed\n")

    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=repo, check=True, capture_output=True,
        )

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "seed")
    (repo / "bench" / "run.py").write_text("edited\n")
    (repo / "new.py").write_text("untracked\n")
    (repo / "gone.txt").unlink()
    (repo / ".bench_out").mkdir()
    (repo / ".bench_out" / "digests.json").write_text("{}\n")
    copy_checkout(copy, root=repo)
    files = sorted(str(p.relative_to(copy)) for p in copy.rglob("*") if p.is_file())
    assert files == [".gitignore", "bench/run.py", "new.py"]
    assert (copy / "bench" / "run.py").read_text() == "edited\n"
    assert not (copy / ".bench_out").exists()
