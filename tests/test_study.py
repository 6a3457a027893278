"""tools/study.py: README's phase-two table on a scaled grid, and the splice.

The table test runs the study's grid at 2 master seeds with 5 generations,
2 replicates, a population of 20 and a fast SA schedule, and compares the
table byte for byte with tests/golden/study/table.md. On the same grid, the
study's values are checked against what `run_experiment` and
`emit_reports` print for each row's config, and its stage calls are
counted: one phase one per replicate, shared by every refining row. A
change that alters the random stream on purpose regenerates the golden
with

    PYTHONPATH=src:tools python tests/test_study.py

and says so in CHANGES.md.
"""

import csv
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import study
from immunesched import ExperimentConfig, GAConfig, SAConfig, emit_reports, run_experiment
from immunesched.experiment import COVERAGE_CSV, FITNESS_CSV
from study import BEGIN, END, METHODS, THRESHOLDS, printed_values, splice, study_table

GOLDEN = Path(__file__).resolve().parent / "golden" / "study" / "table.md"
SCALED = ExperimentConfig(
    replicates=2,
    ga=GAConfig(generations=5, population_size=20),
    sa=SAConfig(initial_temperature=20.0, final_temperature=0.5, cooling_factor=0.85),
)


def scaled_table() -> str:
    return study_table(range(2), SCALED)


def test_scaled_table_matches_golden():
    started = time.perf_counter()
    table = scaled_table()
    elapsed = time.perf_counter() - started
    assert table.encode() == GOLDEN.read_bytes(), "study/table.md changed"
    assert elapsed < 2.0, f"scaled study took {elapsed:.2f} s"


def csv_values(cfg: ExperimentConfig, out: Path) -> dict[int, list[str]]:
    """Per ag size, `improvement_pct` from fitness.csv and the unmatched
    counts at THRESHOLDS from coverage.csv, as `run_experiment` and
    `emit_reports` write them for `cfg`."""
    emit_reports(*run_experiment(cfg), cfg, out)
    with open(out / FITNESS_CSV, newline="") as f:
        gains = {row["ag"]: row["improvement_pct"] for row in csv.DictReader(f)}
    with open(out / COVERAGE_CSV, newline="") as f:
        unmatched = {row["threshold"]: row for row in csv.DictReader(f)}
    return {
        ag: [gains[str(ag)], *(unmatched[str(t)][str(ag)] for t in THRESHOLDS)]
        for ag in cfg.ag_sample_sizes
    }


def test_every_row_prints_what_run_experiment_prints_for_its_config(tmp_path):
    for seed in range(2):
        values = printed_values(SCALED, seed)
        for index, (label, phase2, operator) in enumerate(METHODS):
            cfg = replace(
                SCALED, master_seed=seed, phase2=phase2,
                sa=replace(SCALED.sa, operator=operator), gd=replace(SCALED.gd, operator=operator),
            )
            reference = csv_values(cfg, tmp_path / f"{seed}-{index}")
            for ag in SCALED.ag_sample_sizes:
                assert values[label, ag] == reference[ag], (seed, label, ag)


def test_each_replicate_evolves_once_and_every_refining_row_refines_it(monkeypatch):
    calls = Counter()
    for name in ("evolve_replicate", "refine_replicate", "resolve_universe"):
        def counted(*args, _name=name, _stage=getattr(study, name), **kwargs):
            calls[_name] += 1
            return _stage(*args, **kwargs)

        monkeypatch.setattr(study, name, counted)
    seeds = range(2)
    study_table(seeds, SCALED)
    replicates = len(seeds) * len(SCALED.ag_sample_sizes) * SCALED.replicates
    assert calls == {
        "evolve_replicate": replicates,
        "refine_replicate": 4 * replicates,
        "resolve_universe": len(seeds),
    }


def test_splice_rewrites_only_between_the_markers():
    head, old, tail = "# Title\n\ntext\n", "| old |\n", "\nmore text\n"
    text = head + BEGIN + old + END + tail
    assert splice(text, "| new |\n") == head + BEGIN + "| new |\n" + END + tail
    assert splice(text, old) == text


@pytest.mark.parametrize(
    "text",
    [
        "no markers\n",
        BEGIN + "| t |\n",
        "| t |\n" + END,
        END + "| t |\n" + BEGIN,
        BEGIN + "| t |\n" + END + BEGIN + "| u |\n" + END,
        BEGIN + BEGIN + "| t |\n" + END,
    ],
    ids=["none", "no-end", "no-begin", "reversed", "two-tables", "begin-twice"],
)
def test_splice_rejects_missing_or_doubled_markers(text):
    with pytest.raises(ValueError, match="expected one"):
        splice(text, "| new |\n")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_bytes(scaled_table().encode())
    print(f"wrote {GOLDEN}", file=sys.stderr)
