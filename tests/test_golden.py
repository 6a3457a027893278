"""Seed-pinned golden outputs: any change to the RNG stream shows up here.

Each case runs a small experiment and compares the written coverage.csv
and fitness.csv byte for byte with the files under tests/golden/. A change
that alters the random stream on purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and says so in CHANGES.md.
"""

import sys
from pathlib import Path

import pytest

from immunesched import ExperimentConfig, GAConfig, emit_reports, run_experiment
from immunesched.experiment import COVERAGE_CSV, FITNESS_CSV

GOLDEN = Path(__file__).resolve().parent / "golden"
CSVS = (COVERAGE_CSV, FITNESS_CSV)
PHASE2 = ("none", "sa", "gd")


def golden_config(phase2: str) -> ExperimentConfig:
    # Three generations leave phase one short of the fitness ceiling, so
    # every stage (evolve, SA, GD) still moves the totals: after a few
    # dozen generations the population collapses onto one antibody and a
    # change to the random stream could pass unseen.
    return ExperimentConfig(
        ag_sample_sizes=(1, 8),
        replicates=2,
        phase2=phase2,
        ga=GAConfig(generations=3),
        master_seed=11,
    )


def write_case(phase2: str, out_dir: Path) -> None:
    cfg = golden_config(phase2)
    table, report = run_experiment(cfg)
    emit_reports(table, report, cfg, out_dir)


@pytest.mark.parametrize("phase2", PHASE2)
def test_csvs_match_golden(phase2, tmp_path):
    write_case(phase2, tmp_path)
    for name in CSVS:
        expected = (GOLDEN / phase2 / name).read_bytes()
        assert (tmp_path / name).read_bytes() == expected, f"{phase2}/{name} changed"


if __name__ == "__main__":
    for phase2 in PHASE2:
        target = GOLDEN / phase2
        write_case(phase2, target)
        (target / "run.json").unlink()
        print(f"wrote {target}", file=sys.stderr)
