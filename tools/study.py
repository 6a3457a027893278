"""Rewrite README's phase-two table from `run_experiment`'s own outputs.

The grid is the paper's default protocol (type A pool, 250 generations,
10 replicates, ag 1/4/8) for master seeds 0-4, run once with no
refinement and once each with SA and GD under the change and the swap
move, every run through `run_experiment` with the default configs. A cell
is the mean over seeds of the value that fitness.csv (`improvement_pct`)
or coverage.csv (mean unmatched antigens at thresholds 3-5) prints, to one
decimal, followed by that value's min-max across seeds.

The script takes no options. It replaces the lines between README's two
marker comments with the table and leaves every other line alone, so a
table that no longer matches the code shows up as a diff:

    python tools/study.py && git diff --exit-code README.md
"""

from __future__ import annotations

import csv
import sys
import tempfile
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # this checkout's package, installed or not

from immunesched import ExperimentConfig, emit_reports, run_experiment  # noqa: E402
from immunesched.experiment import COVERAGE_CSV, FITNESS_CSV  # noqa: E402

README = ROOT / "README.md"
BEGIN = "<!-- phase-two table: written by tools/study.py -->\n"
END = "<!-- end of phase-two table -->\n"
SEEDS = range(5)
THRESHOLDS = (3, 4, 5)
# Row label, phase2, operator. The `none` runs read the same with either operator.
METHODS = (
    ("none", "none", "change"),
    ("SA, change", "sa", "change"),
    ("SA, swap", "sa", "swap"),
    ("GD, change", "gd", "change"),
    ("GD, swap", "gd", "swap"),
)
HEADER = (
    "| phase two | ag | fitness gain % | unmatched, t = 3 | t = 4 | t = 5 |\n"
    "|---|---:|---:|---:|---:|---:|\n"
)


def printed_values(cfg: ExperimentConfig) -> dict[int, list[str]]:
    """Per ag size, the run's `improvement_pct` and its unmatched counts at
    THRESHOLDS, as fitness.csv and coverage.csv print them."""
    with tempfile.TemporaryDirectory() as out:
        emit_reports(*run_experiment(cfg), cfg, out)
        with open(Path(out) / FITNESS_CSV, newline="") as f:
            gains = {row["ag"]: row["improvement_pct"] for row in csv.DictReader(f)}
        with open(Path(out) / COVERAGE_CSV, newline="") as f:
            unmatched = {row["threshold"]: row for row in csv.DictReader(f)}
    return {
        ag: [gains[str(ag)], *(unmatched[str(t)][str(ag)] for t in THRESHOLDS)]
        for ag in cfg.ag_sample_sizes
    }


def cell(values: tuple[str, ...]) -> str:
    """Mean over seeds, then min-max; a dash where the CSV prints nothing."""
    if not any(values):
        return "—"
    numbers = [Decimal(value) for value in values]
    return f"{sum(numbers) / len(numbers):.2f} ({min(numbers)}–{max(numbers)})"


def study_table(seeds: range = SEEDS, base: ExperimentConfig = ExperimentConfig()) -> str:
    """The markdown table for `base` run at each master seed in `seeds`."""
    rows = [HEADER]
    for label, phase2, operator in METHODS:
        runs = [
            printed_values(replace(
                base, master_seed=seed, phase2=phase2,
                sa=replace(base.sa, operator=operator), gd=replace(base.gd, operator=operator),
            ))
            for seed in seeds
        ]
        for ag in base.ag_sample_sizes:
            cells = " | ".join(cell(column) for column in zip(*(run[ag] for run in runs)))
            rows.append(f"| {label} | {ag} | {cells} |\n")
    return "".join(rows)


def splice(text: str, table: str) -> str:
    """`text` with the lines between its BEGIN and END marker lines replaced
    by `table`. Raises ValueError unless each marker is there exactly once,
    BEGIN first."""
    if text.count(BEGIN) != 1 or text.count(END) != 1 or text.index(END) < text.index(BEGIN):
        raise ValueError(f"expected one {BEGIN.strip()!r} line, then one {END.strip()!r} line")
    head, rest = text.split(BEGIN)
    return head + BEGIN + table + END + rest.split(END)[1]


if __name__ == "__main__":
    if sys.argv[1:]:
        sys.exit("usage: python tools/study.py (it takes no options)")
    README.write_text(splice(README.read_text(encoding="utf-8"), study_table()), encoding="utf-8")
