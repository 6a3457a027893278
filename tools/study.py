"""Rewrite README's phase-two table from the pipeline's own stage functions.

The grid is the paper's default protocol (type A pool, 250 generations,
10 replicates, ag 1/4/8) for master seeds 0-4, with no refinement and
with SA and GD under the change and the swap move, all with the default
configs. Each replicate evolves once, and every refining row refines that
same population, seeded as `run_experiment` seeds it for that row's
config. A cell is the mean over seeds of the value that fitness.csv
(`improvement_pct`) or coverage.csv (mean unmatched antigens at thresholds
3-5) would print for that row's run, to one decimal, followed by that
value's min-max across seeds.

The script takes no options. It replaces the lines between README's two
marker comments with the table and leaves every other line alone, so a
table that no longer matches the code shows up as a diff:

    python tools/study.py && git diff --exit-code README.md
"""

from __future__ import annotations

import sys
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # this checkout's package, installed or not

from immunesched import (  # noqa: E402
    ExperimentConfig,
    build_libraries,
    coverage,
    fitness_improvement,
    generate_pool,
)
from immunesched.experiment import (  # noqa: E402
    draw_sample,
    evolve_replicate,
    refine_replicate,
    resolve_universe,
)

README = ROOT / "README.md"
BEGIN = "<!-- phase-two table: written by tools/study.py -->\n"
END = "<!-- end of phase-two table -->\n"
SEEDS = range(5)
THRESHOLDS = (3, 4, 5)
# Row label, phase2, operator. The `none` row reads the same with either operator.
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


def printed_values(base: ExperimentConfig, seed: int) -> dict[tuple[str, int], list[str]]:
    """Per METHODS label and ag size, the `improvement_pct` and the unmatched
    counts at THRESHOLDS that fitness.csv and coverage.csv print for that
    row's run of `base` at master seed `seed`; the `none` row has no gain."""
    cfg = replace(base, master_seed=seed)
    universe = resolve_universe(cfg)
    pool = generate_pool(build_libraries(universe), cfg.population_type)
    rows = {
        label: replace(
            cfg, phase2=phase2,
            sa=replace(cfg.sa, operator=operator), gd=replace(cfg.gd, operator=operator),
        )
        for label, phase2, operator in METHODS
    }
    values = {}
    for ag in cfg.ag_sample_sizes:
        before: list[int] = []
        finals = {label: [] for label in rows}
        for rep in range(cfg.replicates):
            sample = draw_sample(cfg, ag, rep)
            evolved = evolve_replicate(cfg, universe, pool, sample, rep)
            before.append(evolved.total_fitness)
            for label, row in rows.items():
                finals[label].append(
                    evolved if row.phase2 == "none"
                    else refine_replicate(row, universe, evolved, sample, rep)
                )
        for label, row in rows.items():
            pops = finals[label]
            gain = "" if row.phase2 == "none" else (
                f"{fitness_improvement(before, [pop.total_fitness for pop in pops]):.1f}"
            )
            values[label, ag] = [gain, *(
                f"{sum(coverage(pop, universe, t) for pop in pops) / cfg.replicates:.1f}"
                for t in THRESHOLDS
            )]
    return values


def cell(values: tuple[str, ...]) -> str:
    """Mean over seeds, then min-max; a dash where the CSV prints nothing."""
    if not any(values):
        return "—"
    numbers = [Decimal(value) for value in values]
    return f"{sum(numbers) / len(numbers):.2f} ({min(numbers)}–{max(numbers)})"


def study_table(seeds: range = SEEDS, base: ExperimentConfig = ExperimentConfig()) -> str:
    """The markdown table for `base` run at each master seed in `seeds`."""
    runs = [printed_values(base, seed) for seed in seeds]
    rows = [HEADER]
    for label, _, _ in METHODS:
        for ag in base.ag_sample_sizes:
            cells = " | ".join(cell(column) for column in zip(*(run[label, ag] for run in runs)))
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
