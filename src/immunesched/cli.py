"""Command-line harness.

Subcommands cover the pipeline stages (gen-universe, evolve, refine,
evaluate) plus the full `experiment` protocol. The stage subcommands run
replicate 0 of `experiment` for the same seed and ag sample size. Every
flag can also be supplied through a plain-text key=value config file
(`--config`); file values take precedence over flags, so a saved config
fully pins a run.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from pathlib import Path

from .evolution import GAConfig
from .experiment import (
    ExperimentConfig,
    coverage,
    draw_sample,
    emit_reports,
    evolve_replicate,
    refine_replicate,
    resolve_universe,
    run_experiment,
)
from .gene_library import build_libraries, generate_pool
from .local_search import GDConfig, NeighborOperator, SAConfig
from .population import load_population, save_population
from .scheduling import save_universe


_AG_SAMPLE_HELP = "antigen sample size, 1..10"
# The stage subcommands run this replicate of `experiment`.
_REPLICATE = 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args)
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="immunesched",
        description="Evolve and refine partial job-shop schedules against a "
        "universe of disturbance schedules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-universe", help="generate a ten-antigen universe file")
    p.add_argument("--base-problem", help="base-problem file (default: built-in instance)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="universe file to write")
    _add_config_flag(p)
    p.set_defaults(func=_cmd_gen_universe)

    p = sub.add_parser("evolve", help="run the evolutionary phase on a fresh population")
    p.add_argument("--universe", required=True, help="universe file")
    p.add_argument("--type", default="a")
    p.add_argument("--ag-sample", type=int, default=1, metavar="N", help=_AG_SAMPLE_HELP)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--generations", type=int, default=GAConfig.generations)
    p.add_argument("--crossover-rate", type=float, default=GAConfig.crossover_rate)
    p.add_argument("--mutation-rate", type=float, default=GAConfig.mutation_rate)
    p.add_argument("--out", required=True, help="population file to write")
    p.add_argument("--stats", help="optional per-generation statistics CSV")
    _add_config_flag(p)
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("refine", help="refine an evolved population (phase two)")
    p.add_argument("--universe", required=True)
    p.add_argument("--population", required=True, help="population file to refine")
    p.add_argument("--ag-sample", type=int, default=1, metavar="N", help=_AG_SAMPLE_HELP)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--phase2", choices=("sa", "gd"), required=True)
    p.add_argument("--operator", choices=("change", "swap"), default="change")
    p.add_argument("--out", required=True)
    _add_config_flag(p)
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("evaluate", help="coverage of all ten antigens by a population")
    p.add_argument("--universe", required=True)
    p.add_argument("--population", required=True)
    p.add_argument("--out", help="optional CSV of unmatched counts per threshold")
    _add_config_flag(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("experiment", help="full replicate protocol with CSV reports")
    p.add_argument("--universe", help="universe file (default: generate from base problem)")
    p.add_argument("--base-problem", help="base-problem file used when generating")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--type", default="a")
    p.add_argument(
        "--ag-sample",
        type=int,
        action="append",
        metavar="N",
        help=_AG_SAMPLE_HELP + "; repeatable (default: 1 4 8)",
    )
    p.add_argument("--generations", type=int, default=GAConfig.generations)
    p.add_argument("--crossover-rate", type=float, default=GAConfig.crossover_rate)
    p.add_argument("--mutation-rate", type=float, default=GAConfig.mutation_rate)
    p.add_argument("--phase2", choices=("none", "sa", "gd"), default="none")
    p.add_argument("--operator", choices=("change", "swap"), default="change")
    p.add_argument("--replicates", type=int, default=10)
    p.add_argument("--out", required=True, help="output directory for the reports")
    _add_config_flag(p)
    p.set_defaults(func=_cmd_experiment)

    return parser


def _add_config_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value file; values override flags")


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Read a plain-text key=value config file ('#' comments allowed)."""
    return {key: value for _, key, value in _config_entries(path)}


def _config_entries(path: str | Path):
    """(line number, key, value) for every key=value line of a config file."""
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        yield lineno, key.strip(), value.strip()


_INT_KEYS = {"seed", "generations", "replicates"}
_FLOAT_KEYS = {"crossover_rate", "mutation_rate"}


def _apply_config_file(args: argparse.Namespace) -> None:
    path = getattr(args, "config", None)
    if not path:
        return
    for lineno, key, raw in _config_entries(path):
        attr = key.replace("-", "_")
        try:
            if attr in ("config", "func", "command") or not hasattr(args, attr):
                raise ValueError(f"unknown config key {key!r} for '{args.command}'")
            setattr(args, attr, _coerce_config_value(attr, raw, args))
        except ValueError as err:
            raise ValueError(f"{path}: line {lineno}: {err}") from None


def _coerce_config_value(attr: str, raw: str, args: argparse.Namespace):
    if attr == "ag_sample":
        values = [int(tok) for tok in raw.replace(",", " ").split()]
        if args.command == "experiment":
            return values
        if len(values) != 1:
            raise ValueError(f"ag_sample must be a single value for '{args.command}'")
        return values[0]
    if attr in _INT_KEYS:
        return int(raw)
    if attr in _FLOAT_KEYS:
        return float(raw)
    return raw


def _config(args: argparse.Namespace) -> ExperimentConfig:
    """The experiment configuration that a subcommand's flags describe.

    Flags the subcommand lacks keep their ExperimentConfig defaults; a
    stage subcommand's single --ag-sample becomes a one-size list.
    """
    flags = vars(args)
    ga = {k: flags[k] for k in ("generations", "crossover_rate", "mutation_rate") if k in flags}
    operator = NeighborOperator(flags.get("operator", "change"))
    ag = flags.get("ag_sample") or ExperimentConfig.ag_sample_sizes
    return ExperimentConfig(
        universe_path=flags.get("universe"),
        base_problem_path=flags.get("base_problem"),
        population_type=flags.get("type", ExperimentConfig.population_type),
        ag_sample_sizes=(ag,) if isinstance(ag, int) else tuple(ag),
        replicates=flags.get("replicates", ExperimentConfig.replicates),
        phase2=flags.get("phase2", ExperimentConfig.phase2),
        ga=GAConfig(**ga),
        sa=SAConfig(operator=operator),
        gd=GDConfig(operator=operator),
        master_seed=flags.get("seed", ExperimentConfig.master_seed),
    )


def _cmd_gen_universe(args: argparse.Namespace) -> int:
    universe = resolve_universe(_config(args))
    save_universe(universe, args.out)
    print(f"wrote {args.out}: {len(universe.antigens)} antigens")
    return 0


def _cmd_evolve(args: argparse.Namespace) -> int:
    cfg = _config(args)
    universe = resolve_universe(cfg)
    pool = generate_pool(build_libraries(universe), cfg.population_type)
    sample = draw_sample(cfg, args.ag_sample, _REPLICATE)
    with open(args.stats, "w") if args.stats else nullcontext() as stream:
        final = evolve_replicate(
            cfg, universe, pool, sample, args.ag_sample, _REPLICATE, stats_stream=stream
        )
    save_population(final, args.out)
    print(f"wrote {args.out}: best fitness {final.best_fitness}, total {final.total_fitness}")
    return 0


def _cmd_refine(args: argparse.Namespace) -> int:
    cfg = _config(args)
    universe = resolve_universe(cfg)
    sample = draw_sample(cfg, args.ag_sample, _REPLICATE)
    pop = load_population(args.population).evaluate(universe, sample)
    refined = refine_replicate(cfg, universe, pop, sample, args.ag_sample, _REPLICATE)
    save_population(refined, args.out)
    before, after = pop.total_fitness, refined.total_fitness
    pct = 100.0 * (after - before) / before if before else float("nan")
    print(f"wrote {args.out}: total fitness {before} -> {after} ({pct:+.1f}%)")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _config(args)
    universe = resolve_universe(cfg)
    pop = load_population(args.population)
    rows = []
    for threshold in cfg.thresholds:
        unmatched = coverage(pop, universe, threshold)
        rows.append((threshold, unmatched))
        print(f"threshold {threshold}: {unmatched} of {len(universe.antigens)} antigens unmatched")
    if args.out:
        lines = ["threshold,unmatched"] + [f"{t},{u}" for t, u in rows]
        Path(args.out).write_text("\n".join(lines) + "\n")
        print(f"wrote {args.out}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    cfg = _config(args)
    table, report = run_experiment(cfg)
    emit_reports(table, report, cfg, args.out)
    print(f"wrote reports to {args.out}")
    header = "threshold " + " ".join(f"ag={ag:>2}" for ag in table.ag_sizes)
    print(header)
    for t in table.thresholds:
        cells = " ".join(f"{table.cell(t, ag):>5.1f}" for ag in table.ag_sizes)
        print(f"{t:>9} {cells}")
    for ag, pct in sorted(report.improvements.items()):
        print(f"fitness improvement (ag={ag}): {pct:.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
