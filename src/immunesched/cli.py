"""Command-line harness.

Subcommands cover the pipeline stages (gen-universe, evolve, refine,
evaluate), which run replicate 0 of `experiment` for the same seed and ag
sample size, plus the full `experiment` protocol. A `--config` key=value
file sets flags too and takes precedence over them. Shared flags are
declared once, in parent parsers; a run flag left unset keeps the default
of its config class.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from pathlib import Path

from .evolution import GAConfig
from .experiment import (
    PHASE2_CHOICES,
    ExperimentConfig,
    coverage,
    draw_sample,
    emit_reports,
    evolve_replicate,
    fitness_improvement,
    refine_replicate,
    resolve_universe,
    run_experiment,
)
from .gene_library import build_libraries, generate_pool
from .local_search import GDConfig, NeighborOperator, SAConfig
from .population import load_population, save_population
from .scheduling import at_line, read_lines, save_universe


_AG_SAMPLE_HELP = "antigen sample size, 1..10"
_OPERATOR_CHOICES = tuple(op.value for op in NeighborOperator)
# `refine` needs a phase-two method; `experiment` may skip phase two.
_REFINE_CHOICES = tuple(m for m in PHASE2_CHOICES if m != "none")
# The stage subcommands run this replicate of `experiment`.
_REPLICATE = 0
# Run flags and the ExperimentConfig fields they set.
_FIELDS = {"universe": "universe_path", "base_problem": "base_problem_path",
           "type": "population_type", "ag_sample": "ag_sample_sizes",
           "replicates": "replicates", "phase2": "phase2", "seed": "master_seed"}


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
    seed, stage, ga, operator = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    seed.add_argument("--seed", type=int)
    stage.add_argument("--universe", required=True, help="universe file")
    stage.add_argument("--ag-sample", type=int, default=1, metavar="N", help=_AG_SAMPLE_HELP)
    ga.add_argument("--type")
    ga.add_argument("--generations", type=int)
    ga.add_argument("--crossover-rate", type=float)
    ga.add_argument("--mutation-rate", type=float)
    operator.add_argument("--operator", choices=_OPERATOR_CHOICES)

    p = sub.add_parser("gen-universe", parents=[seed], help="generate a ten-antigen universe file")
    p.add_argument("--base-problem", help="base-problem file (default: built-in instance)")
    p.add_argument("--out", required=True, help="universe file to write")
    _add_config_flag(p, _cmd_gen_universe)

    p = sub.add_parser("evolve", parents=[seed, stage, ga],
                       help="run the evolutionary phase on a fresh population")
    p.add_argument("--out", required=True, help="population file to write")
    p.add_argument("--stats", help="optional per-generation statistics CSV")
    _add_config_flag(p, _cmd_evolve)

    p = sub.add_parser("refine", parents=[seed, stage, operator],
                       help="refine an evolved population (phase two)")
    p.add_argument("--population", required=True, help="population file to refine")
    p.add_argument("--phase2", choices=_REFINE_CHOICES, required=True)
    p.add_argument("--out", required=True)
    _add_config_flag(p, _cmd_refine)

    p = sub.add_parser("evaluate", help="coverage of all ten antigens by a population")
    p.add_argument("--universe", required=True)
    p.add_argument("--population", required=True)
    p.add_argument("--out", help="optional CSV of unmatched counts per threshold")
    _add_config_flag(p, _cmd_evaluate)

    p = sub.add_parser("experiment", parents=[seed, ga, operator],
                       help="full replicate protocol with CSV reports")
    p.add_argument("--universe", help="universe file (default: generate from base problem)")
    p.add_argument("--base-problem", help="base-problem file used when generating")
    p.add_argument(
        "--ag-sample",
        type=int,
        action="append",
        metavar="N",
        help=f"{_AG_SAMPLE_HELP}; repeatable "
        f"(default: {' '.join(map(str, ExperimentConfig.ag_sample_sizes))})",
    )
    p.add_argument("--phase2", choices=PHASE2_CHOICES)
    p.add_argument("--replicates", type=int)
    p.add_argument("--out", required=True, help="output directory for the reports")
    _add_config_flag(p, _cmd_experiment)

    return parser


def _add_config_flag(p: argparse.ArgumentParser, func) -> None:
    """Give the subcommand its handler and a --config flag whose keys are
    the other flags' names, each read by its flag's type."""
    types = {action.dest: action.type for action in p._actions if action.dest != "help"}
    p.add_argument("--config", help="key=value file; values override flags")
    p.set_defaults(func=func, flag_types=types)


def _apply_config_file(args: argparse.Namespace) -> None:
    """Apply the --config entries in order over the flags. An entry is
    blamed (file and line) when it cannot be read, or when the configuration
    was valid before it and invalid after it; an error the flags alone cause
    is left for the subcommand to report."""
    if not (path := args.config):
        return
    error = _config_error(args)
    for lineno, line in read_lines(path)[0]:
        with at_line(path, lineno):
            if "=" not in line:
                raise ValueError("expected key=value")
            key, _, raw = (part.strip() for part in line.partition("="))
            attr = key.replace("-", "_")
            if attr not in args.flag_types:
                raise ValueError(f"unknown config key {key!r} for '{args.command}'")
            setattr(args, attr, _coerce_config_value(attr, raw, args))
            valid_before, error = error is None, _config_error(args)
            if valid_before and error is not None:
                raise error


def _config_error(args: argparse.Namespace) -> ValueError | None:
    """Why the subcommand's configuration is invalid, or None."""
    try:
        _config(args)
    except ValueError as err:
        return err
    return None


def _coerce_config_value(attr: str, raw: str, args: argparse.Namespace):
    kind = args.flag_types[attr] or str
    if attr == "ag_sample":
        values = [kind(tok) for tok in raw.replace(",", " ").split()]
        if not values:
            raise ValueError("ag_sample needs a value")
        if args.command == "experiment":
            return values
        if len(values) != 1:
            raise ValueError(f"ag_sample must be a single value for '{args.command}'")
        return values[0]
    return kind(raw)


def _config(args: argparse.Namespace) -> ExperimentConfig:
    """The experiment configuration that a subcommand's flags describe: only
    the flags that are set reach the config classes, which supply every
    default, and a stage's single --ag-sample becomes a one-size tuple."""
    flags = {k: v for k, v in vars(args).items() if v is not None}
    fields = {field: flags[flag] for flag, field in _FIELDS.items() if flag in flags}
    ga = {k: flags[k] for k in ("generations", "crossover_rate", "mutation_rate") if k in flags}
    operator = {"operator": flags["operator"]} if "operator" in flags else {}
    if isinstance(ag := flags.get("ag_sample"), int):
        fields["ag_sample_sizes"] = (ag,)
    if args.command == "refine" and flags["phase2"] not in _REFINE_CHOICES:
        raise ValueError(f"phase2 must be one of {_REFINE_CHOICES} for 'refine'")
    return ExperimentConfig(
        **fields, ga=GAConfig(**ga), sa=SAConfig(**operator), gd=GDConfig(**operator)
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
        final = evolve_replicate(cfg, universe, pool, sample, _REPLICATE, stats_stream=stream)
    save_population(final, args.out)
    print(f"wrote {args.out}: best fitness {final.best_fitness}, total {final.total_fitness}")
    return 0


def _cmd_refine(args: argparse.Namespace) -> int:
    cfg = _config(args)
    universe = resolve_universe(cfg)
    sample = draw_sample(cfg, args.ag_sample, _REPLICATE)
    pop = load_population(args.population).evaluate(universe, sample)
    refined = refine_replicate(cfg, universe, pop, sample, _REPLICATE)
    save_population(refined, args.out)
    before, after = pop.total_fitness, refined.total_fitness
    change = f" ({fitness_improvement([before], [after]):+.1f}%)" if before else ""
    print(f"wrote {args.out}: total fitness {before} -> {after}{change}")
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
