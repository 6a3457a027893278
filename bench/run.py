#!/usr/bin/env python3
"""Benchmark of the immunesched replicate pipeline.

Run from the root of a checkout:

    python3 bench/run.py --workload refine-sa --seed 1 --seconds 30 --trace 0

The workloads are defined in workloads.py and described in BENCHMARK.json.
A run builds its universes and pools from --seed (set-up), then runs whole
rounds of replicates for at least --seconds and at least the workload's
fixed block, in one process with no threads. Every replicate's outputs are
checked against a reference; the block's coverage.csv and fitness.csv are
written with `emit_reports` under .bench_out/ and their digest must repeat
byte for byte on every run of the same seed and code.

--trace 0 prints the end-to-end metrics. --trace 1 runs the block twice on
the same seed, untraced and then with spans around every public call and a
counting wrapper on `antibody_fitness`, requires equal CSV digests, times
kernel probes, and prints the per-layer metrics. Each metric is printed as
a `metric <name> <value> <unit>` line; the last line is one JSON object
with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "immunesched"
OUT = ROOT / ".bench_out"
DIGESTS = OUT / "digests.json"
PIPELINE_LAYERS = ("population", "matching", "evolution", "local_search", "experiment")
PIPELINE_CALLS = ("sample_initial", "Population.evaluate", "evolve", "refine_population", "coverage")
PROBE_AG_SIZES = (1, 4, 8)
PROBE_BATCHES = 7
PROBE_CALLS = 2000


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="tiny shrinks every workload to a few seconds, for the smoke test",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")
    return args


def load_package() -> None:
    """Import the package from this checkout's source tree, and only from there."""
    if not (PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"run.py: no package source at src/immunesched under {ROOT}")
    sys.path.insert(0, str(PACKAGE.parent))
    import immunesched

    if Path(immunesched.__file__).resolve().parent != PACKAGE.resolve():
        raise SystemExit(f"run.py: imported immunesched from {immunesched.__file__}")


def code_hash() -> str:
    """Digest of the package and benchmark sources; keys the digest store."""
    digest = hashlib.sha256()
    for path in sorted([*PACKAGE.rglob("*.py"), *BENCH.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def reproduces(key: str, digest: str) -> bool:
    """True unless an earlier run under the same key wrote other CSV bytes."""
    store = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    if key in store:
        return store[key] == digest
    store[key] = digest
    DIGESTS.parent.mkdir(parents=True, exist_ok=True)
    partial = DIGESTS.with_suffix(".tmp")
    partial.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
    partial.replace(DIGESTS)
    return True


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it."""
    for p in range(99, 0, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return 100


def percentile(values: list[float], p: int) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(p * len(ordered) / 100), 1) - 1]


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


class Report:
    """Collects metric lines and the failure count, then prints the result."""

    def __init__(self) -> None:
        self.metrics: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0

    def metric(self, name: str, value: float, unit: str, note: str = "", json_out=True) -> None:
        print(f"metric {name} {value!r} {unit}" + (f"  ({note})" if note else ""))
        if json_out:
            self.metrics[name] = {"value": value, "unit": unit}

    def outcomes(self, outcomes) -> None:
        self.attempted += len(outcomes)
        self.failed += sum(1 for o in outcomes if o.error)

    def digest(self, label: str, key: str, digest: str | None, wl) -> None:
        """Check a block digest against the store; a miss fails the block."""
        if digest is None:
            print(f"info {label} digest unavailable: a block replicate failed")
        elif not reproduces(key, digest):
            print(f"info {label} digest {digest} differs from an earlier run of this seed")
            self.failed += wl.block_size
        else:
            print(f"info {label} digest {digest} (coverage.csv and fitness.csv, every universe)")

    def finish(self) -> None:
        self.failed = min(self.failed, self.attempted)
        print(
            json.dumps(
                {
                    "correct": self.failed == 0,
                    "attempted": self.attempted,
                    "failed": self.failed,
                    "metrics": self.metrics,
                }
            )
        )


def end_to_end(args, wl, key) -> Report:
    from spans import NullTracer
    from workloads import emit_block, quality, run_pass

    report = Report()
    universes, outcomes = run_pass(wl, args.seed, NullTracer(), args.seconds)
    report.outcomes(outcomes)
    digest = emit_block(wl, universes, outcomes, OUT / args.scale / wl.name / "untraced")
    report.digest("untraced", key, digest, wl)

    times = [o.seconds for o in outcomes]
    # The tail percentile is fixed per workload by its block, not by the
    # number of replicates a run happens to time, so that every run reports
    # the same percentile: p83 on experiment-default, p64 on refine-sa and
    # p91 on refine-gd.
    p = tail_percentile(wl.block_size)
    beyond = len(times) - math.ceil(p * len(times) / 100)
    ratio, unmatched = quality(wl, outcomes)
    walls = [o.wall_s for o in outcomes]
    print(
        f"info wall clock: {len(walls) / sum(walls)!r} replicates/s, median replicate "
        f"{statistics.median(walls)!r} s, median set-up "
        f"{statistics.median(u.setup_wall_s for u in universes)!r} s"
    )
    report.metric("replicates_per_s", len(times) / sum(times), "1/s", f"{len(times)} replicates")
    report.metric(
        "replicate_s_p50",
        statistics.mean(
            statistics.median(o.seconds for o in outcomes if o.ag == ag) for ag in wl.ag_sizes
        ),
        "s",
        "median per ag size, averaged over ag sizes",
    )
    report.metric(
        "replicate_s_tail",
        percentile(times, p),
        "s",
        f"p{p}, {len(times)} samples, {beyond} beyond",
    )
    report.metric(
        "setup_s", statistics.median(u.setup_s for u in universes), "s", f"median of {len(universes)}"
    )
    report.metric("peak_rss_mb", peak_rss_mb(), "MB")
    report.metric("fitness_ratio", ratio, "ratio", f"block of {wl.block_size} replicates")
    report.metric("unmatched_mean", unmatched, "antigens", f"block of {wl.block_size} replicates")
    report.metric(
        "error_rate",
        report.failed / report.attempted,
        "ratio",
        "the result's failed over attempted",
        json_out=False,
    )
    return report


# Which end-to-end metric each per-layer metric should move, and where:
#   scheduling.*, gene_library.*        -> setup_s, every workload
#   population.evaluate_ms              -> replicate_s_p50 on refine-gd
#   matching.fitness_calls/_distinct*   -> replicates_per_s on experiment-default
#                                          and refine-gd; little on refine-sa
#   matching.fitness_us.*               -> replicates_per_s everywhere, most on refine-sa
#   evolution.generation_ms             -> replicate_s_p50 on experiment-default, not refine-sa
#   evolution.distinct_final            -> unmatched_mean on experiment-default
#   local_search.*                      -> replicates_per_s on refine-sa, then refine-gd;
#                                          no change on experiment-default
#   experiment.coverage_ms              -> replicate_s_p50 on refine-gd
def per_layer(args, wl, key) -> Report:
    from calibration import ReferenceClock
    from spans import NullTracer, Tracer
    from workloads import emit_block, run_pass

    report = Report()
    tracer = Tracer()
    _, base = run_pass(wl, args.seed, NullTracer(), 0.0)
    with tracer.counting_fitness():
        universes, traced = run_pass(wl, args.seed, tracer, 0.0)
    report.outcomes(base)
    report.outcomes(traced)
    base_digest = emit_block(wl, universes, base, OUT / args.scale / wl.name / "untraced")
    traced_digest = emit_block(wl, universes, traced, OUT / args.scale / wl.name / "traced")
    report.digest("untraced", key, base_digest, wl)
    if traced_digest != base_digest:
        print(f"info traced digest {traced_digest} differs from the untraced run's")
        report.failed += wl.block_size
    else:
        print("info traced digest equals the untraced run's")
    tracer.write(OUT / args.scale / wl.name / "spans.jsonl")

    # Span times are wall seconds; rescale them like the replicates they ran in.
    scale = sum(o.seconds for o in traced) / sum(o.wall_s for o in traced)
    by_name = defaultdict(list)
    for s in tracer.spans:
        by_name[s.name].append(s)
    n = len(by_name["replicate"])
    setups = len(universes)
    busy = defaultdict(float)
    for s in tracer.spans:
        if s.replicate is not None:
            busy[s.layer] += scale * s.self_s
            busy["matching"] += scale * s.fitness_s
    for name, group in by_name.items():
        scope = n if group[0].replicate is not None else setups
        print(f"info self_s {name} {scale * sum(s.self_s for s in group) / scope!r} s per call")
    pipeline_s = scale * sum(s.duration for s in by_name["replicate"])
    print(
        "info share of replicate time, self: "
        + ", ".join(f"{layer} {100 * busy[layer] / pipeline_s:.1f}%" for layer in PIPELINE_LAYERS)
    )
    print(
        "info share of replicate time, inside each call: "
        + ", ".join(
            f"{name} {100 * scale * sum(s.duration for s in by_name[name]) / pipeline_s:.1f}%"
            for name in PIPELINE_CALLS
            if by_name[name]
        )
    )

    if wl.refine is not None:
        source = "pipeline"
        chains = [o for o in traced if not o.error]
        refine_spans = by_name["refine_population"]
        ls_scale = scale
    else:
        source = "probe: SAConfig() on the first round's evolved populations"
        chains, refine_spans, ls_scale = local_search_probe(traced, report)
    members = sum(o.members for o in chains)
    fitness_us, probed = fitness_probe(args.seed, universes[0].universe, traced, ReferenceClock())

    base_s = sum(o.seconds for o in base)
    traced_s = sum(o.seconds for o in traced)
    universe_spans = by_name["generate_universe"]
    pool_spans = by_name["build_libraries"] + by_name["generate_pool"]
    pool_builds = [
        b.duration + g.duration for b, g in zip(by_name["build_libraries"], by_name["generate_pool"])
    ]
    per_rep = f"per replicate, {n} replicates"

    m = report.metric
    m("scheduling.busy_s", scale * sum(s.self_s for s in universe_spans) / setups, "s", "per set-up")
    m("scheduling.universe_s", scale * statistics.median(s.duration for s in universe_spans), "s")
    m("gene_library.busy_s", scale * sum(s.self_s for s in pool_spans) / setups, "s", "per set-up")
    m("gene_library.pool_build_s", scale * statistics.median(pool_builds), "s")
    m("gene_library.pool_size", statistics.mean(len(u.pool) for u in universes), "antibodies")
    m("population.busy_s", busy["population"] / n, "s", per_rep)
    m(
        "population.evaluate_ms",
        1e3 * scale * statistics.mean(s.duration for s in by_name["Population.evaluate"]),
        "ms",
    )
    m("matching.busy_s", busy["matching"] / n, "s", per_rep)
    m("matching.fitness_calls", tracer.fitness_calls / n, "calls/rep")
    m("matching.fitness_distinct", tracer.fitness_distinct / n, "ab/rep")
    m(
        "matching.fitness_distinct_ratio",
        tracer.fitness_distinct / tracer.fitness_calls,
        "ratio",
        "distinct antibodies over calls, per replicate",
    )
    for ag in PROBE_AG_SIZES:
        m(f"matching.fitness_us.ag{ag}", fitness_us[ag], "us", f"{probed} evolved antibodies")
    m("evolution.busy_s", busy["evolution"] / n, "s", per_rep)
    m(
        "evolution.generation_ms",
        1e3 * scale * sum(s.duration for s in by_name["evolve"]) / (n * wl.ga.generations),
        "ms",
    )
    m(
        "evolution.distinct_final",
        statistics.mean(len(o.distinct_evolved) for o in traced if not o.error),
        "antibodies",
    )
    m(
        "local_search.busy_s",
        ls_scale * sum(s.self_s for s in refine_spans) / len(refine_spans),
        "s",
        f"per refined population; {source}",
    )
    m(
        "local_search.chain_ms",
        1e3 * ls_scale * sum(s.duration for s in refine_spans) / members,
        "ms",
        source,
    )
    m(
        "local_search.ceiling_start_ratio",
        sum(o.ceiling_start for o in chains) / members,
        "ratio",
        source,
    )
    m("local_search.improved_ratio", sum(o.improved for o in chains) / members, "ratio", source)
    m("experiment.busy_s", busy["experiment"] / n, "s", per_rep)
    m(
        "experiment.coverage_ms",
        1e3 * scale * statistics.mean(s.duration for s in by_name["coverage"]),
        "ms",
    )
    m(
        "trace.overhead_pct",
        100 * (traced_s / base_s - 1),
        "%",
        f"traced {traced_s:.3f} s against untraced {base_s:.3f} s",
    )
    return report


def local_search_probe(traced, report):
    """Refine each first-round evolved population with SAConfig() outside
    the replicates, for a workload whose pipeline does not refine. Returns
    the probed outcomes (with their ceiling and improvement counts), the
    probe's spans, and the factor that rescales their wall times."""
    from calibration import ReferenceClock
    from immunesched import SAConfig, derived_rng, max_fitness, refine_population
    from spans import Tracer

    probe = Tracer()
    clock = ReferenceClock()
    chains, wall, rescaled = [], 0.0, 0.0
    with probe.counting_fitness():
        for i, o in enumerate(o for o in traced if o.probe_input):
            u, sample, evolved = o.probe_input
            probe.begin_replicate(i)
            with probe.span("refine_population", "local_search") as span:
                refined = refine_population(
                    evolved,
                    u.universe,
                    sample,
                    SAConfig(),
                    derived_rng(u.master_seed, "refine", o.ag, o.rep),
                )
            probe.end_replicate()
            wall += span.duration
            rescaled += clock.rescale(span.duration)
            if any(a < b for b, a in zip(evolved.fitnesses, refined.fitnesses)):
                print(f"info probe refinement lowered a member's fitness (ag {o.ag})")
                report.failed += 1
            ceiling = max_fitness(o.ag)
            o.ceiling_start = sum(1 for f in evolved.fitnesses if f == ceiling)
            o.improved = sum(1 for b, a in zip(evolved.fitnesses, refined.fitnesses) if a > b)
            chains.append(o)
    return chains, probe.spans, rescaled / wall


def fitness_probe(seed, universe, traced, clock):
    """Microseconds per direct `antibody_fitness` call on the workload's own
    evolved antibodies, per probe ag size, rescaled per batch."""
    import immunesched.matching
    from immunesched import AntigenSample, derived_rng

    antibodies = list({ab.jobs: ab for o in traced for ab in o.distinct_evolved}.values())[:64]
    calls = antibodies * (PROBE_CALLS // len(antibodies) + 1)
    fitness = immunesched.matching.antibody_fitness
    result = {}
    for ag in PROBE_AG_SIZES:
        sample = AntigenSample.draw(ag, derived_rng(seed, "probe", ag))
        batches = []
        for _ in range(PROBE_BATCHES):
            started = time.perf_counter()
            for ab in calls:
                fitness(ab, universe, sample)
            batches.append(clock.rescale(time.perf_counter() - started) / len(calls))
        result[ag] = 1e6 * statistics.median(batches)
    return result, len(antibodies)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    load_package()
    from workloads import WORKLOADS, workload

    if args.workload not in WORKLOADS:
        raise SystemExit(f"run.py: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    wl = workload(args.workload, args.scale)
    key = f"{wl.name}/{args.scale}/{args.seed}/{code_hash()}"
    report = (per_layer if args.trace else end_to_end)(args, wl, key)
    report.finish()
    return 0


if __name__ == "__main__":
    sys.exit(main())
