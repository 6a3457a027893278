"""Compare the benchmark of a parent revision with this checkout, in pairs.

    python tools/ab.py --parent REV --workload W --pairs N --seconds S
        --seeds A..B --pr P

It exports REV with `git archive` (local, no network) into a temporary
directory, copies this checkout as it stands on disk (its tracked files and
the untracked files git does not ignore) into another, and runs
`bench/run.py --workload W --seed SEED --seconds S --trace 0` on each tree
N times. Both trees start alike, without the checkout's ignored outputs
such as its `.bench_out/` digest store. Pair i uses seed A + i modulo the range A..B, and the side
that runs first alternates from pair to pair, parent first in pair 0, so
a slow spell of the machine falls on both sides alike. Every run is a
process of its own, and only one runs at a time.

For each end-to-end metric of BENCHMARK.json it prints the median and
quartiles of each side, the ratio of the medians (change over parent),
the pairs the change won, and whether the gap between the medians is
larger than the parent's interquartile spread. It then says whether the
untraced CSV digest, `fitness_ratio` and `unmatched_mean` were equal
within every pair, and how many replicates failed on each side.

The same summary, with both revisions and every run's values, is written
to BENCH_<P>.json at the repository root, under the workload's name; the
other workloads already in that file are kept, so one file collects every
workload of a change. --workload may be given more than once.

Exit codes: 0 when every run succeeded, 1 when a run failed, printed no
result line or failed a replicate, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# Outputs that a change which keeps the results must leave equal in every pair.
EQUAL_METRICS = ("fitness_ratio", "unmatched_mean")
DIGEST_LINE = re.compile(r"^info untraced digest ([0-9a-f]+)", re.MULTILINE)


def parse_seeds(text: str) -> list[int]:
    """`A..B`: the seeds A to B, both included."""
    first, sep, last = text.partition("..")
    seeds = list(range(int(first), int(last) + 1)) if sep else []
    if not seeds or seeds[0] < 0:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}; give A..B")
    return seeds


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the revision to compare against")
    parser.add_argument("--workload", required=True, action="append")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="A..B")
    parser.add_argument("--pr", type=int, required=True, help="names BENCH_<pr>.json")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds < 0:
        parser.error("--pairs must be positive and --seconds not negative")
    return args


def parse_run(output: str) -> dict:
    """One bench/run.py output: its metric values, its untraced digest
    (None when it printed none), and its replicate counts. ValueError when
    the last line is not the result object."""
    last = output.strip().rpartition("\n")[2]
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError("bench/run.py printed no result line")
    digest = DIGEST_LINE.search(output)
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "digest": digest[1] if digest else None,
        "attempted": result["attempted"],
        "failed": result["failed"],
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[dict], directions: dict[str, str]) -> dict:
    """The summary of one workload's pairs. Each pair maps "parent" and
    "change" to a `parse_run` result; `directions` maps each end-to-end
    metric to "higher" or "lower", the better way."""
    metrics = {}
    for name, better in directions.items():
        if not all(name in p[side]["metrics"] for p in pairs for side in SIDES):
            continue
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        parent_q, change_q = quartiles(values["parent"]), quartiles(values["change"])
        sign = 1 if better == "higher" else -1
        metrics[name] = {
            "better": better,
            "parent": dict(zip(("q1", "median", "q3"), parent_q)),
            "change": dict(zip(("q1", "median", "q3"), change_q)),
            "ratio": change_q[1] / parent_q[1] if parent_q[1] else None,
            "won": sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"])),
            "gap_exceeds_parent_iqr": abs(change_q[1] - parent_q[1]) > parent_q[2] - parent_q[0],
        }
    equal = {"digest": all(p["parent"]["digest"] == p["change"]["digest"] for p in pairs)}
    for name in EQUAL_METRICS:
        equal[name] = all(
            p["parent"]["metrics"].get(name) == p["change"]["metrics"].get(name) for p in pairs
        )
    return {
        "pairs": len(pairs),
        "metrics": metrics,
        "equal_in_every_pair": equal,
        "failed": {side: sum(p[side]["failed"] for p in pairs) for side in SIDES},
    }


def report(workload: str, summary: dict) -> str:
    lines = [f"{workload}: {summary['pairs']} pairs"]
    lines.append(
        f"  {'metric':<18} {'parent median [q1, q3]':<30} {'change median [q1, q3]':<30} "
        f"{'ratio':>7} {'won':>6}  gap > parent IQR"
    )
    for name, m in summary["metrics"].items():
        sides = [f"{m[s]['median']:.4g} [{m[s]['q1']:.4g}, {m[s]['q3']:.4g}]" for s in SIDES]
        ratio = "-" if m["ratio"] is None else f"{m['ratio']:.4f}"
        lines.append(
            f"  {name:<18} {sides[0]:<30} {sides[1]:<30} {ratio:>7} "
            f"{m['won']:>3}/{summary['pairs']:<2}  {'yes' if m['gap_exceeds_parent_iqr'] else 'no'}"
        )
    for name, same in summary["equal_in_every_pair"].items():
        lines.append(f"  {name} equal in every pair: {'yes' if same else 'NO'}")
    failed = summary["failed"]
    lines.append(f"  failed replicates: parent {failed['parent']}, change {failed['change']}")
    return "\n".join(lines)


def export(rev: str, into: Path) -> str:
    """Extract `rev`'s committed files into `into`; return its full hash."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha))) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)
    return sha


def copy_checkout(into: Path, root: Path = ROOT) -> None:
    """Copy `root`'s tracked files and its untracked files that git does not
    ignore, as they stand on disk, into `into`. A tracked file deleted on
    disk is left out."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard", root=root)
    for name in filter(None, listed.decode().split("\0")):
        source = root / name
        if source.is_file():
            target = into / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def git(*args: str, root: Path = ROOT) -> bytes:
    return subprocess.run(("git", *args), cwd=root, check=True, capture_output=True).stdout


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"bench/run.py exited {done.returncode} in {tree}: {done.stderr[-500:]}")
    return parse_run(done.stdout)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    out = ROOT / f"BENCH_{args.pr}.json"
    workloads = json.loads(out.read_text())["workloads"] if out.exists() else {}
    ok = True
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {side: Path(tmp, side) for side in SIDES}
        sha = export(args.parent, trees["parent"])
        copy_checkout(trees["change"])
        change = git("rev-parse", "HEAD").decode().strip()
        if git("status", "--porcelain"):
            change += " with uncommitted changes"
        for workload in args.workload:
            pairs = []
            for i in range(args.pairs):
                seed = args.seeds[i % len(args.seeds)]
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                try:
                    for side in order:
                        pair[side] = bench(trees[side], workload, seed, args.seconds)
                except (RuntimeError, ValueError) as err:
                    print(f"{workload} pair {i + 1}: {err}", file=sys.stderr)
                    ok = False
                    continue
                ok &= pair["parent"]["failed"] == pair["change"]["failed"] == 0
                pairs.append(pair)
                print(f"{workload} pair {i + 1}/{args.pairs} (seed {seed}, {order[0]} first): "
                      + ", ".join(f"{s} {pair[s]['metrics'].get('replicates_per_s', 0):.3f}/s"
                                  for s in SIDES), flush=True)
            if not pairs:
                continue
            summary = summarize(pairs, directions)
            print(report(workload, summary), flush=True)
            workloads[workload] = {
                "parent": sha, "change": change, "seconds": args.seconds, "seeds": args.seeds,
                **summary, "runs": pairs,
            }
    machine = f"{platform.machine()}, {os.cpu_count()} cpus"
    record = {"python": platform.python_version(), "machine": machine, "workloads": workloads}
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.name}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
