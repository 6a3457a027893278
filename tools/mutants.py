"""Rerun the catalogue of deliberate breaks that the test suite must catch.

Each entry of CATALOGUE replaces one snippet of one file under
src/immunesched/ and says what the editable suite (tests/ without
tests/test_acceptance.py) must make of that mutant:

- `killed`: some test fails;
- `equivalent`: every test passes, because no test can tell the mutant
  from the code; the entry's reason says why.

The script takes no options:

    python tools/mutants.py

It copies src/, tests/, tools/ and pyproject.toml, without __pycache__ and
without tests/test_mutants.py (which checks this catalogue against src/ and
so would fail on every mutant), into a temporary directory. There it writes
a root conftest.py that loads a hypothesis profile with derandomize=True,
no example database, no shrinking and no deadline, so every run draws the
same examples and a kill is never a matter of timing; the repository's own
test configuration is not touched. The unmutated copy runs first and must
pass. Then each mutant is written, tested with

    PYTHONHASHSEED=0 PYTHONDONTWRITEBYTECODE=1 python -m pytest -x -q
        -p no:cacheprovider tests --ignore=tests/test_acceptance.py

and the file is restored. Two mutants run at a time, each in its own copy.
Every run has a fixed timeout, and its whole process group is killed when
it ends, however it ends, so no child process outlives it. One line per
entry gives the outcome, the seconds the run took and the first failing
test.

pytest's exit code 1 means the mutant was killed and 0 that it survived;
any other code (a collection or syntax error, a timeout) is a catalogue
error.

Exit codes: 0 when the unmutated copy passes, every `killed` entry is
killed and every `equivalent` entry survives; 1 when an entry's outcome is
not its expectation; 2 on a catalogue error: a snippet that does not occur
exactly once in its file, a mutant or base run that errors or times out,
a base run that fails, or any argument given.

To add an entry, pick a snippet that occurs exactly once in its file (take
in a neighbouring line if it does not), write the break, and run this
script: a `killed` entry needs some test to fail on it, so a survivor
means a test is missing. tests/test_mutants.py checks every entry against
src/ in Tier-1, so a refactor that moves a snippet must update its entry.
"""

from __future__ import annotations

import os
import queue
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src", "immunesched")
COPIED = ("src", "tests", "tools", "pyproject.toml")
CONFTEST = """\
from hypothesis import Phase, settings

settings.register_profile(
    "mutants",
    derandomize=True,
    database=None,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
settings.load_profile("mutants")
"""
COMMAND = (
    sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests",
    "--ignore=tests/test_acceptance.py",
)
ENV = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}
# The unmutated suite takes about 15 s on a 2-core machine.
TIMEOUT_S = 180
# One at a time, the catalogue took 4.5-6.6 min on a 2-core machine.
WORKERS = 2

KILLED, EQUIVALENT = "killed", "equivalent"


class Mutant(NamedTuple):
    name: str
    file: str  # under src/immunesched/
    old: str
    new: str
    expect: str = KILLED
    reason: str = ""  # why an `equivalent` mutant cannot be told apart


CATALOGUE = (
    # Phase two: the chain's acceptance rules, schedules, stops and draws.
    Mutant("gd-boundary-strict", "local_search.py",
           "if metropolis else candidate_fit >= level",
           "if metropolis else candidate_fit > level"),
    Mutant("sa-metropolis-le", "local_search.py",
           "random_() < exp(", "random_() <= exp(", EQUIVALENT,
           "differs from < only when random() returns exactly the probability, "
           "a 53-bit float, which no seeded chain draws"),
    Mutant("sa-metropolis-gt", "local_search.py", "random_() < exp(", "random_() > exp("),
    Mutant("sa-delta-sign", "local_search.py",
           "exp((candidate_fit - current_fit) / level)",
           "exp((current_fit - candidate_fit) / level)"),
    Mutant("no-worse-strict", "local_search.py",
           "accepted = candidate_fit >= current_fit or (",
           "accepted = candidate_fit > current_fit or ("),
    Mutant("trace-pre-step-level", "local_search.py",
           'trace.write(f"{step},{next_level!r},', 'trace.write(f"{step},{level!r},'),
    Mutant("sa-trace-pre-step-temperature", "local_search.py",
           "next_level = temperatures[step] if", "next_level = temperatures[step - 1] if"),
    Mutant("gd-trace-pre-step-boundary", "local_search.py",
           "if metropolis else level - decay", "if metropolis else level"),
    Mutant("sa-schedule-one-short", "local_search.py",
           '= temperatures[:-1], "temperature", -1', '= temperatures[:-2], "temperature", -1'),
    Mutant("untraced-sa-stops-at-step-560", "local_search.py",
           '= temperatures[:-1], "temperature", -1',
           '= temperatures[:560] if trace is None else temperatures[:-1], "temperature", -1'),
    Mutant("gd-schedule-one-short", "local_search.py",
           "repeat(decay, cfg.iterations - 1)", "repeat(decay, cfg.iterations - 2)"),
    Mutant("gd-schedule-one-long", "local_search.py",
           "repeat(decay, cfg.iterations - 1)", "repeat(decay, cfg.iterations)"),
    Mutant("gd-no-limit-read-as-90", "local_search.py",
           '"boundary", cfg.stagnation_limit or -1', '"boundary", cfg.stagnation_limit or 90'),
    Mutant("improvement-keeps-stagnation-count", "local_search.py",
           "                best_jobs, best_fit = tuple(jobs), current_fit\n"
           "                stagnation = 0\n",
           "                best_jobs, best_fit = tuple(jobs), current_fit\n"),
    Mutant("ceiling-exit-removed", "local_search.py",
           "ceiling = target if trace is None else None", "ceiling = None"),
    Mutant("untraced-stops-below-ceiling", "local_search.py",
           "ceiling = target if trace is None else None",
           "ceiling = target - POSITION_SCORE if trace is None else None"),
    Mutant("swap-second-slot-below-5", "local_search.py",
           "second = UNUSED_JOB_COUNT if change else ANTIBODY_LENGTH - 1",
           "second = UNUSED_JOB_COUNT if change else ANTIBODY_LENGTH"),
    Mutant("swap-stand-in-not-last-slot", "local_search.py",
           "j = ANTIBODY_LENGTH - 1 if n == p else n", "j = ANTIBODY_LENGTH - 2 if n == p else n"),
    Mutant("chain-two-lane-collapse-dropped", "local_search.py",
           "+ (((candidate & two) + below_top) & top).bit_count()",
           "+ (candidate & two).bit_count()"),
    Mutant("chain-two-mask-loses-bit-2", "local_search.py",
           "(candidate & two)", "(candidate & two - four)"),
    Mutant("chain-four-read-through-high", "local_search.py",
           "(candidate & four)", "(candidate & high)"),
    # The score table that chains share: its key, its sentinel and the hit path.
    Mutant("score-key-three-bits-per-slot", "local_search.py",
           "CODE_BITS = JOB_COUNT.bit_length()\n"
           "SCORE_TABLE_SIZE = 1 << CODE_BITS * ANTIBODY_LENGTH\n",
           "CODE_BITS = 3\n"
           "SCORE_TABLE_SIZE = 1 << 4 * ANTIBODY_LENGTH\n"),
    Mutant("score-entry-without-sentinel", "local_search.py",
           "scores[key] = candidate_fit + 1", "scores[key] = candidate_fit"),
    Mutant("swap-key-signs-flipped", "local_search.py",
           "key = code + (b - a << CODE_BITS * p) + (a - b << CODE_BITS * j)",
           "key = code + (a - b << CODE_BITS * p) + (b - a << CODE_BITS * j)"),
    Mutant("accepted-hit-keeps-old-lanes", "local_search.py",
           "                candidate = (\n"
           "                    packed - cols[p][old] + cols[p][new] if change\n"
           "                    else packed - cols[p][a] - cols[j][b] + cols[p][b] + cols[j][a]\n"
           "                )\n",
           "                candidate = packed\n"),
    # refine_population: one seed draw per member, no chain at the maximum,
    # and a score only for a changed member.
    Mutant("refine-shared-generator", "local_search.py",
           "refine(ab, universe, sample, cfg, random.Random(seed), scores=table)",
           "refine(ab, universe, sample, cfg, rng, scores=table)"),
    Mutant("refine-seeds-of-32-bits", "local_search.py",
           "seed = rng.getrandbits(64)", "seed = rng.getrandbits(32)"),
    Mutant("refine-keeps-unrefined-fitnesses", "local_search.py",
           "ab, fit = new, antibody_fitness(new, universe, sample)", "ab = new"),
    Mutant("ceiling-skip-draws-no-seed", "local_search.py",
           "        seed = rng.getrandbits(64)\n"
           "        if (keep := kept.get(ab.jobs)) is None:\n"
           "            keep = kept[ab.jobs] = fit == ceiling or deluge and _strict_peak(\n"
           "                ab, fit, universe, sample, cfg.operator\n"
           "            )\n"
           "        if not keep:\n",
           "        if (keep := kept.get(ab.jobs)) is None:\n"
           "            keep = kept[ab.jobs] = fit == ceiling or deluge and _strict_peak(\n"
           "                ab, fit, universe, sample, cfg.operator\n"
           "            )\n"
           "        if not keep:\n"
           "            seed = rng.getrandbits(64)\n"),
    Mutant("ceiling-skip-below-maximum", "local_search.py",
           "fit == ceiling or deluge", "fit >= ceiling - POSITION_SCORE or deluge"),
    # No GD chain from a strict peak: the check reads every neighbour, a tie
    # is no peak, SA always runs, and the memo holds for one call.
    Mutant("peak-check-tie-counted-as-below", "local_search.py",
           "_best_counts(x, masks) >= fit", "_best_counts(x, masks) > fit"),
    Mutant("peak-skip-applied-to-sa", "local_search.py",
           "deluge = isinstance(cfg, GDConfig)", "deluge = True"),
    Mutant("peak-check-misses-last-slot", "local_search.py",
           "for p, a in enumerate(jobs) for b in unused", "for p, a in enumerate(jobs[:-1]) for b in unused"),
    Mutant("peak-check-misses-last-unused-job", "local_search.py",
           "for b in unused)", "for b in unused[:-1])"),
    Mutant("peak-check-misses-a-swap-pair", "local_search.py",
           "combinations(enumerate(jobs), 2)", "list(combinations(enumerate(jobs), 2))[:-1]"),
    Mutant("peak-memo-kept-across-calls", "local_search.py",
           "kept: dict[tuple[int, ...], bool] = {}",
           'kept = refine_population.__dict__.setdefault("kept", {})'),
    # Matching: the packed table, the lane masks and the best-count rule.
    Mutant("best-counts-two-lane-collapse-dropped", "matching.py",
           "+ (((packed & two) + below_top) & top).bit_count()",
           "+ (packed & two).bit_count()"),
    Mutant("best-counts-two-mask-loses-bit-2", "matching.py",
           "(packed & two)", "(packed & two - four)"),
    Mutant("best-counts-four-read-through-high", "matching.py",
           "(packed & four)", "(packed & high)"),
    Mutant("masks-take-lower-unsampled-lanes", "matching.py",
           "lane = sum(1 << LANE_BITS * k for k in lanes)",
           "lane = sum(1 << LANE_BITS * k for k in range(max(lanes) + 1))"),
    Mutant("pack-columns-drops-last-slot", "matching.py",
           "min(p + 1, ANTIBODY_LENGTH))", "min(p + 1, ANTIBODY_LENGTH) - 1)"),
    Mutant("best-match-last-tied-offset", "matching.py",
           "counts.index(count)", "len(counts) - 1 - counts[::-1].index(count)"),
    Mutant("coverage-lane-collapse-dropped", "matching.py",
           "return UNIVERSE_SIZE - ((reached + below_top) & top).bit_count()",
           "return UNIVERSE_SIZE - reached.bit_count()"),
    Mutant("coverage-threshold-unclamped", "matching.py",
           "t = min(max(threshold, 0), ANTIBODY_LENGTH + 1)", "t = max(threshold, 0)"),
    # Phase one: pools, sampling, draws, mutation, admission and the elite.
    Mutant("pool-c-deduped-globally", "gene_library.py",
           'if population_type == "B" else pool', 'if population_type != "A" else pool'),
    Mutant("pool-b-deduped-per-pair-only", "gene_library.py",
           'if population_type == "C":\n'
           "        pairs = [dict.fromkeys(pair) for pair in pairs]\n"
           "    pool = itertools.chain.from_iterable(pairs)\n"
           '    return tuple(dict.fromkeys(pool) if population_type == "B" else pool)',
           'if population_type != "A":\n'
           "        pairs = [dict.fromkeys(pair) for pair in pairs]\n"
           "    pool = itertools.chain.from_iterable(pairs)\n"
           "    return tuple(pool)"),
    Mutant("pool-a-deduped", "gene_library.py",
           'if population_type == "B" else pool', 'if population_type != "C" else pool'),
    Mutant("trusted-antibody-gets-a-dict", "gene_library.py",
           'object.__setattr__(ab, "jobs", jobs)', 'ab.__dict__["jobs"] = jobs'),
    Mutant("antibody-without-slots", "gene_library.py",
           "@dataclass(frozen=True, slots=True)", "@dataclass(frozen=True)"),
    Mutant("pool-memo-keyed-on-first-component", "gene_library.py",
           "jobs = ci + cj", "jobs = ci"),
    Mutant("pool-antibodies-not-shared", "gene_library.py",
           "[shared.setdefault(ab.jobs, ab) for ab in combine_components(ci, cj)]",
           "combine_components(ci, cj)"),
    Mutant("draw-below-bits-of-n-minus-1", "evolution.py",
           "k = n.bit_length()", "k = (n - 1).bit_length()"),
    Mutant("binary-tournament-ties-to-later-draw", "evolution.py",
           "return j if fj > fi or (fj == fi and j < i) else i", "return j if fj >= fi else i"),
    Mutant("sample-initial-reversed-pool", "population.py",
           "rng.sample(pool, size)", "rng.sample(pool[::-1], size)"),
    Mutant("init-seed-path-without-ag", "experiment.py",
           '"init", sample.size, rep)', '"init", rep)'),
    Mutant("universe-rebuilt-per-replicate", "experiment.py",
           "                sample = draw_sample(cfg, ag, rep)\n",
           "                universe = resolve_universe(cfg)\n"
           "                sample = draw_sample(cfg, ag, rep)\n"),
    Mutant("mutation-skips-slot-0", "evolution.py",
           "_KEY_SHIFTS = range(0, _KEY_BITS * ANTIBODY_LENGTH, _KEY_BITS)",
           "_KEY_SHIFTS = range(_KEY_BITS, _KEY_BITS * ANTIBODY_LENGTH, _KEY_BITS)"),
    Mutant("key-slots-of-3-bits", "evolution.py",
           "_KEY_BITS = UNUSED_JOB_COUNT.bit_length()", "_KEY_BITS = 3"),
    Mutant("mutation-second-hit-reads-old-tuple", "evolution.py",
           "            jobs = tuple(out)\n"
           "        key >>= _KEY_BITS\n"
           "        posn += 1\n"
           "    return jobs\n",
           "        key >>= _KEY_BITS\n"
           "        posn += 1\n"
           "    return tuple(out)\n"),
    # Each child's key draws are written out in evolve: one entry per copy.
    *(
        Mutant(name + suffix, "evolution.py", old.replace("k1", key), new.replace("k1", key))
        for suffix, key in (("", "k1"), ("-in-child-2", "k2"))
        for name, old, new in (
            ("mutation-never-draws-last-unused-job",
             "                    while n >= UNUSED_JOB_COUNT:\n"
             "                        n = getrandbits(unused_bits)\n"
             "                    k1 += n + 1 << shift",
             "                    while n >= UNUSED_JOB_COUNT - 1:\n"
             "                        n = getrandbits(unused_bits)\n"
             "                    k1 += n + 1 << shift"),
            ("all-at-maximum-skips-mutations",
             "            k1 = 0\n"
             "            for shift in _KEY_SHIFTS:",
             "            k1 = 0\n"
             "            for shift in () if full else _KEY_SHIFTS:"),
            ("key-offset-by-one", "k1 += n + 1 << shift", "k1 += n << shift"),
        )
    ),
    Mutant("odd-size-one-family-short", "evolution.py",
           "families = range((size + 1) // 2)", "families = range(size // 2)"),
    Mutant("children-win-ties", "evolution.py",
           "            if fc1 > fa:\n"
           "                a, fa, b, fb = c1, fc1, a, fa\n"
           "            elif fc1 > fb:\n"
           "                b, fb = c1, fc1\n"
           "            if fc2 > fa:\n"
           "                a, fa, b, fb = c2, fc2, a, fa\n"
           "            elif fc2 > fb:\n",
           "            if fc1 >= fa:\n"
           "                a, fa, b, fb = c1, fc1, a, fa\n"
           "            elif fc1 >= fb:\n"
           "                b, fb = c1, fc1\n"
           "            if fc2 >= fa:\n"
           "                a, fa, b, fb = c2, fc2, a, fa\n"
           "            elif fc2 >= fb:\n"),
    Mutant("elite-update-removed", "evolution.py",
           "                best_jobs, best_fit = a, fa\n", "                pass\n"),
    Mutant("elite-update-on-ties", "evolution.py",
           "if fa > best_fit:", "if fa >= best_fit:"),
    Mutant("elite-from-family-second", "evolution.py",
           "best_jobs, best_fit = a, fa", "best_jobs, best_fit = b, fb"),
    # Phase one's shortcut generations (N1-N7 where they were first written).
    Mutant("one-tuple-half-the-tournament-draws", "evolution.py",
           "_TOURNAMENT_DRAWS = range(4)", "_TOURNAMENT_DRAWS = range(2)"),
    Mutant("one-tuple-skips-crossover-draw", "evolution.py",
           "if random_() < crossover_rate and not (one or full):",
           "if not one and random_() < crossover_rate and not full:"),
    Mutant("all-at-maximum-admits-swapped-parents", "evolution.py",
           "new += p1, p2\n                new_fit += f1, f2",
           "new += p2, p1\n                new_fit += f2, f1"),
    Mutant("all-at-maximum-skips-crossover-draw", "evolution.py",
           "if random_() < crossover_rate and not (one or full):",
           "if not full and random_() < crossover_rate and not one:"),
    Mutant("all-at-maximum-crosses-its-parents", "evolution.py",
           "if random_() < crossover_rate and not (one or full):",
           "if random_() < crossover_rate and not one:"),
    Mutant("key-table-kept-across-one-tuples", "evolution.py",
           "keyed = {0: cur_fit[0]}", 'keyed = locals().get("keyed") or {0: cur_fit[0]}'),
    Mutant("one-tuple-win-written-at-family-index", "evolution.py",
           "new, new_fit = [p1] * (2 * fam), [f1] * (2 * fam)",
           "new, new_fit = [p1] * fam, [f1] * fam"),
    Mutant("all-but-one-equal-is-one-tuple", "evolution.py",
           "one = cur.count(cur[0]) == size", "one = cur.count(cur[0]) >= size - 1"),
    Mutant("any-at-maximum-is-all-at-maximum", "evolution.py",
           "full = min(cur_fit) == ceiling", "full = max(cur_fit) == ceiling"),
    # A one-tuple generation scores a new key on the tuple's lanes.
    Mutant("key-later-hit-reads-x-free-list", "evolution.py",
           "if key > _KEY_MASK:  # a later field may hit", "if False:"),
    Mutant("key-old-job-not-put-back", "evolution.py",
           "                del free[n - 1]\n                insort(free, old)\n",
           "                del free[n - 1]\n"),
    Mutant("key-delta-sign-swapped", "evolution.py",
           "lanes += column[new] - column[old]", "lanes += column[old] - column[new]"),
    Mutant("key-slot-off-by-one", "evolution.py",
           "column = columns[posn]", "column = columns[posn - 1]"),
    Mutant("key-lanes-kept-across-one-tuples", "evolution.py",
           "x_lanes = sum([col[j] for col, j in zip(universe.columns, x)])",
           'x_lanes = locals().get("x_lanes") or '
           "sum([col[j] for col, j in zip(universe.columns, x)])"),
    # Input files: the line a bad byte is blamed on.
    Mutant("non-utf8-byte-blamed-on-line-before", "scheduling.py",
           "err.object[: err.end]", "err.object[: err.start]"),
)


def applied(m: Mutant, text: str) -> str:
    """`text` with the mutant's one replacement; ValueError, naming the
    entry, unless its snippet occurs exactly once."""
    if (found := text.count(m.old)) != 1:
        raise ValueError(f"{m.name}: snippet occurs {found} times in {PACKAGE / m.file}")
    return text.replace(m.old, m.new)


def make_copy(copy: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "test_mutants.py")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, copy / name, ignore=skip)
        else:
            shutil.copy2(source, copy / name)
    (copy / "conftest.py").write_text(CONFTEST)


def run_suite(copy: Path, live: set[subprocess.Popen]) -> tuple[str, float, str]:
    """Run the suite in `copy`: `killed`, `survived` or `error`, the seconds
    it took, and the first failing test or what went wrong. The run is in
    `live` while it lasts."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        COMMAND, cwd=copy, env=ENV, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, start_new_session=True,
    )
    live.add(proc)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(proc)
        proc.communicate()
        return "error", time.perf_counter() - start, f"timed out after {TIMEOUT_S} s"
    finally:
        kill_group(proc)  # however the run ends, with any subprocess a test started
        live.discard(proc)
    seconds = time.perf_counter() - start
    if proc.returncode not in (0, 1):
        last = out.strip().splitlines()[-1:] or [""]
        return "error", seconds, f"pytest exit {proc.returncode}: {last[0]}"
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", out, re.MULTILINE)
    return ("killed" if proc.returncode else "survived"), seconds, failed[1] if failed else ""


def kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def main() -> int:
    if sys.argv[1:]:
        print("usage: python tools/mutants.py (it takes no options)", file=sys.stderr)
        return 2
    sources = {m.file: (ROOT / PACKAGE / m.file).read_text() for m in CATALOGUE}
    bad = []
    for m in CATALOGUE:
        try:
            applied(m, sources[m.file])
        except ValueError as err:
            bad.append(str(err))
    if bad:
        print("catalogue error:", *bad, sep="\n  ", file=sys.stderr)
        return 2

    started, live = time.perf_counter(), set()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copies: queue.SimpleQueue[Path] = queue.SimpleQueue()
        for i in range(WORKERS):
            make_copy(Path(tmp, str(i)))
            copies.put(Path(tmp, str(i)))
        outcome, seconds, note = run_suite(Path(tmp, "0"), live)
        print(f"unmutated copy: {outcome} in {seconds:.1f} s {note}".rstrip(), flush=True)
        if outcome != "survived":
            print("error: the unmutated copy must pass", file=sys.stderr)
            return 2

        def judge(m: Mutant) -> tuple[str, float, str]:
            copy = copies.get()
            path = copy / PACKAGE / m.file
            try:
                path.write_text(applied(m, sources[m.file]))
                return run_suite(copy, live)
            finally:
                path.write_text(sources[m.file])
                copies.put(copy)

        width = max(len(m.name) for m in CATALOGUE)
        tally = Counter()
        with ThreadPoolExecutor(WORKERS) as pool:
            try:
                for m, (outcome, seconds, note) in zip(CATALOGUE, pool.map(judge, CATALOGUE)):
                    wanted = "survived" if m.expect == EQUIVALENT else "killed"
                    verdict = ("ok" if outcome == wanted
                               else "ERROR" if outcome == "error" else "UNEXPECTED")
                    tally[verdict] += 1
                    print(f"{verdict:<10} {m.name:<{width}} {m.expect:<10} {outcome:<8} "
                          f"{seconds:5.1f} s  {note or m.reason}", flush=True)
            except BaseException:  # an interrupt: stop the runs, then re-raise
                pool.shutdown(cancel_futures=True)
                for proc in list(live):
                    kill_group(proc)
                raise
    print(f"{len(CATALOGUE)} mutants in {time.perf_counter() - started:.0f} s: "
          f"{tally['UNEXPECTED']} unexpected, {tally['ERROR']} errors")
    return 2 if tally["ERROR"] else 1 if tally["UNEXPECTED"] else 0


if __name__ == "__main__":
    sys.exit(main())
