"""Genetic evolution of an antibody population (phase one).

Each generation fills a fresh population family by family: two parents,
each the winner of a binary tournament, either cross over or are copied,
both children are mutated, and the two fittest of the four are admitted,
so a child must beat a parent to enter. One global-elite slot keeps the
best fitness ever seen in the population.
"""

from __future__ import annotations

import random
from bisect import insort
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from heapq import heappop, heappush
from operator import add, itemgetter
from typing import TextIO

from .gene_library import ANTIBODY_LENGTH, UNUSED_JOB_COUNT, Antibody
from .matching import (
    POSITION_SCORE,
    AntigenSample,
    _best_counts,
    _lane_maxima,
    antibody_fitness,
    max_fitness,
)
from .population import Population
from .scheduling import JOB_COUNT, AntigenUniverse, check_fields

_Jobs = tuple[int, ...]
_JOB_IDS = range(1, JOB_COUNT + 1)
_TOURNAMENT_DRAWS = range(4)  # a family's two tournaments, two member draws each
# A mutation key holds n + 1 for position p's draw n in bits 4p to 4p + 3.
_KEY_BITS = UNUSED_JOB_COUNT.bit_length()
_KEY_MASK = (1 << _KEY_BITS) - 1
_KEY_SHIFTS = range(0, _KEY_BITS * ANTIBODY_LENGTH, _KEY_BITS)
# A child that `_unbeatable` visits costs about as much as a family of a
# one-tuple generation (1.1-1.8 against 1.8 us on a 2-core x86-64), and a
# proof that holds visits up to a few thousand, so `evolve` tries one only
# when at least this many families are left, and lets it visit a quarter.
_PROOF_FAMILIES = 5000


@dataclass(frozen=True)
class GAConfig:
    generations: int = field(default=250, metadata={"range": (0, None)})
    crossover_rate: float = field(default=0.7, metadata={"range": (0.0, 1.0)})
    mutation_rate: float = field(default=0.2, metadata={"range": (0.0, 1.0)})
    population_size: int = field(default=100, metadata={"range": (1, None)})

    __post_init__ = check_fields


def draw_below(n: int, rng: random.Random) -> Callable[[], int]:
    """A draw that returns what `rng.randrange(n)` would and leaves `rng` in
    the same state: CPython's own loop, `n.bit_length()` random bits until
    the value is below `n`, without randrange's argument handling per call.
    Raises ValueError when `n` is below 1."""
    if n < 1:
        raise ValueError(f"cannot draw below {n}: the range is empty")
    getrandbits = rng.getrandbits
    k = n.bit_length()

    def draw() -> int:
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    return draw


def _tournament(draw: Callable[[], int]) -> Callable[[list[int]], int]:
    """Binary tournament selection over fitnesses indexed by `draw`'s
    values: the index of the fitter of two draws, ties to the lower index."""

    def select(fitnesses: list[int]) -> int:
        i, j = draw(), draw()
        fi, fj = fitnesses[i], fitnesses[j]
        return j if fj > fi or (fj == fi and j < i) else i

    return select


def order_crossover(j1: _Jobs, j2: _Jobs) -> tuple[_Jobs, _Jobs]:
    """Reorder each parent's shared jobs to follow the other parent.

    Child one keeps parent one's jobs and positions but rewrites the jobs
    both share in their order in parent two, and child two mirrors it, so
    neither can hold a duplicate job. No randomness is consumed. Identical
    parents, and parents sharing fewer than two jobs, are returned as they
    are.
    """
    if j1 == j2:
        return j1, j2
    shared = set(j1).intersection(j2)
    if len(shared) < 2:  # one shared job keeps its place in both
        return j1, j2
    return _reordered(j1, j2, shared), _reordered(j2, j1, shared)


def _reordered(keeper: _Jobs, donor: _Jobs, shared: set[int]) -> _Jobs:
    order = iter([j for j in donor if j in shared])
    return tuple([next(order) if j in shared else j for j in keeper])


def evolve(
    pop: Population,
    universe: AntigenUniverse,
    sample: AntigenSample,
    cfg: GAConfig,
    rng: random.Random,
    stats_stream: TextIO | None = None,
) -> Population:
    """Run `cfg.generations` generations from the evaluated `pop` and return
    the final population, evaluated. `stats_stream`, when given, receives
    CSV rows `generation,best,mean,worst`, generation zero included.

    Members are job tuples, scored through a memo of every tuple seen in
    this call. A child's mutation draws do not depend on its tuple, so the
    family loop only draws each child's key; `_mutant` applies a nonzero
    one, and a child whose key is 0 is its parent's tuple.

    In two states a generation skips work whose result its draws cannot
    change; it still takes every draw of the full loop, in order, so the
    outputs and `rng` are the full loop's.
    - Every member is one tuple X: each tournament returns X and X crossed
      with X is X, so a family draws without comparing or crossing. A new
      key is scored on X's lanes (`_key_fitness`) into a table of X's keys,
      started afresh whenever the population turns into one tuple, so a
      child is built only when it beats X, to be admitted. X is the elite,
      so a generation in which no child beats it changes nothing.
    - Every member is at the maximum fitness: admission needs a strict gain
      over a parent, so a family admits its two parents without crossing
      them or building a child.
    Both at once is a fixed point, and so is one tuple X below the maximum
    that no mutation key beats: every family admits X twice and X stays the
    elite. No later generation can change the population, so the loop stops
    there and writes the remaining stats rows as they stand, leaving `rng`
    where the loop stopped. `_unbeatable` proves the second kind once per
    one-tuple state, when at least `_PROOF_FAMILIES` families are left, and
    gives up after a quarter of them; the loop runs on when it fails.
    """
    fitnesses = pop.require_evaluated()
    size = pop.size
    cur = [ab.jobs for ab in pop.antibodies]
    cur_fit = list(fitnesses)
    memo = dict(zip(cur, cur_fit))
    # The elite starts as the first of the fittest members (max keeps the first).
    best_jobs, best_fit = max(zip(cur, cur_fit), key=itemgetter(1))
    draw_member = draw_below(size, rng)
    select = _tournament(draw_member)
    random_, getrandbits = rng.random, rng.getrandbits
    crossover_rate, rate = cfg.crossover_rate, cfg.mutation_rate
    unused: dict[_Jobs, _Jobs] = {}
    unused_bits = UNUSED_JOB_COUNT.bit_length()
    families = range((size + 1) // 2)
    ceiling = max_fitness(sample.size)

    def score(jobs: _Jobs) -> int:
        fit = memo.get(jobs)
        if fit is None:
            fit = memo[jobs] = antibody_fitness(Antibody.trusted(jobs), universe, sample)
        return fit

    if stats_stream is not None:
        stats_stream.write("generation,best,mean,worst\n")
        _write_stats(stats_stream, 0, cur_fit)

    changed = True
    for gen in range(1, cfg.generations + 1):
        if changed:
            one = cur.count(cur[0]) == size
            full = min(cur_fit) == ceiling
            families_left = (cfg.generations + 1 - gen) * len(families)
            if one and (
                full
                or families_left >= _PROOF_FAMILIES
                and _unbeatable(cur[0], cur_fit[0], universe, sample, families_left // 4)
            ):
                if stats_stream is not None:
                    for frozen_gen in range(gen, cfg.generations + 1):
                        _write_stats(stats_stream, frozen_gen, cur_fit)
                break
            if one:  # the one tuple's key table, with key 0 for the tuple itself
                keyed = {0: cur_fit[0]}
                keyed_get = keyed.get
                x = cur[0]
                x_lanes = sum([col[j] for col, j in zip(universe.columns, x)])
                x_free = tuple([j for j in _JOB_IDS if j not in x])
        # A one-tuple generation builds `new` at its first winning family.
        new: list[_Jobs] | None = None if one else []
        new_fit: list[int] = []
        for fam in families:
            if one:  # both tournaments return a copy of the one tuple
                for _ in _TOURNAMENT_DRAWS:
                    draw_member()
                i1 = i2 = 0
            else:
                i1 = select(cur_fit)
                i2 = select(cur_fit)
            p1, f1 = cur[i1], cur_fit[i1]
            p2, f2 = cur[i2], cur_fit[i2]
            if random_() < crossover_rate and not (one or full):
                c1, c2 = order_crossover(p1, p2)
            else:
                c1, c2 = p1, p2
            # The key draws, written out once per child: a call per child cost 10 %.
            k1 = 0
            for shift in _KEY_SHIFTS:
                if random_() < rate:
                    n = getrandbits(unused_bits)
                    while n >= UNUSED_JOB_COUNT:
                        n = getrandbits(unused_bits)
                    k1 += n + 1 << shift
            k2 = 0
            for shift in _KEY_SHIFTS:
                if random_() < rate:
                    n = getrandbits(unused_bits)
                    while n >= UNUSED_JOB_COUNT:
                        n = getrandbits(unused_bits)
                    k2 += n + 1 << shift
            if full:
                new += p1, p2
                new_fit += f1, f2
                continue
            if one:
                fc1 = keyed_get(k1)
                if fc1 is None:
                    fc1 = keyed[k1] = _key_fitness(x, x_free, x_lanes, k1, universe, sample)
                fc2 = keyed_get(k2)
                if fc2 is None:
                    fc2 = keyed[k2] = _key_fitness(x, x_free, x_lanes, k2, universe, sample)
                if new is None:
                    if fc1 <= f1 and fc2 <= f1:
                        continue  # the family admits the one tuple twice
                    new, new_fit = [p1] * (2 * fam), [f1] * (2 * fam)
                if fc1 > f1:
                    c1 = _mutant(p1, k1, unused)
                    memo[c1] = fc1
                if fc2 > f1:
                    c2 = _mutant(p1, k2, unused)
                    memo[c2] = fc2
            else:
                if k1:
                    c1 = _mutant(c1, k1, unused)
                if k2:
                    c2 = _mutant(c2, k2, unused)
                fc1 = f1 if c1 is p1 else score(c1)
                fc2 = f2 if c2 is p2 else score(c2)
            # The two fittest of (p1, p2, c1, c2), fittest first; an earlier
            # member wins a tie, so parents beat children of equal fitness.
            if f1 >= f2:
                a, fa, b, fb = p1, f1, p2, f2
            else:
                a, fa, b, fb = p2, f2, p1, f1
            if fc1 > fa:
                a, fa, b, fb = c1, fc1, a, fa
            elif fc1 > fb:
                b, fb = c1, fc1
            if fc2 > fa:
                a, fa, b, fb = c2, fc2, a, fa
            elif fc2 > fb:
                b, fb = c2, fc2
            # No parent beats the elite, so a family best that does is a child.
            if fa > best_fit:
                best_jobs, best_fit = a, fa
            new += a, b
            new_fit += fa, fb
        changed = new is not None
        if changed:
            del new[size:], new_fit[size:]
            worst_fit = min(new_fit)
            if best_fit > worst_fit:
                worst_i = new_fit.index(worst_fit)
                new[worst_i] = best_jobs
                new_fit[worst_i] = best_fit
            cur, cur_fit = new, new_fit
        if stats_stream is not None:
            _write_stats(stats_stream, gen, cur_fit)

    return Population([Antibody.trusted(jobs) for jobs in cur], cur_fit)


def _mutant(jobs: _Jobs, key: int, unused: dict[_Jobs, _Jobs]) -> _Jobs:
    """`jobs` mutated as `key` says: position p, whose field holds n + 1,
    takes the n-th smallest job (from 0) that the tuple, as mutated so far,
    leaves out; a field of 0 leaves its position alone. `unused` memoises
    each tuple's ascending unused jobs, as a converging population mutates
    the same few tuples over and over."""
    out, posn = list(jobs), 0
    while key:
        n = key & _KEY_MASK
        if n:
            free = unused.get(jobs)
            if free is None:
                free = unused[jobs] = tuple([j for j in _JOB_IDS if j not in jobs])
            out[posn] = free[n - 1]
            jobs = tuple(out)
        key >>= _KEY_BITS
        posn += 1
    return jobs


def _key_fitness(
    jobs: _Jobs,
    free: Sequence[int],
    lanes: int,
    key: int,
    universe: AntigenUniverse,
    sample: AntigenSample,
) -> int:
    """`antibody_fitness` of `_mutant(jobs, key, ...)`, without building it,
    for `lanes` the sum of `jobs`' five column entries and `free` its
    ascending unused jobs. A hit at position p swaps the entry of jobs[p]
    for that of free[n - 1]; a later hit picks from `free` without the new
    job and with the old one put back in order, as `_mutant` does. No hit
    reads an earlier position, so `jobs` itself needs no update."""
    columns, posn = universe.columns, 0
    while key:
        n = key & _KEY_MASK
        if n:
            old, new = jobs[posn], free[n - 1]
            column = columns[posn]
            lanes += column[new] - column[old]
            if key > _KEY_MASK:  # a later field may hit
                free = list(free)
                del free[n - 1]
                insort(free, old)
        key >>= _KEY_BITS
        posn += 1
    return POSITION_SCORE * _best_counts(lanes, sample.masks)


def _unbeatable(
    x: _Jobs, fit: int, universe: AntigenUniverse, sample: AntigenSample, budget: int
) -> bool:
    """True when no mutation key makes a child of `x` that scores above
    `fit`, `x`'s fitness; False when one does, or when the search visits
    more than `budget` children first.

    A key's child holds, at each position p, x[p] or a job that is neither
    in x[p+1:] nor at an earlier position. The search is best-first over
    such prefixes. A prefix's bound is `_lane_maxima` of its entries plus,
    for each later slot q, the entries of every job q may still take: all
    but x[q+1:] and the prefix's. A slot sets each field of a lane for one
    job alone, so the sum holds at most one entry per slot in each field,
    and no field of a child the prefix leads to exceeds it. So the first
    bound popped at or below `fit`'s count proves the claim, and a child
    scored above it refutes it."""
    columns, masks = universe.columns, sample.masks
    target = fit // POSITION_SCORE
    # after[p][j]: job j's entries in slots p and later; reach[p]: the
    # entries, in slots p and later, of every job each slot q may take
    # before the prefix holds any, that is all but x[q + 1:].
    after = [[0] * (JOB_COUNT + 1)] * (ANTIBODY_LENGTH + 1)
    reach = [0] * (ANTIBODY_LENGTH + 1)
    for p in reversed(range(ANTIBODY_LENGTH)):
        column = columns[p]
        after[p] = list(map(add, after[p + 1], column))
        reach[p] = reach[p + 1] + sum([column[j] for j in _JOB_IDS if j not in x[p + 1 :]])
    # Entries (-bound, -length, prefix, its lanes): highest bound, then longest, first.
    heap = [(-_lane_maxima(reach[0], masks), 0, (), 0)]
    while heap:
        bound, _, prefix, lanes = heappop(heap)
        if -bound <= target:
            return True
        p = len(prefix)
        column, later = columns[p], x[p + 1 :]
        options = [j for j in _JOB_IDS if j not in prefix and j not in later]
        budget -= len(options)
        tail = after[p + 1]
        open_lanes = lanes + reach[p + 1] - sum([tail[j] for j in prefix])
        for j in options:
            child_bound = _lane_maxima(open_lanes + column[j] - tail[j], masks)
            if child_bound > target:
                if p == ANTIBODY_LENGTH - 1:  # a whole child: its bound is its count
                    return False
                heappush(heap, (-child_bound, -p - 1, prefix + (j,), lanes + column[j]))
        if budget < 0:
            return False
    return True


def _write_stats(stream: TextIO, generation: int, fitnesses: list[int]) -> None:
    mean = sum(fitnesses) / len(fitnesses)
    stream.write(f"{generation},{max(fitnesses)},{mean:.4f},{min(fitnesses)}\n")
