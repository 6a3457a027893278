"""Plain reference implementations that tests compare the package with:
each written the obvious way, without the packed lanes, inline draws,
memos and dedup scopes of the code under test."""

import itertools
import random

from immunesched import (
    ANTIBODY_LENGTH,
    JOB_COUNT,
    LIBRARY_COUNT,
    OFFSET_COUNT,
    UNIVERSE_SIZE,
    Antibody,
    AntigenSample,
    NeighborOperator,
    Population,
    SAConfig,
    acceptance_probability,
    antibody_fitness,
    default_base_problem,
    generate_universe,
    max_fitness,
    order_crossover,
)

JOB_IDS = range(1, JOB_COUNT + 1)


def reference_candidates(c1, c2):
    """The concatenation with one job dropped, from the last position to the
    first, keeping duplicate-free candidates; built without combine_components."""
    concat = c1 + c2
    dropped_one = (concat[:k] + concat[k + 1 :] for k in reversed(range(len(concat))))
    return [jobs for jobs in dropped_one if len(set(jobs)) == len(jobs)]


def reference_pool(libraries):
    """(library pair, jobs) for every candidate in enumeration order: each
    library pair in order, then each component pair, then its candidates."""
    return [
        ((i, j), jobs)
        for i, j in itertools.combinations(range(LIBRARY_COUNT), 2)
        for c1 in libraries[i]
        for c2 in libraries[j]
        for jobs in reference_candidates(c1, c2)
    ]


def first_occurrences(candidates, key):
    seen, kept = set(), []
    for candidate in candidates:
        if key(candidate) not in seen:
            seen.add(key(candidate))
            kept.append(candidate)
    return kept


def sliding_counts(antigen, antibody):
    """Matching positions at every offset, by sliding the antibody along."""
    return [
        sum(job == antigen.sequence[offset + j] for j, job in enumerate(antibody.jobs))
        for offset in range(OFFSET_COUNT)
    ]


def reference_levels(cfg, start, target):
    """The chain's levels as a list: SA's temperatures, multiplied by the
    cooling factor while above the final one; GD's boundaries, the start
    fitness lowered by the same decay once per iteration."""
    if isinstance(cfg, SAConfig):
        levels = [cfg.initial_temperature]
        while levels[-1] > cfg.final_temperature:
            levels.append(levels[-1] * cfg.cooling_factor)
    else:
        decay = (start - target) / cfg.iterations
        levels = [float(start)]
        for _ in range(cfg.iterations):
            levels.append(levels[-1] - decay)
    return levels


def reference_chain(ab, universe, sample, cfg, rng, trace=None):
    """refine's chain written plainly: each neighbour is a new Antibody
    scored by antibody_fitness, its slots drawn by randrange (change) or
    rng.sample (swap). SA accepts a worse one when rng.random() is below
    acceptance_probability, GD when it is at or above the boundary. With
    `trace`, it writes refine's rows and does not stop at the maximum."""
    sa = isinstance(cfg, SAConfig)
    jobs = ab.jobs
    start = current = best = antibody_fitness(ab, universe, sample)
    best_jobs, target, stagnation = jobs, max_fitness(sample.size), 0
    levels = reference_levels(cfg, start, target)
    if trace is not None:
        level_name = "temperature" if sa else "boundary"
        trace.write(f"step,{level_name},current_fitness,best_fitness,accepted\n")
    for step, (level, next_level) in enumerate(itertools.pairwise(levels), 1):
        if best == target and trace is None:
            break
        moved = list(jobs)
        if cfg.operator is NeighborOperator.CHANGE_ONE_JOB:
            slot = rng.randrange(ANTIBODY_LENGTH)
            unused = sorted(set(JOB_IDS) - set(jobs))
            moved[slot] = unused[rng.randrange(len(unused))]
        else:
            i, j = rng.sample(range(ANTIBODY_LENGTH), 2)
            moved[i], moved[j] = moved[j], moved[i]
        fit = antibody_fitness(Antibody(tuple(moved)), universe, sample)
        if fit >= current:
            accepted = True
        elif sa:
            accepted = rng.random() < acceptance_probability(current - fit, level)
        else:
            accepted = fit >= level
        if accepted:
            jobs, current = tuple(moved), fit
        if current > best:
            best_jobs, best, stagnation = jobs, current, 0
        else:
            stagnation += 1
        if trace is not None:
            trace.write(f"{step},{next_level!r},{current},{best},{int(accepted)}\n")
        if not sa and stagnation == cfg.stagnation_limit:
            break
    return Antibody(best_jobs) if best > start else ab


def reference_refine_population(pop, universe, sample, cfg, rng):
    """refine_population written plainly: each member's reference_chain runs
    on its own generator, seeded by one 64-bit draw from `rng` in member
    order, and each result is scored by antibody_fitness. Returns the
    refined antibodies and their fitnesses."""
    refined = []
    for ab in pop.antibodies:
        own = random.Random(rng.getrandbits(64))
        refined.append(reference_chain(ab, universe, sample, cfg, own))
    return refined, [antibody_fitness(ab, universe, sample) for ab in refined]


def reference_neighbours(ab, operator):
    """Every neighbour of `ab` under the move, as new Antibodies: each slot
    changed to each unused job in slot-then-job order, or each pair of
    slots swapped in `itertools.combinations` order."""
    jobs = ab.jobs
    if operator is NeighborOperator.CHANGE_ONE_JOB:
        return [
            Antibody(jobs[:slot] + (job,) + jobs[slot + 1 :])
            for slot in range(ANTIBODY_LENGTH)
            for job in sorted(set(JOB_IDS) - set(jobs))
        ]
    swapped = []
    for i, j in itertools.combinations(range(ANTIBODY_LENGTH), 2):
        moved = list(jobs)
        moved[i], moved[j] = moved[j], moved[i]
        swapped.append(Antibody(tuple(moved)))
    return swapped


def reference_kind(ab, universe, sample, operator):
    """`ab`'s kind under the move: "peak" when every neighbour scores below
    it, "plateau" when the best one ties it, "ordinary" when one beats it."""
    fit = antibody_fitness(ab, universe, sample)
    best = max(antibody_fitness(n, universe, sample) for n in reference_neighbours(ab, operator))
    return "peak" if best < fit else "plateau" if best == fit else "ordinary"


def reference_ascent(ab, universe, sample, operator):
    """Steepest ascent: move to the first best neighbour while it scores
    above the current antibody; the end is a strict peak or a plateau."""
    fit = antibody_fitness(ab, universe, sample)
    while True:
        scored = [(antibody_fitness(n, universe, sample), n) for n in reference_neighbours(ab, operator)]
        best = max(f for f, _ in scored)
        if best <= fit:
            return ab
        fit, ab = best, next(n for f, n in scored if f == best)


def nth_unused_job(jobs, n):
    """The n-th smallest job id (from 0) that `jobs` leaves out, found by
    counting past the sorted taken ids."""
    job = n + 1
    for taken in sorted(jobs):
        if taken <= job:
            job += 1
    return job


def reference_mutation(jobs, rate, rng):
    """Phase one's mutation written plainly: each position in turn, when
    rng.random() is below `rate`, takes the job that rng.randrange(10)
    indexes among the jobs the tuple, as mutated so far, leaves out."""
    for posn in range(ANTIBODY_LENGTH):
        if rng.random() < rate:
            job = nth_unused_job(jobs, rng.randrange(JOB_COUNT - ANTIBODY_LENGTH))
            jobs = jobs[:posn] + (job,) + jobs[posn + 1 :]
    return jobs


def reference_evolve(pop, universe, sample, cfg, rng):
    """The GA loop as it read before the unused-job memo and the hand-written
    admission, with each operator written out: a binary tournament by two
    randrange draws, mutation by `reference_mutation`, and admission by a
    stable sort of the four family members. Returns the final job tuples,
    their fitnesses, the `--stats` text and the first generation after which
    the population was one job tuple at the maximum fitness (None if it
    never was)."""
    size = pop.size
    cur = [ab.jobs for ab in pop.antibodies]
    cur_fit = list(pop.fitnesses)
    best_jobs, best_fit = cur[0], cur_fit[0]
    for jobs, fit in zip(cur, cur_fit):
        if fit > best_fit:
            best_jobs, best_fit = jobs, fit
    stats = ["generation,best,mean,worst"]
    frozen_at = None

    def record(gen):
        nonlocal frozen_at
        mean = sum(cur_fit) / size
        stats.append(f"{gen},{max(cur_fit)},{mean:.4f},{min(cur_fit)}")
        frozen = len(set(cur)) == 1 and min(cur_fit) == max_fitness(sample.size)
        if frozen and frozen_at is None:
            frozen_at = gen

    def select():
        i, j = rng.randrange(size), rng.randrange(size)
        if cur_fit[j] > cur_fit[i] or (cur_fit[j] == cur_fit[i] and j < i):
            return j
        return i

    def fitness(jobs):
        return antibody_fitness(Antibody(jobs), universe, sample)

    record(0)
    for gen in range(1, cfg.generations + 1):
        new = []
        while len(new) < size:
            i1, i2 = select(), select()
            p1, p2 = cur[i1], cur[i2]
            if rng.random() < cfg.crossover_rate:
                c1, c2 = order_crossover(p1, p2)
            else:
                c1, c2 = p1, p2
            c1 = reference_mutation(c1, cfg.mutation_rate, rng)
            c2 = reference_mutation(c2, cfg.mutation_rate, rng)
            family = [(p1, cur_fit[i1]), (p2, cur_fit[i2]), (c1, fitness(c1)), (c2, fitness(c2))]
            for jobs, fit in family[2:]:
                if fit > best_fit:
                    best_jobs, best_fit = jobs, fit
            family.sort(key=lambda member: member[1], reverse=True)
            new += family[:2]
        del new[size:]
        worst_fit = min(fit for _, fit in new)
        if best_fit > worst_fit:
            new[[fit for _, fit in new].index(worst_fit)] = (best_jobs, best_fit)
        cur = [jobs for jobs, _ in new]
        cur_fit = [fit for _, fit in new]
        record(gen)
    return cur, cur_fit, "\n".join(stats) + "\n", frozen_at


def reference_experiment(cfg):
    """The coverage.csv and fitness.csv text of `run_experiment` on the
    default base problem, written plainly: every generator seeded by its
    "master/stage/..." path; the pool as `reference_pool`, kept whole (A) or
    deduped by `first_occurrences` on the jobs (B) or on (pair, jobs) (C);
    the initial population by sampling pool indices; phase one by
    `reference_evolve`, phase two by `reference_refine_population`; and an
    antigen matched at threshold t when some member's sliding count
    reaches t."""

    def derived(*parts):
        return random.Random("/".join(str(p) for p in (cfg.master_seed, *parts)))

    universe = generate_universe(default_base_problem(), derived("universe"))
    libraries = [
        [antigen.sequence[3 * slot : 3 * slot + 3] for antigen in universe.antigens]
        for slot in range(LIBRARY_COUNT)
    ]
    candidates = reference_pool(libraries)
    if cfg.population_type == "B":
        candidates = first_occurrences(candidates, key=lambda c: c[1])
    elif cfg.population_type == "C":
        candidates = first_occurrences(candidates, key=lambda c: c)
    pool = [Antibody(jobs) for _, jobs in candidates]
    method = {"sa": cfg.sa, "gd": cfg.gd}.get(cfg.phase2)

    unmatched = {(t, ag): 0 for t in cfg.thresholds for ag in cfg.ag_sample_sizes}
    before, after = {}, {}
    for ag in cfg.ag_sample_sizes:
        for rep in range(cfg.replicates):
            lanes = derived("sample", ag, rep).sample(range(UNIVERSE_SIZE), ag)
            sample = AntigenSample(tuple(lanes))
            indices = derived("init", ag, rep).sample(range(len(pool)), cfg.ga.population_size)
            members = [pool[i] for i in indices]
            fits = [antibody_fitness(ab, universe, sample) for ab in members]
            jobs, fits, _, _ = reference_evolve(
                Population(members, fits), universe, sample, cfg.ga, derived("ga", ag, rep)
            )
            members = [Antibody(j) for j in jobs]
            before.setdefault(ag, []).append(sum(fits))
            if method is not None:
                members, fits = reference_refine_population(
                    Population(members, fits), universe, sample, method, derived("refine", ag, rep)
                )
                after.setdefault(ag, []).append(sum(fits))
            for antigen in universe.antigens:
                best = max(max(sliding_counts(antigen, ab)) for ab in members)
                for t in cfg.thresholds:
                    unmatched[t, ag] += best < t

    coverage = ["threshold," + ",".join(str(ag) for ag in cfg.ag_sample_sizes)]
    for t in cfg.thresholds:
        cells = [unmatched[t, ag] / cfg.replicates for ag in cfg.ag_sample_sizes]
        coverage.append(f"{t}," + ",".join(f"{cell:.1f}" for cell in cells))
    fitness = ["ag,phase1_total,phase2_total,improvement_pct"]
    for ag in sorted(before):
        total = sum(before[ag])
        if ag in after:
            pct = 100.0 * (sum(after[ag]) - total) / total
            fitness.append(f"{ag},{total},{sum(after[ag])},{pct:.1f}")
        else:
            fitness.append(f"{ag},{total},,")
    return "\n".join(coverage) + "\n", "\n".join(fitness) + "\n"
