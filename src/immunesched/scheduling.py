"""Jobs, disturbance scenarios, and the universe of dispatch schedules.

A scenario is a 15-job single-machine problem. Disturbances move job
arrival dates; scheduling a disturbed scenario with the earliest-due-date
rule yields a full schedule (a permutation of the job ids, called an
antigen), and ten scheduled scenarios form the antigen universe that the
rest of the package builds partial schedules against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

JOB_COUNT = 15
# Partial schedules (antibodies) hold this many jobs and align with an
# antigen at any of OFFSET_COUNT offsets.
ANTIBODY_LENGTH = 5
OFFSET_COUNT = JOB_COUNT - ANTIBODY_LENGTH + 1
UNIVERSE_SIZE = 10
ARRIVAL_DAY_MAX = 300
DEFAULT_MUTATION_PROBABILITY = 0.2
# The unit of each offset's 4-bit field in Antigen.match_table. Every table
# refers to these same int objects instead of allocating its own.
_OFFSET_FIELDS = tuple(1 << 4 * d for d in range(OFFSET_COUNT))


@dataclass(frozen=True)
class Job:
    """One job: id, processing time (days), due date and arrival date (day indices)."""

    id: int
    processing_time: int
    due_date: int
    arrival_date: int

    def __post_init__(self) -> None:
        if not 1 <= self.id <= JOB_COUNT:
            raise ValueError(f"job id {self.id} out of range 1..{JOB_COUNT}")
        if self.processing_time < 0:
            raise ValueError(f"job {self.id}: negative processing time")
        if self.due_date < 0 or self.arrival_date < 0:
            raise ValueError(f"job {self.id}: negative day index")
        if self.arrival_date > self.due_date - self.processing_time:
            raise ValueError(
                f"job {self.id}: arrival {self.arrival_date} later than "
                f"due - processing = {self.due_date - self.processing_time}"
            )


@dataclass(frozen=True)
class BaseProblem:
    """A full 15-job problem instance; job ids are exactly 1..15."""

    jobs: tuple[Job, ...]

    def __post_init__(self) -> None:
        ids = sorted(job.id for job in self.jobs)
        if ids != list(range(1, JOB_COUNT + 1)):
            raise ValueError(f"job ids must be exactly 1..{JOB_COUNT}, got {ids}")


@dataclass(frozen=True)
class Antigen:
    """A complete one-machine schedule: a permutation of the 15 job ids."""

    sequence: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.sequence) != list(range(1, JOB_COUNT + 1)):
            raise ValueError(f"antigen must be a permutation of 1..{JOB_COUNT}")

    @cached_property
    def positions(self) -> tuple[int, ...]:
        """Position of each job id in the sequence; index 0 is unused."""
        pos = [-1] * (JOB_COUNT + 1)
        for i, job_id in enumerate(self.sequence):
            pos[job_id] = i
        return tuple(pos)

    @cached_property
    def match_table(self) -> tuple[tuple[int, ...], ...]:
        """Packed alignment counts: one row per antibody slot j, indexed by job id.

        A job at slot j agrees with this antigen at offset d = position - j;
        its entry is 1 in the 4-bit field of that offset (1 << 4*d), or 0
        when no offset lines them up. Summing the entries of an antibody's
        five jobs yields every offset's count at once, one per field, and a
        count never exceeds ANTIBODY_LENGTH, so fields cannot overflow.
        """
        pos = self.positions
        return tuple(
            tuple(
                _OFFSET_FIELDS[pos[job] - j] if 0 <= pos[job] - j < OFFSET_COUNT else 0
                for job in range(JOB_COUNT + 1)
            )
            for j in range(ANTIBODY_LENGTH)
        )


@dataclass(frozen=True)
class AntigenUniverse:
    """The fixed set of ten schedules antibodies are built and scored against."""

    antigens: tuple[Antigen, ...]

    def __post_init__(self) -> None:
        if len(self.antigens) != UNIVERSE_SIZE:
            raise ValueError(
                f"universe must hold exactly {UNIVERSE_SIZE} antigens, got {len(self.antigens)}"
            )


def mutate_scenario(
    base: BaseProblem, probability: float, rng: random.Random
) -> BaseProblem:
    """Disturb a scenario by re-drawing job arrival dates.

    Each job independently, with the given probability, receives a new
    arrival date drawn uniformly from 0..300; a draw later than
    due_date - processing_time is clamped down to that bound so the
    instance stays valid. All other job fields are unchanged.
    """
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"probability {probability} not in [0, 1]")
    jobs = []
    for job in base.jobs:
        if rng.random() < probability:
            draw = rng.randint(0, ARRIVAL_DAY_MAX)
            arrival = min(draw, job.due_date - job.processing_time)
            jobs.append(replace(job, arrival_date=arrival))
        else:
            jobs.append(job)
    return BaseProblem(tuple(jobs))


def schedule_scenario(scenario: BaseProblem) -> Antigen:
    """Sequence the scenario on one machine by earliest-due-date dispatch.

    Simulates time from 0: among arrived unscheduled jobs, pick the one
    with the smallest due date (ties to the smallest id); if none has
    arrived, jump to the next arrival. Deterministic.
    """
    remaining = list(scenario.jobs)
    sequence: list[int] = []
    now = 0
    while remaining:
        arrived = [job for job in remaining if job.arrival_date <= now]
        if not arrived:
            now = min(job.arrival_date for job in remaining)
            arrived = [job for job in remaining if job.arrival_date <= now]
        pick = min(arrived, key=lambda job: (job.due_date, job.id))
        sequence.append(pick.id)
        remaining.remove(pick)
        now += pick.processing_time
    return Antigen(tuple(sequence))


def generate_universe(
    base: BaseProblem,
    rng: random.Random,
    probability: float = DEFAULT_MUTATION_PROBABILITY,
) -> AntigenUniverse:
    """Build the ten-antigen universe: mutate the base ten times and schedule each."""
    antigens = []
    for _ in range(UNIVERSE_SIZE):
        scenario = mutate_scenario(base, probability, rng)
        antigens.append(schedule_scenario(scenario))
    return AntigenUniverse(tuple(antigens))


def default_base_problem(seed: int = 28) -> BaseProblem:
    """A synthetic instance shipped with the package.

    Processing times fall in 1..20, due dates spread over 30..300, and
    arrivals are drawn to satisfy arrival <= due - processing. The same
    seed always yields the same instance.
    """
    rng = random.Random(seed)
    jobs = []
    for job_id in range(1, JOB_COUNT + 1):
        processing = rng.randint(1, 20)
        due = rng.randint(30, ARRIVAL_DAY_MAX)
        arrival = rng.randint(0, due - processing)
        jobs.append(Job(job_id, processing, due, arrival))
    return BaseProblem(tuple(jobs))


def save_universe(universe: AntigenUniverse, path: str | Path) -> None:
    """Write one antigen per line: 15 space-separated job ids."""
    lines = [" ".join(str(j) for j in ag.sequence) for ag in universe.antigens]
    Path(path).write_text("\n".join(lines) + "\n")


def load_universe(path: str | Path) -> AntigenUniverse:
    """Read a universe file; `#`-prefixed comment lines and blank lines are ignored."""
    path = Path(path)
    antigens = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        antigens.append(_parse_antigen_line(line, lineno, path))
    if len(antigens) != UNIVERSE_SIZE:
        raise ValueError(
            f"{path}: expected {UNIVERSE_SIZE} antigens, found {len(antigens)}"
        )
    return AntigenUniverse(tuple(antigens))


def _parse_antigen_line(line: str, lineno: int, path: Path) -> Antigen:
    tokens = line.split()
    if len(tokens) != JOB_COUNT:
        raise ValueError(
            f"{path}: line {lineno}: expected {JOB_COUNT} job ids, found {len(tokens)}"
        )
    ids = []
    for token in tokens:
        try:
            ids.append(int(token))
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: invalid integer {token!r}") from None
    seen = set()
    for job_id in ids:
        if not 1 <= job_id <= JOB_COUNT:
            raise ValueError(
                f"{path}: line {lineno}: job id {job_id} out of range 1..{JOB_COUNT}"
            )
        if job_id in seen:
            raise ValueError(f"{path}: line {lineno}: duplicate job id {job_id}")
        seen.add(job_id)
    return Antigen(tuple(ids))


def save_base_problem(base: BaseProblem, path: str | Path) -> None:
    """Write a base problem: header `jobs 15`, then one `id p due arrival` line per job."""
    lines = [f"jobs {JOB_COUNT}"]
    for job in base.jobs:
        lines.append(f"{job.id} {job.processing_time} {job.due_date} {job.arrival_date}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_base_problem(path: str | Path) -> BaseProblem:
    """Read a base-problem file, validating the header and every job line."""
    path = Path(path)
    lines = [
        (lineno, raw.strip())
        for lineno, raw in enumerate(path.read_text().splitlines(), start=1)
        if raw.strip() and not raw.strip().startswith("#")
    ]
    lineno, header = lines[0] if lines else (1, "")
    if header != f"jobs {JOB_COUNT}":
        raise ValueError(f"{path}: line {lineno}: expected header 'jobs {JOB_COUNT}'")
    body = lines[1:]
    if len(body) != JOB_COUNT:
        raise ValueError(f"{path}: expected {JOB_COUNT} job lines, found {len(body)}")
    jobs = []
    for lineno, line in body:
        tokens = line.split()
        if len(tokens) != 4:
            raise ValueError(
                f"{path}: line {lineno}: expected 'id processing_time due_date arrival_date'"
            )
        try:
            job_id, processing, due, arrival = (int(t) for t in tokens)
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: invalid integer field") from None
        try:
            jobs.append(Job(job_id, processing, due, arrival))
        except ValueError as err:
            raise ValueError(f"{path}: line {lineno}: {err}") from None
    return BaseProblem(tuple(jobs))
