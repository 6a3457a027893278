"""Jobs, disturbance scenarios, and the universe of dispatch schedules.

A scenario is a 15-job single-machine problem. Disturbances move job
arrival dates; scheduling a disturbed scenario with the earliest-due-date
rule yields a full schedule (a permutation of the job ids, called an
antigen), and ten scheduled scenarios form the antigen universe that the
rest of the package builds partial schedules against.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from enum import Enum
from functools import cache, cached_property
from pathlib import Path
from types import UnionType
from typing import get_args, get_type_hints

JOB_COUNT = 15
# Partial schedules (antibodies) hold this many jobs and align with an
# antigen at any of OFFSET_COUNT offsets.
ANTIBODY_LENGTH = 5
OFFSET_COUNT = JOB_COUNT - ANTIBODY_LENGTH + 1
UNIVERSE_SIZE = 10
ARRIVAL_DAY_MAX = 300
# Chance that generate_universe re-draws a job's arrival date.
MUTATION_PROBABILITY = 0.2


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
        if len(self.sequence) != JOB_COUNT:
            raise ValueError(f"expected {JOB_COUNT} job ids, found {len(self.sequence)}")
        seen = set()
        for job_id in self.sequence:
            if not 1 <= job_id <= JOB_COUNT:
                raise ValueError(f"job id {job_id} out of range 1..{JOB_COUNT}")
            if job_id in seen:
                raise ValueError(f"duplicate job id {job_id}")
            seen.add(job_id)


@dataclass(frozen=True)
class AntigenUniverse:
    """The fixed set of ten schedules antibodies are built and scored against."""

    antigens: tuple[Antigen, ...]

    def __post_init__(self) -> None:
        if len(self.antigens) != UNIVERSE_SIZE:
            raise ValueError(
                f"universe must hold exactly {UNIVERSE_SIZE} antigens, got {len(self.antigens)}"
            )

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """The universe's packed column table (`matching.pack_columns`), built once."""
        from .matching import pack_columns  # matching imports this module

        return pack_columns(self.antigens)


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
        now = max(now, min(job.arrival_date for job in remaining))
        arrived = [job for job in remaining if job.arrival_date <= now]
        pick = min(arrived, key=lambda job: (job.due_date, job.id))
        sequence.append(pick.id)
        remaining.remove(pick)
        now += pick.processing_time
    return Antigen(tuple(sequence))


def generate_universe(base: BaseProblem, rng: random.Random) -> AntigenUniverse:
    """Build the ten-antigen universe: mutate the base ten times (each job
    with MUTATION_PROBABILITY) and schedule each."""
    antigens = []
    for _ in range(UNIVERSE_SIZE):
        scenario = mutate_scenario(base, MUTATION_PROBABILITY, rng)
        antigens.append(schedule_scenario(scenario))
    return AntigenUniverse(tuple(antigens))


def default_base_problem() -> BaseProblem:
    """A synthetic instance shipped with the package, the same on every call.

    Processing times fall in 1..20, due dates spread over 30..300, and
    arrivals are drawn to satisfy arrival <= due - processing.
    """
    rng = random.Random(28)
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


def read_lines(path: str | Path) -> tuple[list[tuple[int, str]], int]:
    """The content lines of a text input file, and the file's line count.

    The file is UTF-8, with or without a byte-order mark; a byte that is not
    fails with the number of its line. Each content line comes stripped,
    with its line number counted from 1; blank lines and `#`-prefixed
    comment lines are skipped.
    """
    try:
        file_lines = Path(path).read_bytes().decode("utf-8-sig").splitlines()
    except UnicodeDecodeError as err:  # err.object: the bytes after any mark
        with at_line(path, len(err.object[: err.end].decode(errors="replace").splitlines())):
            raise ValueError(f"byte {err.object[err.start]:#04x} is not UTF-8 ({err.reason})")
    lines = [
        (lineno, line)
        for lineno, raw in enumerate(file_lines, start=1)
        if (line := raw.strip()) and not line.startswith("#")
    ]
    return lines, len(file_lines)


@contextmanager
def at_line(path: str | Path, lineno: int) -> Iterator[None]:
    """Re-raise a ValueError from the block as `path: line N: message`."""
    try:
        yield
    except ValueError as err:
        raise ValueError(f"{path}: line {lineno}: {err}") from None


def check_count(
    path: str | Path, lines: Sequence[tuple[int, str]], expected: int, what: str, end: int
) -> None:
    """Require `expected` content lines. A wrong count names the first
    surplus line, or line end + 1, the line after the end of the file."""
    if len(lines) != expected:
        lineno = lines[expected][0] if len(lines) > expected else end + 1
        with at_line(path, lineno):
            raise ValueError(f"expected {expected} {what}, found {len(lines)}")


def check_fields(cfg: object) -> None:
    """Check each field of a config dataclass by its annotation and metadata,
    naming the field first in every message. Kinds: int (not bool), float
    (finite; an int will do), str, `X | None`, an Enum (a value is stored as
    its member), a nested config, `tuple[int, ...]` (distinct; stored sorted).
    Bounds: `range=(lo, hi)` (hi None: unbounded) on the value or each
    element, or `choices`."""
    for f in fields(cfg):
        kind, value = _type_hints(type(cfg))[f.name], getattr(cfg, f.name)
        if problem := _problem(kind, value, f.metadata):
            raise ValueError(f"{f.name} must {problem}")
        if kind == tuple[int, ...]:
            object.__setattr__(cfg, f.name, tuple(sorted(value)))
        elif isinstance(kind, type) and issubclass(kind, Enum):
            object.__setattr__(cfg, f.name, kind(value))


_KIND_NAMES = {int: "an integer", float: "a number", str: "a string"}
_type_hints = cache(get_type_hints)


def _problem(kind: object, value: object, bounds: Mapping) -> str | None:
    """What keeps `value` from being a `kind` within `bounds`, or None."""
    if isinstance(kind, UnionType):  # X | None
        problem = None if value is None else _problem(get_args(kind)[0], value, bounds)
        return problem and f"{problem} or None"
    items = (value,)
    if kind == tuple[int, ...]:
        if type(value) not in (tuple, list) or any(type(v) is not int for v in value):
            return "be integers"
        if not value or len(set(value)) < len(value):
            return "be distinct" if value else "not be empty"
        items = value
    elif issubclass(kind, Enum):
        values = tuple(m.value for m in kind)
        return None if value in values else f"be one of {values}"
    elif not (type(value) is kind or kind is float and type(value) is int):
        return f"be {_KIND_NAMES.get(kind) or 'a ' + kind.__name__}"
    elif type(value) is float and not math.isfinite(value):
        return "be finite"
    lo, hi = bounds.get("range", (None, None))
    if lo is not None and any(v < lo or hi is not None and v > hi for v in items):
        return f"be at least {lo}" if hi is None else f"lie in {lo}..{hi}"
    choices = bounds.get("choices")
    return f"be one of {choices}" if choices and value not in choices else None


def load_universe(path: str | Path) -> AntigenUniverse:
    """Read a universe file; `#`-prefixed comment lines and blank lines are ignored."""
    path = Path(path)
    lines, end = read_lines(path)
    antigens = []
    for lineno, line in lines:
        with at_line(path, lineno):
            antigens.append(Antigen(tuple(map(int, line.split()))))
    check_count(path, lines, UNIVERSE_SIZE, "antigens", end)
    return AntigenUniverse(tuple(antigens))


def load_base_problem(path: str | Path) -> BaseProblem:
    """Read a base-problem file: header `jobs 15`, then one
    `id processing_time due_date arrival_date` line per job; `#`-prefixed
    comment lines and blank lines are ignored."""
    path = Path(path)
    lines, end = read_lines(path)
    lineno, header = lines[0] if lines else (1, "")
    with at_line(path, lineno):
        if header != f"jobs {JOB_COUNT}":
            raise ValueError(f"expected header 'jobs {JOB_COUNT}'")
    body = lines[1:]
    check_count(path, body, JOB_COUNT, "job lines", end)
    jobs: dict[int, Job] = {}
    for lineno, line in body:
        with at_line(path, lineno):
            tokens = line.split()
            if len(tokens) != 4:
                raise ValueError("expected 'id processing_time due_date arrival_date'")
            job_id, processing, due, arrival = (int(t) for t in tokens)
            if job_id in jobs:
                raise ValueError(f"duplicate job id {job_id}")
            jobs[job_id] = Job(job_id, processing, due, arrival)
    return BaseProblem(tuple(jobs.values()))
