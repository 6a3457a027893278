"""In-memory spans around the benchmark's calls into the package.

A span records a name, the layer (package module) it belongs to, its
parent, the replicate it served, and its start and end. Calls to
`antibody_fitness` are too frequent to record one by one: a counting
wrapper adds their count and duration to whichever span is open, so a
span's self time is its duration minus its child spans and the fitness
time spent inside it.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

import immunesched.evolution
import immunesched.local_search
import immunesched.population

# The module namespaces the pipeline looks `antibody_fitness` up in.
FITNESS_SITES = (
    immunesched.evolution,
    immunesched.local_search,
    immunesched.population,
)


@dataclass
class Span:
    ident: int
    name: str
    layer: str
    parent: int | None
    replicate: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    fitness_s: float = 0.0
    fitness_calls: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s - self.fitness_s


class NullTracer:
    """Stands in for a Tracer on untraced runs; records nothing."""

    _span = nullcontext()

    def span(self, name: str, layer: str):
        return self._span

    def begin_replicate(self, replicate: int) -> None:
        pass

    def end_replicate(self) -> None:
        pass


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._opened = 0
        self._replicate: int | None = None
        self._seen: set[tuple[int, ...]] = set()
        self.fitness_calls = 0
        self.fitness_distinct = 0

    @contextmanager
    def span(self, name: str, layer: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(
            self._opened,
            name,
            layer,
            parent.ident if parent else None,
            self._replicate,
            time.perf_counter(),
        )
        self._opened += 1
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += record.duration
            self.spans.append(record)

    def begin_replicate(self, replicate: int) -> None:
        """Start a replicate: distinct antibodies are counted per replicate,
        the scope a per-(universe, sample) memo would have."""
        self._replicate = replicate
        self._seen = set()

    def end_replicate(self) -> None:
        self.fitness_distinct += len(self._seen)
        self._replicate = None

    @contextmanager
    def counting_fitness(self):
        """Replace `antibody_fitness` in every lookup site by a counting,
        timing wrapper, and restore the originals on exit."""
        originals = [
            (module, module.antibody_fitness)
            for module in FITNESS_SITES
            if hasattr(module, "antibody_fitness")
        ]
        if not originals:
            raise RuntimeError("no module looks up antibody_fitness; nothing to count")
        stack = self._stack
        clock = time.perf_counter

        def counting(fitness):
            def counted(antibody, universe, sample):
                started = clock()
                value = fitness(antibody, universe, sample)
                elapsed = clock() - started
                self.fitness_calls += 1
                self._seen.add(antibody.jobs)
                if stack:
                    top = stack[-1]
                    top.fitness_s += elapsed
                    top.fitness_calls += 1
                return value

            return counted

        for module, original in originals:
            module.antibody_fitness = counting(original)
        try:
            yield
        finally:
            for module, original in originals:
                module.antibody_fitness = original

    def write(self, path: Path) -> None:
        """Write every closed span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for record in sorted(self.spans, key=lambda s: s.ident):
                out.write(json.dumps(asdict(record)) + "\n")
