"""tools/study.py: README's phase-two table on a scaled grid, and the splice.

The table test runs the study's grid at 2 master seeds with 5 generations,
2 replicates, a population of 20 and a fast SA schedule, and compares the
table byte for byte with tests/golden/study/table.md. A change that alters
the random stream on purpose regenerates it with

    PYTHONPATH=src:tools python tests/test_study.py

and says so in CHANGES.md.
"""

import sys
import time
from pathlib import Path

import pytest

from immunesched import ExperimentConfig, GAConfig, SAConfig
from study import BEGIN, END, splice, study_table

GOLDEN = Path(__file__).resolve().parent / "golden" / "study" / "table.md"
SCALED = ExperimentConfig(
    replicates=2,
    ga=GAConfig(generations=5, population_size=20),
    sa=SAConfig(initial_temperature=20.0, final_temperature=0.5, cooling_factor=0.85),
)


def scaled_table() -> str:
    return study_table(range(2), SCALED)


def test_scaled_table_matches_golden():
    started = time.perf_counter()
    table = scaled_table()
    elapsed = time.perf_counter() - started
    assert table.encode() == GOLDEN.read_bytes(), "study/table.md changed"
    assert elapsed < 2.0, f"scaled study took {elapsed:.2f} s"


def test_splice_rewrites_only_between_the_markers():
    head, old, tail = "# Title\n\ntext\n", "| old |\n", "\nmore text\n"
    text = head + BEGIN + old + END + tail
    assert splice(text, "| new |\n") == head + BEGIN + "| new |\n" + END + tail
    assert splice(text, old) == text


@pytest.mark.parametrize(
    "text",
    [
        "no markers\n",
        BEGIN + "| t |\n",
        "| t |\n" + END,
        END + "| t |\n" + BEGIN,
        BEGIN + "| t |\n" + END + BEGIN + "| u |\n" + END,
        BEGIN + BEGIN + "| t |\n" + END,
    ],
    ids=["none", "no-end", "no-begin", "reversed", "two-tables", "begin-twice"],
)
def test_splice_rejects_missing_or_doubled_markers(text):
    with pytest.raises(ValueError, match="expected one"):
        splice(text, "| new |\n")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_bytes(scaled_table().encode())
    print(f"wrote {GOLDEN}", file=sys.stderr)
