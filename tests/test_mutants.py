"""tools/mutants.py's catalogue still fits the source it mutates.

Running the catalogue takes minutes, so it is a CI step of its own; these
checks take milliseconds. A refactor that moves or rewrites a catalogued
snippet fails here, and updates the entry, in the same change.
"""

from collections import Counter

import pytest

from mutants import CATALOGUE, EQUIVALENT, KILLED, PACKAGE, ROOT, applied


@pytest.mark.parametrize("m", CATALOGUE, ids=[m.name for m in CATALOGUE])
def test_entry_mutates_one_snippet_into_valid_python(m):
    path = ROOT / PACKAGE / m.file
    text = path.read_text()
    assert text.count(m.old) == 1
    assert m.new != m.old
    compile(applied(m, text), str(path), "exec")


@pytest.mark.parametrize("m", CATALOGUE, ids=[m.name for m in CATALOGUE])
def test_entry_states_its_expectation(m):
    assert m.expect in (KILLED, EQUIVALENT)
    assert bool(m.reason) == (m.expect == EQUIVALENT)


def test_entry_names_are_unique():
    assert [name for name, n in Counter(m.name for m in CATALOGUE).items() if n > 1] == []


def test_applied_names_an_entry_whose_snippet_is_not_there_once():
    m = CATALOGUE[0]
    with pytest.raises(ValueError, match=f"^{m.name}: snippet occurs 0 times in "):
        applied(m, "")
    with pytest.raises(ValueError, match=f"^{m.name}: snippet occurs 2 times in "):
        applied(m, m.old * 2)
