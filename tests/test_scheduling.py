import random

import pytest

from immunesched import (
    ARRIVAL_DAY_MAX,
    JOB_COUNT,
    Antigen,
    AntigenUniverse,
    BaseProblem,
    Job,
    default_base_problem,
    generate_universe,
    load_base_problem,
    load_universe,
    mutate_scenario,
    save_base_problem,
    save_universe,
    schedule_scenario,
)


def make_problem(specs):
    """specs: list of (id, processing, due, arrival) tuples."""
    return BaseProblem(tuple(Job(*s) for s in specs))


def uniform_problem(due_for_id, arrival=0, processing=1):
    return make_problem(
        [(i, processing, due_for_id(i), arrival) for i in range(1, JOB_COUNT + 1)]
    )


class FixedDrawRng:
    """Stub generator: always mutates and always draws the same arrival."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return 0.0

    def randint(self, lo, hi):
        return self.value


def test_job_rejects_arrival_after_due_minus_processing():
    with pytest.raises(ValueError):
        Job(1, 10, 100, 91)
    Job(1, 10, 100, 90)  # boundary is allowed


def test_base_problem_requires_all_ids():
    jobs = [Job(i, 1, 50, 0) for i in range(1, JOB_COUNT)]
    jobs.append(Job(1, 1, 50, 0))  # duplicate id 1, missing 15
    with pytest.raises(ValueError):
        BaseProblem(tuple(jobs))


def test_antigen_must_be_permutation():
    with pytest.raises(ValueError):
        Antigen(tuple([1] * JOB_COUNT))
    with pytest.raises(ValueError):
        Antigen(tuple(range(1, JOB_COUNT)))  # too short


def test_universe_must_hold_ten_antigens():
    ag = Antigen(tuple(range(1, JOB_COUNT + 1)))
    with pytest.raises(ValueError):
        AntigenUniverse((ag,) * 9)


def test_mutate_probability_zero_is_identity():
    base = default_base_problem()
    assert mutate_scenario(base, 0.0, random.Random(1)) == base


def test_mutate_clamps_draw_to_due_minus_processing():
    base = uniform_problem(lambda i: 100, processing=10)
    mutated = mutate_scenario(base, 1.0, FixedDrawRng(95))
    assert all(job.arrival_date == 90 for job in mutated.jobs)


def test_mutate_keeps_other_fields():
    base = default_base_problem()
    mutated = mutate_scenario(base, 1.0, random.Random(3))
    for before, after in zip(base.jobs, mutated.jobs):
        assert (before.id, before.processing_time, before.due_date) == (
            after.id,
            after.processing_time,
            after.due_date,
        )


def test_mutate_invariant_over_100_seeds():
    base = default_base_problem()
    for seed in range(100):
        mutated = mutate_scenario(base, 1.0, random.Random(seed))
        for job in mutated.jobs:
            assert 0 <= job.arrival_date <= ARRIVAL_DAY_MAX
            assert job.arrival_date <= job.due_date - job.processing_time


def test_edd_identity_when_due_increases_with_id():
    base = uniform_problem(lambda i: 20 + i)
    assert schedule_scenario(base).sequence == tuple(range(1, JOB_COUNT + 1))


def test_edd_ties_break_by_id():
    base = uniform_problem(lambda i: 50)
    assert schedule_scenario(base).sequence == tuple(range(1, JOB_COUNT + 1))


def test_edd_hand_traced_dispatch():
    # t=0: only jobs 2 (due 50) and 3 (due 60) have arrived -> job 2 first.
    # t=3: job 1 (arrival 5) still absent -> job 3. t=7: job 1. t=9: nothing
    # until t=100, when jobs 4..15 arrive with due dates 100+id.
    specs = [
        (1, 2, 40, 5),
        (2, 3, 50, 0),
        (3, 4, 60, 0),
    ] + [(i, 1, 100 + i, 100) for i in range(4, JOB_COUNT + 1)]
    base = make_problem(specs)
    expected = (2, 3, 1) + tuple(range(4, JOB_COUNT + 1))
    assert schedule_scenario(base).sequence == expected


def test_edd_is_deterministic():
    base = default_base_problem()
    assert schedule_scenario(base) == schedule_scenario(base)


def test_generate_universe_valid_and_deterministic():
    base = default_base_problem()
    first = generate_universe(base, random.Random(42))
    second = generate_universe(base, random.Random(42))
    assert first == second
    for antigen in first.antigens:
        assert sorted(antigen.sequence) == list(range(1, JOB_COUNT + 1))


def test_generate_universe_zero_probability_repeats_base_schedule():
    base = default_base_problem()
    universe = generate_universe(base, random.Random(0), probability=0.0)
    expected = schedule_scenario(base)
    assert all(antigen == expected for antigen in universe.antigens)


def test_universe_roundtrip(tmp_path):
    base = default_base_problem()
    universe = generate_universe(base, random.Random(5))
    path = tmp_path / "universe.txt"
    save_universe(universe, path)
    assert load_universe(path) == universe


def test_universe_comments_and_blanks_ignored(tmp_path):
    base = default_base_problem()
    universe = generate_universe(base, random.Random(5))
    path = tmp_path / "universe.txt"
    save_universe(universe, path)
    text = "# header comment\n\n" + path.read_text()
    path.write_text(text)
    assert load_universe(path) == universe


def test_universe_wrong_line_count(tmp_path):
    path = tmp_path / "u.txt"
    line = " ".join(str(i) for i in range(1, JOB_COUNT + 1))
    path.write_text("\n".join([line] * 9) + "\n")
    with pytest.raises(ValueError, match="expected 10 antigens"):
        load_universe(path)


def test_universe_duplicate_id_names_line(tmp_path):
    path = tmp_path / "u.txt"
    good = " ".join(str(i) for i in range(1, JOB_COUNT + 1))
    bad = good.replace("15", "1", 1)
    path.write_text("\n".join([good, bad] + [good] * 8) + "\n")
    with pytest.raises(ValueError, match="line 2"):
        load_universe(path)


def test_universe_out_of_range_id(tmp_path):
    path = tmp_path / "u.txt"
    good = " ".join(str(i) for i in range(1, JOB_COUNT + 1))
    bad = good.replace("15", "16")
    path.write_text("\n".join([bad] + [good] * 9) + "\n")
    with pytest.raises(ValueError, match="line 1.*out of range"):
        load_universe(path)


def test_universe_non_integer_token(tmp_path):
    path = tmp_path / "u.txt"
    good = " ".join(str(i) for i in range(1, JOB_COUNT + 1))
    bad = good.replace("15", "x")
    path.write_text("\n".join([good] * 9 + [bad]) + "\n")
    with pytest.raises(ValueError, match="line 10"):
        load_universe(path)


def test_base_problem_roundtrip(tmp_path):
    base = default_base_problem()
    path = tmp_path / "base.txt"
    save_base_problem(base, path)
    assert load_base_problem(path) == base


def test_base_problem_bad_header(tmp_path):
    path = tmp_path / "base.txt"
    path.write_text("jobs 14\n")
    with pytest.raises(ValueError, match="header"):
        load_base_problem(path)


def test_base_problem_bad_header_names_its_line(tmp_path):
    path = tmp_path / "bp.txt"
    path.write_text("# base problem\n\njobs 14\n")
    with pytest.raises(ValueError) as err:
        load_base_problem(path)
    assert str(err.value) == f"{path}: line 3: expected header 'jobs 15'"


def test_base_problem_invalid_job_line(tmp_path):
    base = default_base_problem()
    path = tmp_path / "base.txt"
    save_base_problem(base, path)
    lines = path.read_text().splitlines()
    lines[3] = "3 10 100 95"  # arrival above due - processing
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 4"):
        load_base_problem(path)


def test_default_base_problem_in_documented_ranges():
    base = default_base_problem()
    assert default_base_problem() == base
    for job in base.jobs:
        assert 1 <= job.processing_time <= 20
        assert 30 <= job.due_date <= 300
        assert 0 <= job.arrival_date <= job.due_date - job.processing_time
