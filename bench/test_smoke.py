"""Smoke test of the benchmark: every workload at the tiny scale.

    python3 -m pytest -q bench/test_smoke.py

Checks that each run prints every metric with a unit, fails no replicate,
writes CSVs that the traced run reproduces and that `run_experiment`
reproduces for the same configuration, and that the benchmark refuses to
run without the package source next to it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 5

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from immunesched import ExperimentConfig, emit_reports, run_experiment  # noqa: E402
from workloads import UNIVERSE_STRIDE, workload  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def run_tiny(name: str, trace: int):
    done = bench(
        "--workload", name, "--seed", str(SEED), "--seconds", "0",
        "--trace", str(trace), "--scale", "tiny",
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, metric, value, unit = line.split()[:4]
            printed[metric] = (float(value), unit)
    return json.loads(lines[-1]), printed, lines


def digest_of(lines: list[str], label: str) -> str:
    prefix = f"info {label} digest "
    found = [line[len(prefix):].split()[0] for line in lines if line.startswith(prefix)]
    assert len(found) == 1, lines
    return found[0]


def check_result(result: dict, printed: dict, section: str) -> None:
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert printed[name][1] == unit


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_workload(name, tmp_path):
    plain, printed, lines = run_tiny(name, 0)
    check_result(plain, printed, "end_to_end")
    assert printed["error_rate"] == (0.0, "ratio")
    untraced = digest_of(lines, "untraced")

    traced, printed, lines = run_tiny(name, 1)
    check_result(traced, printed, "per_layer")
    assert "info traced digest equals the untraced run's" in lines
    assert digest_of(lines, "untraced") == untraced

    # The benchmark's first universe is run_experiment's whole run.
    wl = workload(name, "tiny")
    cfg_kwargs = dict(
        ag_sample_sizes=wl.ag_sizes,
        replicates=wl.block_reps,
        phase2=wl.phase2,
        ga=wl.ga,
        master_seed=SEED * UNIVERSE_STRIDE,
    )
    if wl.phase2 != "none":
        cfg_kwargs[wl.phase2] = wl.refine
    cfg = ExperimentConfig(**cfg_kwargs)
    table, report = run_experiment(cfg)
    emit_reports(table, report, cfg, tmp_path)
    written = ROOT / ".bench_out" / "tiny" / name / "untraced" / "u00"
    for csv in ("coverage.csv", "fitness.csv"):
        assert (written / csv).read_bytes() == (tmp_path / csv).read_bytes()


def test_refuses_without_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(
        "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
