"""Checks of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

Takes about two to three minutes: every workload is traced twice over one round.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Work counters that must repeat exactly for a given seed and round count.
COUNTERS = (
    "extremum.evals",
    "channel.ser_calls",
    "channel.capacity_calls",
    "mac.packets",
    "mac.identifiers",
    "interference.surface_points",
    "interference.trial_signals",
    "msequence.generate_calls",
    "cli.rerun_mismatches",
    "extremum.infeasible_on_feasible",
    "extremum.negative_slack",
    "channel.bracket_misses",
)


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def _names(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_counters_repeat_exactly(workload):
    runs = [_result(_run("--workload", workload, "--seed", "5", "--rounds", "1", "--trace", "1"))
            for _ in range(2)]
    for run in runs:
        assert run["correct"], run
        assert {k: v["unit"] for k, v in run["metrics"].items()} == _names("per_layer")
    a, b = (r["metrics"] for r in runs)
    for name in COUNTERS:
        assert a[name]["value"] == b[name]["value"], name
    assert runs[0]["attempted"] == runs[1]["attempted"]
    assert runs[0]["failed"] == runs[1]["failed"]


def test_end_to_end_metrics_named_and_nonzero():
    run = _result(_run("--workload", "interference", "--seed", "5", "--rounds", "1"))
    assert run["correct"] and run["attempted"] >= 1
    assert {k: v["unit"] for k, v in run["metrics"].items()} == _names("end_to_end")
    assert all(v["value"] > 0 for v in run["metrics"].values())


def test_fails_without_the_program():
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp_") as tmp:
        tmp = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, tmp / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("--workload", "design", "--seed", "1", "--seconds", "1", "--trace", "0",
                    cwd=tmp)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
