"""Self-test of the benchmark on tiny inputs.

    python3 -m pytest -q perfbench/test_bench.py

Each workload runs once untraced and twice traced with the same seed; every
metric BENCHMARK.json names must come out with its unit, the verdict checks
must pass, and the traced counts must repeat exactly between the two runs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
EXACT_UNITS = ("count", "bytes", "draws/point")


def run(workload, trace, cwd=ROOT):
    argv = BENCH["command"] + [
        "--workload", workload, "--seed", "5", "--seconds", "0.5",
        "--trace", str(trace), "--size", "tiny",
    ]
    argv[0] = sys.executable
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1
    return result


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    proc = run(workload, 0)
    result = result_of(proc)
    assert units(result) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["failed"] == 0
    for name in ("lh_forms_per_s", "jumps_per_s", "failed_frac", "rank_error_frac"):
        assert "  " + name in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics_repeat(workload):
    first, second = (result_of(run(workload, 1)) for _ in range(2))
    assert units(first) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    counts = {n for n, u in units(first).items() if u in EXACT_UNITS}
    assert {n: first["metrics"][n]["value"] for n in counts} == {
        n: second["metrics"][n]["value"] for n in counts
    }


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
