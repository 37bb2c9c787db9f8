"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_smoke.py -q

It is not part of the repository's test suite (pytest collects tests/ only).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

from common import BENCH_DIR, ROOT, import_rieszlab

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_benchmark(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_benchmark(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float)) and math.isfinite(emitted["value"])
        assert any(line.startswith(f"{metric['name']} ") and line.endswith(metric["unit"])
                   for line in lines)


@pytest.fixture()
def matrix_runner(tmp_path):
    import_rieszlab()
    import rieszlab.cli  # noqa: F401
    from inputs import build
    from run import Runner, load_commands

    build("matrix_files", 1, str(tmp_path), tiny=True)
    return Runner(load_commands(str(tmp_path)))


def test_wrong_expected_verdict_counts_as_failure(matrix_runner):
    command = next(c for c in matrix_runner.commands
                   if c["id"].startswith("analyze:") and c["check"]["verdict"] == "RieszBasis")
    command["check"]["verdict"] = "RieszSequenceIncomplete"
    matrix_runner.run_cycle()
    assert matrix_runner.failed == 1
    assert matrix_runner.attempted == len(matrix_runner.commands)
    assert "verdict RieszBasis, expected RieszSequenceIncomplete" in matrix_runner.failures[0]


def test_changed_output_on_repeat_counts_as_failure(matrix_runner):
    matrix_runner.run_cycle()
    assert matrix_runner.failed == 0
    first = matrix_runner.commands[0]["id"]
    matrix_runner.reference[first] = "0" * 64
    matrix_runner.run_cycle()
    assert matrix_runner.failed == 1
    assert matrix_runner.failures == [f"{first}: output differs from the first run of the same command"]


def test_counter_counts_direct_calls_and_the_norm_svd():
    from tracing import counter_self_check

    assert counter_self_check()["ok"]


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
