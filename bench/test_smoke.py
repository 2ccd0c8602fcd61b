"""Smoke test of the benchmark at its smallest size (one unit per run).

    python3 -m pytest bench/test_smoke.py

It runs the benchmark command as BENCHMARK.json names it, so it takes about
half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _bench(*args: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *BENCHMARK["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(workload: str, trace: int) -> dict:
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit_and_traced_counts_repeat(workload):
    untraced = _result(workload, 0)
    assert set(untraced) == {"correct", "attempted", "failed", "metrics"}
    assert untraced["correct"] and untraced["failed"] == 0 and untraced["attempted"] >= 1
    assert {k: v["unit"] for k, v in untraced["metrics"].items()} == _declared("end_to_end")

    first, second = _result(workload, 1), _result(workload, 1)
    assert first["correct"] and second["correct"]
    assert {k: v["unit"] for k, v in first["metrics"].items()} == _declared("per_layer")
    counts = [name for name, unit in _declared("per_layer").items() if unit == "count"]
    for name in counts:
        assert isinstance(first["metrics"][name]["value"], int), name
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_correctness_check_rejects_a_perturbed_statistic():
    run.import_package()
    reference = run.load_reference()
    for workload in run.WORKLOADS.values():
        units = run.reference_for(reference, workload, run.load_config(workload))
        recorded = units["5"]
        result = run.UnitResult(5, 1, 0, recorded["stat"], recorded["digest"])
        assert run.check_unit(units, result) == (True, True)
        result.stat += 1e-4 * max(1.0, abs(result.stat))
        assert run.check_unit(units, result) == (False, True)
        result.stat, result.digest = recorded["stat"], "0" * 64
        assert run.check_unit(units, result) == (True, False)


def test_fails_without_the_package_source():
    alone = run.OUT_DIR / "without-source"
    shutil.rmtree(alone, ignore_errors=True)
    alone.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", alone)
    shutil.copytree(run.BENCH_DIR, alone / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=alone)
    shutil.rmtree(alone)
    assert proc.returncode != 0
    assert proc.stdout == ""
