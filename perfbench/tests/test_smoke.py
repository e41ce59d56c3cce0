"""Tiny-scale runs of every workload through the one command."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import metrics
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_emits_every_metric_and_passes_checks(workload, trace):
    completed = run_bench(ROOT, "--workload", workload, "--seed", "7",
                          "--seconds", "1", "--trace", trace, "--smoke")
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = last_json(completed.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    if trace == "0":
        expected = {name: unit for name, unit, _ in metrics.END_TO_END}
    else:
        expected = metrics.per_layer_units()
    assert {name: value["unit"] for name, value
            in result["metrics"].items()} == expected
    if trace == "0":
        assert all(value["value"] > 0
                   for value in result["metrics"].values())
        for name, unit in metrics.REPORTED:
            assert f"{name} " in completed.stdout
    else:
        layers = result["metrics"]
        assert layers["replay.validated_ratio"]["value"] == 1
        assert layers["hooks.missing"]["value"] == 0
        assert layers["spans.coverage_ratio"]["value"] > 0.95
        assert layers["trace.overhead.audit_ratio"]["value"] > 0


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [workload["name"] for workload in spec["workloads"]] \
        == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["bound"]) for m in spec["end_to_end"]] \
        == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == metrics.per_layer_units()


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    completed = run_bench(tmp_path, "--workload", "audit-dml", "--seed", "1",
                          "--seconds", "1", "--trace", "0")
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
