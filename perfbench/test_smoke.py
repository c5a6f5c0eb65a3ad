"""Toy-size smoke run of the benchmark harness.

Runs every workload untraced and traced at the ``toy`` scale (N=16, K=16),
which takes seconds, and checks the result line against BENCHMARK.json.
Run with ``python -m pytest perfbench``; the tier-1 suite does not collect
this directory.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, root=ROOT, seed=5):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace), "--scale", "toy"],
        cwd=root, capture_output=True, text=True, timeout=170)


def parse(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["info"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_reports_every_declared_metric(workload, trace):
    result, info = parse(run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert ({m["name"]: m["unit"] for m in declared}
            == {name: m["unit"] for name, m in result["metrics"].items()})
    assert info["problems"] == []
    assert info["provenance"]["src_lines"] > 0
    assert {"0.loglik.full", "0.loglik.toeplitz",
            "0.sweep_csv"} <= set(info["hashes"])


def test_same_seed_gives_identical_outputs():
    first = parse(run("sweep-all-n64", 0, seed=9))[1]
    second = parse(run("sweep-all-n64", 0, seed=9))[1]
    assert first["hashes"] == second["hashes"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run("train-n64", 0, root=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
