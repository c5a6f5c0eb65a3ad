"""The benchmark harness runs on this checkout's library.

``perfbench/run.py`` calls limfb through the names and keywords its
workloads were written against. One toy-scale traced run of each workload
fails here when a library change takes one of them away. The harness runs
on a copy of the checkout, so its output files stay out of the tree.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload",
                         [w["name"] for w in BENCHMARK["workloads"]])
def test_benchmark_workload_runs_traced_at_toy_scale(workload, tmp_path):
    for path in ("src", *BENCHMARK["paths"]):
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "0",
         "--trace", "1", "--scale", "toy"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True
