#!/usr/bin/env python3
"""limfb benchmark: paper-scale EM training and two full-profile sweeps.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep-all-n64 --seed 1 \
        --seconds 50 --trace 0

One closed-loop process, one caller, BLAS threads pinned before numpy is
imported. ``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs
the same work once untraced and once traced and prints the per-layer
metrics. The last line of standard output is the result object; the line
before it holds provenance, output digests and counters. See README.md.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# On a shared 2-vCPU machine a second BLAS thread made run-to-run timings
# swing by up to 30 % and gained at most 20 % on EM.
BLAS_THREADS = 1

END_TO_END_UNITS = {"setup_s": "s", "em_full_s_per_iter": "s",
                    "em_toeplitz_s_per_iter": "s",
                    "sweep_ms_per_constellation": "ms", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-n64", "sweep-all-n64"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("paper", "toy"), default="paper",
                        help="toy is the seconds-long smoke size")
    return parser.parse_args(argv)


def import_limfb():
    """Import limfb from this checkout's src/, never from elsewhere."""
    if not (SRC / "limfb" / "__init__.py").is_file():
        raise SystemExit(f"error: no limfb sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import limfb
    if not Path(limfb.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: limfb imported from {limfb.__file__}")
    return limfb


def provenance(seed):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    src_lines = sum(len(path.read_text().splitlines())
                    for path in sorted((SRC / "limfb").glob("*.py")))
    return {"nproc": len(os.sched_getaffinity(0)),
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "git_commit": commit,
            "workload_seed": seed, "src_lines": src_lines}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(bench, seconds):
    """End-to-end metrics: the median of each metric's samples."""
    from workloads import measure
    samples = measure(bench, seconds)
    metrics = {name: statistics.median(values)
               for name, values in samples.items()}
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics, {"samples": samples}


def run_traced(bench, limfb):
    """Per-layer metrics: a traced set-up, then one timed pass untraced and
    one traced, whose difference is the tracing overhead; then each scheme
    of the workload alone through run_sweep, untraced."""
    from layers import layer_metrics
    from spans import Tracer, aggregate, subtree
    from workloads import ALL_SCHEMES, scheme_metric

    tracer = Tracer(limfb)
    with tracer:
        _, state, _ = bench.setup()
    untraced = bench.timed_pass(state)
    with tracer:
        first = len(tracer.spans)
        traced = bench.timed_pass(state)
    metrics, tails = layer_metrics(tracer.spans, bench)
    overhead = {part: traced[part] - untraced[part] for part in traced}
    metrics["trace.overhead_s"] = sum(overhead.values())
    root = next(sid for sid in range(first, len(tracer.spans))
                if tracer.spans[sid][0] == "evaluate.run_sweep")
    sweep_self_s = sum(entry["self_s"] for entry in aggregate(
        subtree(tracer.spans, root), root).values())

    for tag in ALL_SCHEMES:
        metrics[scheme_metric(tag)] = (
            bench.sweep(state, (tag,)) if tag in bench.workload.schemes
            else 0.0)

    spans_path = bench.out_dir / f"spans-{bench.workload.name}.jsonl"
    tracer.write(spans_path)
    slack, ridge = tracer.swmmse_power_slack, tracer.swmmse_final_ridge
    info = {
        "tracing_overhead_s": overhead,
        "run_sweep_s": {"untraced": untraced["run_sweep"],
                        "traced": traced["run_sweep"],
                        "sum_of_span_self_times": sweep_self_s},
        "p95": tails,
        "degeneracy": dict(
            tracer.counters,
            swmmse_designs=len(ridge),
            swmmse_final_power_slack_max=max(slack, default=0.0),
            swmmse_final_ridge_max=max(ridge, default=0.0),
            swmmse_final_ridge_positive=sum(lam > 0.0 for lam in ridge)),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, info


def main(argv=None):
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy is first imported
    limfb = import_limfb()
    # the benchmark's own modules import limfb, so they load after it
    from layers import LAYER_UNITS
    from workloads import SCALES, WORKLOADS, Bench

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    bench = Bench(WORKLOADS[args.workload], SCALES[args.scale], args.seed,
                  out_dir)
    started = time.perf_counter()
    try:
        if args.trace:
            metrics, info = run_traced(bench, limfb)
        else:
            metrics, info = run_untraced(bench, args.seconds)
    except Exception:  # the run's boundary: report the failure, exit non-zero
        traceback.print_exc()
        bench.attempted += 1
        bench.failed += 1
        bench.problems.append("exception: " + traceback.format_exc(limit=1))
        metrics, info = {}, {}
    units = LAYER_UNITS if args.trace else END_TO_END_UNITS

    failed_frac = bench.failed / max(bench.attempted, 1)
    for name in sorted(metrics):
        print(f"{name:58s} {metrics[name]:>14.6g} {units[name]}")
    print(f"{'ops_failed_frac':58s} {failed_frac:>14.6g} ratio "
          f"({bench.failed} of {bench.attempted})")
    info.update(workload=args.workload, scale=args.scale,
                provenance=provenance(args.seed),
                ops_failed_frac={"value": failed_frac, "unit": "ratio"},
                problems=bench.problems, hashes=bench.hashes,
                wall_s=time.perf_counter() - started)
    print(json.dumps({"info": info}, default=float))
    correct = bench.failed == 0 and bench.attempted > 0
    print(json.dumps({
        "correct": correct, "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
