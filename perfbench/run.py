"""Benchmark for occpoint: data generation, pretraining and single-cloud inference.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload gen-toy --seed 1 --seconds 25 --trace 0

It imports occpoint from the checkout's own `src/`, makes every input from
--seed, runs whole rounds of one workload for about --seconds, checks the
outputs, and prints one JSON object as its last line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are the per-layer ones, taken
from traced rounds that alternate with untraced ones. See README.md.
"""

from __future__ import annotations

import os

# Pin every BLAS/OpenMP pool to one thread before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program():
    """Import occpoint from this checkout's sources, never from elsewhere."""
    if not (SRC / "occpoint" / "__init__.py").is_file():
        raise SystemExit(f"error: no occpoint sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import occpoint

    if Path(occpoint.__file__).resolve().parent != (SRC / "occpoint").resolve():
        raise SystemExit(f"error: occpoint imported from {occpoint.__file__}, not {SRC}")


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = {}
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("gen-toy", "pretrain-toy", "embed-desk"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import workloads
    from tracing import layer_metrics

    work = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = workloads.WORKLOADS[args.workload](
            workloads.Context(seed=args.seed, seconds=args.seconds,
                              trace=bool(args.trace), work=work)
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = layer_metrics(run.tracer, run.traced_rounds, run.trace_overhead_pct())
    else:
        metrics = run.metrics

    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}")
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(), "rounds": run.rounds,
        "attempted": run.attempted, "failed": run.failed, "checks": run.checks,
    }, default=float))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    t_start = time.perf_counter()
    code = main()
    print(f"wall {time.perf_counter() - t_start:.1f}s", file=sys.stderr)
    sys.exit(code)
