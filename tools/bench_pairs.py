"""Paired benchmark runs of two checkouts: medians, quartiles and wins.

Usage, from anywhere:

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload gen-toy \
        --seeds 7201-7210 [--seconds 30] [--out pairs.json]

For each seed it runs `python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0` once in each checkout, alternating which side runs
first (the parent first on the first seed). Each run uses the checkout's own
perfbench and sources, so both checkouts must hold the same benchmark code:
it refuses to start when `BENCHMARK.json` or a file under `perfbench/`
(compiled caches aside) differs between them, or is in one only, and names
the first such file. It then prints, per workload and end-to-end metric,
each side's median and quartiles, the change's median over the parent's,
and the pairs the change won (a tie counts for neither side), read in the
direction `BENCHMARK.json` gives for the metric. Under each metric it says
whether a gain may be claimed: at least 9/10 of the pairs won, and a median
gap, in the better direction, larger than the parent's interquartile range.
It also says whether the metric regressed: "worse than bound" when the
change's median is worse than the parent's by more than the metric's bound
(a fraction of the parent's median), "unresolved" when it is not but the
parent's interquartile range is wider than the bound, unless every change
run beats every parent run, and "within bound" otherwise. Runs that are not
`correct`, or that fail operations, are reported too, with each side's share
of failed operations over all its runs. `--out` writes the raw runs and,
per metric, the medians, quartiles, wins and both verdicts, beside where
they came from: each checkout's commit, and the python, numpy, BLAS thread
settings and CPU count the runs saw. When a run
exits non-zero or its last stdout line is not a result, `--out` still gets
the pairs run so far, with the failing command, its stderr tail and that
line under "failure", and the tool exits 1. The directory of `--out` is
created before the first run, and the file is written to a temporary name
and then renamed over it.
Standard library only.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_seeds(text: str) -> list[int]:
    """'7201-7205,7300' -> [7201, ..., 7205, 7300], for argparse: a part that
    is empty, open ('7201-'), reversed ('9-1') or not an integer is a usage
    error, so that no run starts with fewer seeds than were meant."""
    seeds = []
    for part in text.split(","):
        match = re.fullmatch(r"([0-9]+)(?:-([0-9]+))?", part.strip())
        lo, hi = (int(match[1]), int(match[2] or match[1])) if match else (1, 0)
        if lo > hi:
            raise argparse.ArgumentTypeError(f"{part!r} is not a seed or a range LO-HI, LO <= HI")
        seeds.extend(range(lo, hi + 1))
    return seeds


def benchmark_files(checkout: Path) -> dict[str, bytes]:
    """`BENCHMARK.json` and every file under `perfbench/` of a checkout, by
    relative path; `__pycache__` is skipped, since running writes it."""
    paths = [checkout / "BENCHMARK.json", *(checkout / "perfbench").rglob("*")]
    return {p.relative_to(checkout).as_posix(): p.read_bytes() for p in paths
            if p.is_file() and "__pycache__" not in p.parts}


def first_difference(parent: Path, change: Path) -> str | None:
    """The first benchmark file, by path, that differs between two checkouts
    or is in one only; None when they hold the same benchmark code."""
    old, new = benchmark_files(parent), benchmark_files(change)
    return next((name for name in sorted(old.keys() | new.keys())
                 if old.get(name) != new.get(name)), None)


def commit(checkout: Path) -> str:
    """`git rev-parse HEAD` in a checkout, or "unknown" when it fails."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    """What the runs of both checkouts share: the interpreter they run under,
    its numpy, the BLAS thread settings they inherit and the CPU count."""
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "unknown"
    return {"python": platform.python_version(), "numpy": numpy,
            "threads": {var: os.environ.get(var) for var in THREAD_VARS},
            "cpu_count": os.cpu_count()}


class RunFailed(Exception):
    """A benchmark run that exited non-zero or whose last stdout line is not a
    result; `record` holds the command, the checkout, the exit code, the
    stderr tail and, for a run that exited 0, that last line."""

    def __init__(self, cmd: list[str], checkout: Path, returncode: int, stderr: str,
                 last_line: str | None = None):
        self.record = {"command": cmd, "checkout": str(checkout),
                       "returncode": returncode, "stderr_tail": stderr[-2000:]}
        what = f"exited {returncode}"
        if last_line is not None:
            self.record["last_line"] = last_line
            what += f" but printed no result, last line {last_line!r}"
        super().__init__(f"{' '.join(cmd)} in {checkout} {what}:\n"
                         f"{self.record['stderr_tail']}")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        raise RunFailed(cmd, checkout, proc.returncode, proc.stderr)
    last = lines[-1] if lines else ""
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        raise RunFailed(cmd, checkout, proc.returncode, proc.stderr, last_line=last)
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def failed_share(runs: list[dict]) -> str:
    """The share of operations that failed over all of one side's runs."""
    failed, attempted = sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)
    return f"{failed}/{attempted} operations failed" + (
        f" ({failed / attempted:.3%})" if attempted else "")


def summarize(old: list[float], new: list[float], metric: dict) -> dict:
    """One metric's medians, quartiles, wins and both verdicts, from the
    parent's runs `old` and the change's runs `new`, paired by index."""
    sign = -1.0 if metric["better"] == "lower" else 1.0
    wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
    (o1, om, o3), (n1, nm, n3) = quartiles(old), quartiles(new)
    return {
        "parent": {"median": om, "q1": o1, "q3": o3},
        "change": {"median": nm, "q1": n1, "q3": n3},
        "ratio": nm / om if om else float("nan"),
        "wins": wins,
        "pairs": len(old),
        "gain": gain_verdict(wins, len(old), sign * (nm - om), o3 - o1),
        "regression": regression_verdict(old, new, sign, metric["bound"]),
    }


def report(workload: str, pairs: list[tuple[dict, dict]], spec: dict[str, dict]) -> dict:
    """Print the summary of one workload's pairs; return it per metric."""
    print(f"\n{workload}: {len(pairs)} pairs")
    for side, index in (("parent", 0), ("change", 1)):
        runs = [p[index] for p in pairs]
        bad = [(r["correct"], r["failed"]) for r in runs if not r["correct"] or r["failed"]]
        print(f"  {side}: {len(pairs) - len(bad)}/{len(pairs)} runs correct with 0 failed; "
              + failed_share(runs)
              + (f"; others (correct, failed): {bad}" if bad else ""))
    print(f"  {'metric':18s} {'parent median [q1, q3]':>30s} {'change median [q1, q3]':>30s}"
          f" {'change/parent':>13s} {'wins':>6s}")
    summary = {}
    for name in pairs[0][0]["metrics"]:
        old = [p[0]["metrics"][name]["value"] for p in pairs]
        new = [p[1]["metrics"][name]["value"] for p in pairs]
        row = summary[name] = summarize(old, new, spec[name])
        o, n = row["parent"], row["change"]
        print(f"  {name:18s} {o['median']:12.4g} [{o['q1']:.4g}, {o['q3']:.4g}]".ljust(51)
              + f" {n['median']:12.4g} [{n['q1']:.4g}, {n['q3']:.4g}]".ljust(31)
              + f" {row['ratio']:13.3f} {row['wins']:3d}/{row['pairs']}")
        print(f"  {'':18s} {row['gain']}")
        print(f"  {'':18s} {row['regression']}")
    return summary


def gain_verdict(wins: int, pairs: int, gain: float, parent_iqr: float) -> str:
    """Whether a gain may be claimed: the change wins at least 9 of every 10
    pairs, and its median beats the parent's by more than the parent's
    interquartile range. `gain` is the median gap, positive when the change
    is better."""
    won = 10 * wins >= 9 * pairs
    clear = gain > parent_iqr
    verdict = "gain" if won and clear else "no gain"
    return (f"{verdict}: {wins}/{pairs} wins {'>=' if won else '<'} 9/10, median gap "
            f"{gain:.4g} {'>' if clear else '<='} parent IQR {parent_iqr:.4g}")


def regression_verdict(old: list[float], new: list[float], sign: float,
                       bound: float) -> str:
    """Whether the change regressed one metric, from the parent's runs `old`
    and the change's runs `new`. `sign` is 1 when higher is better and -1
    when lower is; `bound` is the worst allowed change of the median, as a
    fraction of the parent's median. A median worse by more than the bound
    is "worse than bound". Otherwise the metric is "unresolved" when the
    parent's runs spread wider than the bound, measured by their
    interquartile range, unless every change run beats every parent run;
    else it is "within bound"."""
    (o1, om, o3), (_, nm, _) = quartiles(old), quartiles(new)
    limit = bound * abs(om)
    loss = sign * (om - nm)  # positive when the change is worse
    separated = min(sign * b for b in new) > max(sign * a for a in old)
    if loss > limit:
        verdict = "worse than bound"
    elif o3 - o1 > limit and not separated:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return (f"{verdict}: median {'worse' if loss > 0 else 'better'} by {abs(loss):.4g}, "
            f"bound {limit:.4g}, parent IQR {o3 - o1:.4g}"
            + ("; every change run beats every parent run" if separated else ""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload of BENCHMARK.json; repeat for several")
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="e.g. 7201-7210 or 1,5,9")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=Path, help="write every run's result and each "
                        "metric's summary here as JSON")
    args = parser.parse_args(argv)

    differs = first_difference(args.parent, args.change)
    if differs is not None:
        raise SystemExit(f"error: {differs} differs between {args.parent} and "
                         f"{args.change}; both must run the same benchmark code")
    if args.out:
        # Made before the first run, so a bad --out costs no run.
        try:
            args.out.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise SystemExit(f"error: cannot create the directory of --out {args.out}: "
                             f"{exc.strerror or exc}") from exc
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    results = {"commits": {"parent": commit(args.parent), "change": commit(args.change)},
               "environment": environment()}
    try:
        for workload in args.workload:
            pairs = []
            results[workload] = {"seeds": args.seeds, "pairs": pairs}
            for i, seed in enumerate(args.seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                runs = {}
                for side in order:
                    runs[side] = run_once(getattr(args, side), workload, seed, args.seconds)
                    print(f"{workload} seed {seed} {side}: "
                          + json.dumps({k: round(v["value"], 4)
                                        for k, v in runs[side]["metrics"].items()}),
                          flush=True)
                pairs.append((runs["parent"], runs["change"]))
            results[workload]["summary"] = report(workload, pairs, metrics)
    except RunFailed as failure:
        results["failure"] = failure.record
        print(f"error: {failure}", file=sys.stderr)
    if args.out:
        # A temporary file, then a rename: an old --out is whole until the new one is.
        tmp = args.out.with_name(f".{args.out.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(results, indent=1) + "\n")
        os.replace(tmp, args.out)
    return 1 if "failure" in results else 0


if __name__ == "__main__":
    sys.exit(main())
