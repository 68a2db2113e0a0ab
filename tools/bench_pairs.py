"""Paired benchmark runs of two checkouts: medians, quartiles and wins.

Usage, from anywhere:

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload gen-toy \
        --seeds 7201-7210 [--seconds 30] [--out pairs.json]

For each seed it runs `python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0` once in each checkout, alternating which side runs
first (the parent first on the first seed). Each run uses the checkout's own
perfbench and sources. It then prints, per workload and end-to-end metric,
each side's median and quartiles, the change's median over the parent's,
and the pairs the change won (a tie counts for neither side), read in the
direction `BENCHMARK.json` gives for the metric. Under each metric it says
whether a gain may be claimed: at least 9/10 of the pairs won, and a median
gap, in the better direction, larger than the parent's interquartile range.
Runs that are not `correct`, or that fail operations, are reported too.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """'7201-7205,7300' -> [7201, ..., 7205, 7300]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(workload: str, pairs: list[tuple[dict, dict]], better: dict[str, str]) -> None:
    print(f"\n{workload}: {len(pairs)} pairs")
    for side, index in (("parent", 0), ("change", 1)):
        bad = [(p[index]["correct"], p[index]["failed"]) for p in pairs
               if not p[index]["correct"] or p[index]["failed"]]
        print(f"  {side}: {len(pairs) - len(bad)}/{len(pairs)} runs correct with 0 failed"
              + (f"; others (correct, failed): {bad}" if bad else ""))
    print(f"  {'metric':18s} {'parent median [q1, q3]':>30s} {'change median [q1, q3]':>30s}"
          f" {'change/parent':>13s} {'wins':>6s}")
    for name in pairs[0][0]["metrics"]:
        old = [p[0]["metrics"][name]["value"] for p in pairs]
        new = [p[1]["metrics"][name]["value"] for p in pairs]
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        (o1, om, o3), (n1, nm, n3) = quartiles(old), quartiles(new)
        ratio = nm / om if om else float("nan")
        print(f"  {name:18s} {om:12.4g} [{o1:.4g}, {o3:.4g}]".ljust(51)
              + f" {nm:12.4g} [{n1:.4g}, {n3:.4g}]".ljust(31)
              + f" {ratio:13.3f} {wins:3d}/{len(pairs)}")
        print(f"  {'':18s} {gain_verdict(wins, len(pairs), sign * (nm - om), o3 - o1)}")


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload of BENCHMARK.json; repeat for several")
    parser.add_argument("--seeds", required=True, help="e.g. 7201-7210 or 1,5,9")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=Path, help="write every run's result here as JSON")
    args = parser.parse_args(argv)

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    results = {}
    for workload in args.workload:
        pairs = []
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            runs = {}
            for side in order:
                runs[side] = run_once(getattr(args, side), workload, seed, args.seconds)
                print(f"{workload} seed {seed} {side}: "
                      + json.dumps({k: round(v["value"], 4)
                                    for k, v in runs[side]["metrics"].items()}),
                      flush=True)
            pairs.append((runs["parent"], runs["change"]))
        results[workload] = {"seeds": seeds, "pairs": pairs}
        report(workload, pairs, better)
    if args.out:
        args.out.write_text(json.dumps(results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
