"""The no-regression verdict of tools/bench_pairs.py, on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

LOWER, HIGHER = -1.0, 1.0
NARROW = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.02, 0.98]  # median 1, IQR 0.02
WIDE = [0.70, 1.30, 0.80, 1.20, 1.00, 0.75, 1.25, 0.90, 1.10, 1.00]    # median 1, IQR > 0.25


def scaled(runs, factor):
    return [factor * r for r in runs]


@pytest.mark.parametrize("old, new, sign, want", [
    # Lower is better: a median 40 % higher is worse than a 25 % bound.
    (NARROW, scaled(NARROW, 1.4), LOWER, "worse than bound"),
    (NARROW, scaled(NARROW, 1.1), LOWER, "within bound"),
    (NARROW, scaled(NARROW, 0.6), LOWER, "within bound"),
    # Higher is better: the same 40 % rise is a gain, a 40 % drop is worse.
    (NARROW, scaled(NARROW, 1.4), HIGHER, "within bound"),
    (NARROW, scaled(NARROW, 0.6), HIGHER, "worse than bound"),
    # The parent's spread is wider than the bound: a small change cannot be
    # told apart from noise...
    (WIDE, scaled(WIDE, 1.05), LOWER, "unresolved"),
    (WIDE, scaled(WIDE, 0.95), LOWER, "unresolved"),
    # ...unless every change run beats every parent run,
    (WIDE, [0.5] * 10, LOWER, "within bound"),
    (WIDE, [1.5] * 10, HIGHER, "within bound"),
    # and a median worse by more than the bound is worse whatever the spread.
    (WIDE, scaled(WIDE, 1.5), LOWER, "worse than bound"),
])
def test_regression_verdict(old, new, sign, want):
    verdict = bench_pairs.regression_verdict(old, new, sign, 0.25)
    assert verdict.split(":")[0] == want


def test_regression_verdict_bound_is_relative_to_the_parent_median():
    old = scaled(NARROW, 100.0)
    assert bench_pairs.regression_verdict(old, scaled(old, 1.2), LOWER, 0.25).startswith(
        "within bound: median worse by 20, bound 25,")
    assert bench_pairs.regression_verdict(old, scaled(old, 1.2), LOWER, 0.15).startswith(
        "worse than bound: median worse by 20, bound 15,")
