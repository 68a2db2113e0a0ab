"""The verdicts, the failed-operation share and the `--out` summary of
tools/bench_pairs.py, on synthetic runs."""

import importlib.util
import json
import os
import platform
import subprocess
from pathlib import Path

import numpy as np
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


def fake_run(value, failed=0, attempted=50):
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": {"latency_ms_p50": {"value": value}}}


def test_failed_share_sums_over_runs():
    runs = [fake_run(1.0, failed=1, attempted=40), fake_run(1.0, failed=0, attempted=60)]
    assert bench_pairs.failed_share(runs) == "1/100 operations failed (1.000%)"
    assert bench_pairs.failed_share([fake_run(1.0, attempted=0)]) == "0/0 operations failed"


def one_metric_checkouts(root):
    parent, change = root / "parent", root / "change"
    for checkout in (parent, change):
        checkout.mkdir()
        (checkout / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
            {"name": "latency_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25}]}))
    return parent, change


def test_out_writes_each_metric_summary_beside_the_runs(tmp_path, monkeypatch, capsys):
    """Four alternating pairs with stubbed runs: the change is 20 % slower and
    fails one operation in 50 per run."""
    parent, change = one_metric_checkouts(tmp_path)
    values = {parent: [10.0, 11.0, 9.0, 10.0], change: [12.0, 13.2, 10.8, 12.0]}
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append(checkout)
        i = seed - 1
        return fake_run(values[checkout][i], failed=int(checkout == change))

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--seeds", "1-4",
                             "--out", str(out)]) == 0
    assert calls == [parent, change, change, parent, parent, change, change, parent]
    printed = capsys.readouterr().out
    assert "parent: 4/4 runs correct with 0 failed; 0/200 operations failed (0.000%)" in printed
    assert "change: 0/4 runs correct with 0 failed; 4/200 operations failed (2.000%)" in printed
    doc = json.loads(out.read_text())["w"]
    assert doc["seeds"] == [1, 2, 3, 4] and len(doc["pairs"]) == 4
    row = doc["summary"]["latency_ms_p50"]
    assert row["parent"]["median"] == 10.0 and row["change"]["median"] == 12.0
    assert row["parent"]["q1"] < row["parent"]["median"] < row["parent"]["q3"]
    assert row["wins"] == 0 and row["pairs"] == 4
    assert row["gain"].startswith("no gain: 0/4 wins")
    assert row["regression"].startswith("within bound: median worse by 2, bound 2.5,")


def test_out_records_the_commits_and_the_environment(tmp_path, monkeypatch):
    """The parent is a git checkout and the change is not: its commit reads
    "unknown". The environment is the one the runs inherit."""
    parent, change = one_metric_checkouts(tmp_path)
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    git = ["git", "-C", str(parent), "-c", "user.name=t", "-c", "user.email=t@example.com"]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "parent"], check=True)
    head = subprocess.run(git + ["rev-parse", "HEAD"], check=True, capture_output=True,
                          text=True).stdout.strip()
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: fake_run(10.0))
    out = tmp_path / "pairs.json"
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--seeds", "1-2",
                             "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(head) == 40 and doc["commits"] == {"parent": head, "change": "unknown"}
    env = doc["environment"]
    assert env["python"] == platform.python_version() and env["numpy"] == np.__version__
    assert env["threads"] == {"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": None,
                              "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}
    assert env["cpu_count"] == os.cpu_count()


def test_out_in_a_new_directory_is_written(tmp_path, monkeypatch):
    parent, change = one_metric_checkouts(tmp_path)
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: fake_run(10.0))
    out = tmp_path / "new" / "p.json"
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--seeds", "1-2",
                             "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["w"]["pairs"]) == 2
    assert sorted(p.name for p in out.parent.iterdir()) == ["p.json"]


def test_out_under_a_regular_file_fails_before_the_first_run(tmp_path, monkeypatch):
    parent, change = one_metric_checkouts(tmp_path)
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: pytest.fail("ran a workload"))
    blocker = tmp_path / "file"
    blocker.write_text("")
    with pytest.raises(SystemExit, match=f"error: cannot create the directory of --out "
                                         f"{blocker / 'p.json'}"):
        bench_pairs.main([str(parent), str(change), "--workload", "w", "--seeds", "1",
                          "--out", str(blocker / "p.json")])
    assert blocker.read_text() == ""


def test_out_keeps_the_pairs_run_before_a_failing_run(tmp_path, monkeypatch, capsys):
    """The change's run of the third seed fails: the two finished pairs and
    the failing command with its stderr tail are written, and main exits 1."""
    parent, change = one_metric_checkouts(tmp_path)

    def run_once(checkout, workload, seed, seconds):
        if checkout == change and seed == 3:
            raise bench_pairs.RunFailed(["python3", "perfbench/run.py"], checkout, 2,
                                        "x" * 5000 + "Traceback: boom")
        return fake_run(10.0 + seed)

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--seeds", "1-4",
                             "--out", str(out)]) == 1
    assert "error: python3 perfbench/run.py in" in capsys.readouterr().err
    doc = json.loads(out.read_text())
    assert [p[0]["metrics"]["latency_ms_p50"]["value"] for p in doc["w"]["pairs"]] == [11, 12]
    assert "summary" not in doc["w"]
    failure = doc["failure"]
    assert failure["command"] == ["python3", "perfbench/run.py"]
    assert failure["checkout"] == str(change) and failure["returncode"] == 2
    assert len(failure["stderr_tail"]) == 2000 and failure["stderr_tail"].endswith("boom")


def test_run_once_raises_with_the_stderr_tail(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\nsys.stderr.write('y' * 3000 + 'boom')\nsys.exit(3)\n")
    with pytest.raises(bench_pairs.RunFailed, match="exited 3") as failed:
        bench_pairs.run_once(tmp_path, "w", 1, 1.0)
    record = failed.value.record
    assert record["returncode"] == 3 and record["stderr_tail"] == "y" * 1996 + "boom"
    assert record["command"][1:3] == ["perfbench/run.py", "--workload"]


@pytest.mark.parametrize("stdout", ["warming up\nTraceback: cut short\n", "", "[1, 2]\n",
                                    '{"metrics": {}}\n{"metr'],
                         ids=["log-line", "no-output", "json-list", "cut-json"])
def test_run_once_raises_when_the_last_line_is_no_result(tmp_path, monkeypatch, stdout):
    """A run that exits 0 but whose last line is no result raises RunFailed
    with that line, so `main` keeps the pairs run before it."""
    def run(cmd, cwd, capture_output, text):
        return bench_pairs.subprocess.CompletedProcess(cmd, 0, stdout, "last words")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    with pytest.raises(bench_pairs.RunFailed, match="exited 0 but printed no result") as failed:
        bench_pairs.run_once(tmp_path, "w", 1, 1.0)
    lines = stdout.strip().splitlines()
    record = failed.value.record
    assert record["last_line"] == (lines[-1] if lines else "")
    assert record["returncode"] == 0 and record["stderr_tail"] == "last words"


def test_run_once_returns_the_last_line_as_the_result(tmp_path, monkeypatch):
    result = fake_run(12.0)

    def run(cmd, cwd, capture_output, text):
        return bench_pairs.subprocess.CompletedProcess(cmd, 0, "log\n" + json.dumps(result), "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    assert bench_pairs.run_once(tmp_path, "w", 1, 1.0) == result


def benchmark_checkout(root):
    (root / "perfbench" / "sub").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text('{"end_to_end": []}')
    (root / "perfbench" / "run.py").write_text("print(1)\n")
    (root / "perfbench" / "sub" / "w.py").write_text("W = 1\n")
    return root


@pytest.mark.parametrize("edit, named", [
    (lambda root: None, None),
    # Compiled caches differ between any two checkouts that have run.
    (lambda root: (root / "perfbench" / "__pycache__").mkdir()
     or (root / "perfbench" / "__pycache__" / "run.pyc").write_bytes(b"x"), None),
    # Edits outside the benchmark do not count.
    (lambda root: (root / "src.py").write_text("x = 2\n"), None),
    (lambda root: (root / "perfbench" / "sub" / "w.py").write_text("W = 2\n"),
     "perfbench/sub/w.py"),
    (lambda root: (root / "perfbench" / "new.py").write_text(""), "perfbench/new.py"),
    (lambda root: (root / "perfbench" / "run.py").unlink(), "perfbench/run.py"),
    # BENCHMARK.json sorts first and is named before any perfbench/ file.
    (lambda root: (root / "BENCHMARK.json").write_text("{}")
     or (root / "perfbench" / "run.py").write_text(""), "BENCHMARK.json"),
], ids=["same", "pycache", "outside", "edited", "added", "removed", "spec-first"])
def test_first_difference_names_the_first_differing_benchmark_file(tmp_path, edit, named):
    parent = benchmark_checkout(tmp_path / "parent")
    change = benchmark_checkout(tmp_path / "change")
    edit(change)
    assert bench_pairs.first_difference(parent, change) == named


def test_main_refuses_checkouts_with_other_benchmark_code(tmp_path, monkeypatch):
    parent = benchmark_checkout(tmp_path / "parent")
    change = benchmark_checkout(tmp_path / "change")
    (change / "perfbench" / "run.py").write_text("print(2)\n")
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: pytest.fail("ran a workload"))
    with pytest.raises(SystemExit, match="perfbench/run.py differs between"):
        bench_pairs.main([str(parent), str(change), "--workload", "w", "--seeds", "1"])


def test_seeds_are_single_seeds_and_closed_ranges():
    assert bench_pairs.parse_seeds("7201-7203,7300") == [7201, 7202, 7203, 7300]
    assert bench_pairs.parse_seeds("5-5") == [5]


@pytest.mark.parametrize("seeds", ["", "9-1", "7201-", "1.5"],
                         ids=["empty", "reversed", "open", "not-an-integer"])
def test_seeds_that_name_no_range_are_a_usage_error(tmp_path, monkeypatch, capsys, seeds):
    """`9-1` ran no pair and then failed in `report`; `7201-` meant [7201]."""
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: pytest.fail("ran a workload"))
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([str(tmp_path), str(tmp_path), "--workload", "w", "--seeds", seeds])
    assert exc.value.code == 2
    assert "--seeds" in capsys.readouterr().err
