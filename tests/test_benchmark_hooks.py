"""The benchmark's per-layer tracing wraps functions of `occpoint` by module
and attribute name; a rename would break `perfbench/run.py --trace 1` only
when the benchmark runs. This checks every hook resolves, reading the
tracing table by path without changing anything."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from occpoint import container

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_hook_is_a_callable_of_occpoint():
    tracing = load_tracing()
    hooks = [(module, path) for module, path, *_ in tracing.SPANS + tracing.COUNTERS]
    assert len(hooks) == len(tracing.SPANS) + len(tracing.COUNTERS) > 0
    missing = []
    for module, path in hooks:
        owner = importlib.import_module(f"occpoint.{module}")
        for name in path.split("."):
            owner = getattr(owner, name, None)
        if not callable(owner):
            missing.append(f"occpoint.{module}.{path}")
    assert not missing, missing


def test_bytes_written_counter_reads_the_file_size(tmp_path):
    """perfbench's `container.bytes_written` adds len() of what
    `write_container` returns, as the size of the file written."""
    entries = {"x": np.arange(6, dtype=np.float32), "y": np.ones((2, 3))}
    blob = container.write_container(entries, {"k": 1})
    assert type(blob) is bytes
    path = tmp_path / "c.occt"
    container.write_container_file(path, entries, {"k": 1})
    assert len(blob) == path.stat().st_size
