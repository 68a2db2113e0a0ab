"""The benchmark's per-layer tracing wraps functions of `occpoint` by module
and attribute name; a rename would break `perfbench/run.py --trace 1` only
when the benchmark runs. This checks every hook resolves, reading the
tracing table by path without changing anything."""

import importlib
import importlib.util
from pathlib import Path

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
