"""Per-layer tracing from outside the program.

A traced round replaces named public functions of `occpoint` with timing
wrappers at the module attribute (or class attribute) their callers look them
up through, and restores the originals afterwards. Each wrapper is a span:
its self time is its duration minus the time of the wrapped spans it
encloses. Counters are wrappers of their own.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import numpy as np

# (module, attribute or class.method, span name). A function that more than
# one module imports by name is wrapped in each of them.
SPANS = [
    ("cli", "load_obj", "meshio.load_obj"),
    ("dataset", "rasterize", "render.rasterize"),
    ("dataset", "backproject", "render.backproject"),
    ("dataset", "sample_points", "render.sample_points"),
    ("dataset", "visible_fraction", "dataset.visible_fraction"),
    ("dataset", "write_container_file", "container.write"),
    ("training", "write_container_file", "container.write"),
    ("dataset", "read_container_file", "container.read"),
    ("training", "read_container_file", "container.read"),
    ("training", "farthest_point_sampling", "tokenizer.fps"),
    ("training", "knn_group", "tokenizer.knn"),
    ("training", "sort_by_curve", "curves.sort"),
    ("training", "build_cache", "training.build_cache"),
    ("cli", "build_cache", "training.build_cache"),
    ("training", "init_model", "training.init_model"),
    ("training", "make_batches", "training.make_batches"),
    ("training", "train_step", "training.step"),
    ("training", "encode_batch", "training.forward"),
    ("training", "mini_pointnet_embed", "tokenizer.pointnet"),
    ("encoder", "block_forward", "encoder.block"),
    ("encoder", "selective_scan", "ssm.scan"),
    ("training", "build_embedding_batch", "contrastive.loss"),
    ("training", "total_loss", "contrastive.loss"),
    ("training", "adamw_step", "training.adamw"),
    ("training", "save_checkpoint", "training.save_checkpoint"),
    ("training", "load_checkpoint", "training.load_checkpoint"),
    ("cli", "load_checkpoint", "training.load_checkpoint"),
    ("training", "embed_clouds", "training.embed_clouds"),
    ("cli", "embed_clouds", "training.embed_clouds"),
    ("training", "zero_shot_classify", "training.zero_shot"),
    ("cli", "zero_shot_classify", "training.zero_shot"),
    ("cli", "linear_probe", "training.linear_probe"),
    ("autodiff", "Tensor.backward", "autodiff.backward"),
    ("training", "EmaState.update", "training.ema"),
]

# Per-layer metrics: (name, unit, span or counter it reads). Times are self
# milliseconds per traced round; counts are totals per traced round, except
# graph nodes, which are per backward pass.
LAYER_METRICS = [
    ("render.rasterize_ms", "ms", "render.rasterize"),
    ("render.backproject_ms", "ms", "render.backproject"),
    ("render.sample_points_ms", "ms", "render.sample_points"),
    ("render.covered_pixels", "count", "render.covered_pixels"),
    ("dataset.visible_fraction_ms", "ms", "dataset.visible_fraction"),
    ("meshio.load_obj_ms", "ms", "meshio.load_obj"),
    ("container.write_ms", "ms", "container.write"),
    ("container.bytes_written", "bytes", "container.bytes_written"),
    ("container.read_ms", "ms", "container.read"),
    ("tokenizer.fps_ms", "ms", "tokenizer.fps"),
    ("tokenizer.knn_ms", "ms", "tokenizer.knn"),
    ("curves.sort_ms", "ms", "curves.sort"),
    ("training.build_cache_ms", "ms", "training.build_cache"),
    ("training.init_model_ms", "ms", "training.init_model"),
    ("training.step_ms", "ms", "training.step"),
    ("training.forward_ms", "ms", "training.forward"),
    ("tokenizer.pointnet_ms", "ms", "tokenizer.pointnet"),
    ("encoder.block_ms", "ms", "encoder.block"),
    ("ssm.scan_ms", "ms", "ssm.scan"),
    ("contrastive.loss_ms", "ms", "contrastive.loss"),
    ("autodiff.backward_ms", "ms", "autodiff.backward"),
    ("autodiff.graph_nodes", "count", "autodiff.graph_nodes"),
    ("training.adamw_ms", "ms", "training.adamw"),
    ("training.ema_ms", "ms", "training.ema"),
    ("training.make_batches_ms", "ms", "training.make_batches"),
    ("training.save_checkpoint_ms", "ms", "training.save_checkpoint"),
    ("training.load_checkpoint_ms", "ms", "training.load_checkpoint"),
    ("training.embed_clouds_ms", "ms", "training.embed_clouds"),
    ("training.zero_shot_ms", "ms", "training.zero_shot"),
    ("training.linear_probe_ms", "ms", "training.linear_probe"),
]
OVERHEAD_METRIC = ("trace.overhead_pct", "%")


def graph_size(loss) -> int:
    """Nodes reachable from `loss` through recorded parents (what backward walks)."""
    seen = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)


class Tracer:
    """Self time and call counts per span name, plus named counters."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(int)
        self._child_s = []  # one accumulator per open span

    def span(self, name, fn):
        def traced(*args, **kwargs):
            self._child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self.self_s[name] += elapsed - self._child_s.pop()
                self.calls[name] += 1
                if self._child_s:
                    self._child_s[-1] += elapsed

        return traced

    def counter(self, name, fn, count):
        """Wrap fn so that count(args, result) is added to counter `name`,
        without charging the counting to any open span."""
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            t0 = time.perf_counter()
            self.counters[name] += count(args, result)
            if self._child_s:
                self._child_s[-1] += time.perf_counter() - t0
            return result

        return counted


# (module, attribute or class.method, counter, count(args, result))
COUNTERS = [
    ("dataset", "rasterize", "render.covered_pixels",
     lambda args, result: int(np.isfinite(result[0].values).sum())),
    ("container", "write_container", "container.bytes_written",
     lambda args, result: len(result)),
    ("autodiff", "Tensor.backward", "autodiff.graph_nodes",
     lambda args, result: graph_size(args[0])),
]


class traced:
    """Context manager: install the wrappers of `tracer` into occpoint, restore on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved = []

    def _wrap(self, module, path, make):
        owner = importlib.import_module(f"occpoint.{module}")
        *outer, attr = path.split(".")
        for name in outer:
            owner = getattr(owner, name)
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def __enter__(self):
        t = self.tracer
        for module, path, name in SPANS:
            self._wrap(module, path, lambda fn: t.span(name, fn))
        # Counters go on last, outside the spans, so counting is never timed.
        for module, path, name, count in COUNTERS:
            self._wrap(module, path, lambda fn: t.counter(name, fn, count))
        return t

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False


def layer_metrics(tracer: Tracer, rounds: int, overhead_pct: float) -> dict:
    """Per-layer metric values from a tracer that saw `rounds` traced rounds."""
    out = {}
    for metric, unit, source in LAYER_METRICS:
        if metric == "autodiff.graph_nodes":
            passes = tracer.calls["autodiff.backward"]
            value = tracer.counters[source] / passes if passes else 0.0
        elif unit == "ms":
            value = tracer.self_s[source] * 1e3 / rounds
        else:
            value = tracer.counters[source] / rounds
        out[metric] = {"value": value, "unit": unit}
    name, unit = OVERHEAD_METRIC
    out[name] = {"value": overhead_pct, "unit": unit}
    return out
