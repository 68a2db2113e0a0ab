"""The benchmark's per-layer tracing wraps functions of `occpoint` by module
and attribute name; a rename would break `perfbench/run.py --trace 1` only
when the benchmark runs. This checks every hook resolves, reading the
tracing table by path without changing anything."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from occpoint import autodiff as ad
from occpoint import container, dataset
from occpoint.cameras import camera_ring
from occpoint.encoder import toy_config
from occpoint.meshio import normalize_mesh
from occpoint.synthetic import make_class_mesh
from occpoint.training import (
    TrainConfig,
    build_cache,
    init_model,
    load_checkpoint,
    make_batches,
    save_checkpoint,
    train_step,
)

from composed import mul, tensor_sum

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def test_every_counter_reads_a_real_result():
    """Each of perfbench's counters, installed as `--trace 1` installs it,
    counts a real call: a change to a counted function's return type fails
    here, not only when the benchmark traces."""
    tracing = load_tracing()
    mesh = normalize_mesh(make_class_mesh("cube", 0, 1))
    entries = {"x": np.arange(6, dtype=np.float32), "y": np.ones((2, 3))}
    x = ad.Tensor(np.ones((2, 3)), requires_grad=True)
    loss = tensor_sum(mul(x, x))  # x, the product and the sum
    with tracing.traced(tracing.Tracer()) as tracer:
        depth, _ = dataset.rasterize(mesh, camera_ring((24, 24))[0])
        blob = container.write_container(entries, {"k": 1})
        loss.backward()
    assert dict(tracer.counters) == {
        "render.covered_pixels": int(depth.covered.sum()),
        "container.bytes_written": len(blob),
        "autodiff.graph_nodes": 3,
    }
    assert {name for _, _, name, _ in tracing.COUNTERS} == set(tracer.counters)
    assert tracer.counters["render.covered_pixels"] > 0


def test_toy_train_step_graph_has_at_most_112_nodes():
    """Ratchet on the autodiff graph of one train step at the toy preset
    (two blocks), counted as perfbench's `autodiff.graph_nodes` counts it:
    79 parameters and 33 interior nodes, one per op."""
    tracing = load_tracing()
    meshes = [(f"{cls}_0", cls, make_class_mesh(cls, 0, 5)) for cls in ("cube", "sphere", "cone")]
    data = dataset.generate_triplets(meshes, feature_dim=16, resolution=48, n_points=256, seed=5)
    config = toy_config(embed_dim=16)
    model = init_model(config, TrainConfig(batch_size=3, epochs=1, warmup_epochs=0))
    tokens = build_cache(data.split_views(2)[0], config)
    rows = make_batches(tokens, 3, 0, 0)[0]
    with tracing.traced(tracing.Tracer()) as tracer:
        train_step(tokens[rows], model, 0, 1, 1)
    assert tracer.calls["autodiff.backward"] == 1
    assert tracer.counters["autodiff.graph_nodes"] <= 112


def test_round_trip_check_compares_every_store_by_parameter_name(tmp_path, monkeypatch):
    """perfbench's `pretrain.checkpoint_round_trip` reads the parameters, the
    EMA shadow and both AdamW moments of a model and its reloaded checkpoint
    name by name, with `workloads.same_model`: it holds after a save and load,
    and fails once one element of the second moment differs."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports its siblings
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    model = init_model(toy_config(embed_dim=16), TrainConfig(batch_size=3, epochs=1,
                                                             warmup_epochs=0))
    rng = np.random.default_rng(3)
    for store in (model.ema.shadow, model.opt.m, model.opt.v):
        store.flat[...] = rng.random(store.flat.size)
    model.step = model.opt.step = model.ema.updates = 3
    save_checkpoint(tmp_path / "m.occt", model)
    reloaded = load_checkpoint(tmp_path / "m.occt")
    assert workloads.same_model(model, reloaded)
    reloaded.opt.v.flat[7] += 1.0
    assert not workloads.same_model(model, reloaded)
