import itertools
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from occpoint.autodiff import Tensor
from occpoint.curves import CurveKind
from occpoint.container import read_container_file, write_container_file
from occpoint.dataset import generate_triplets, load_dataset, save_dataset
from occpoint.encoder import desk_config, toy_config
from occpoint.errors import ConfigError, InvalidInput
from occpoint import training
from occpoint.contrastive import TAU_MAX, TAU_MIN, init_alignment_heads
from occpoint.synthetic import make_class_mesh
from occpoint.tokenizer import COLOR_CONSTANT
from occpoint.training import (
    AdamWState,
    EmaState,
    TrainConfig,
    adamw_step,
    build_cache,
    curve_orders,
    init_model,
    load_or_build_cache,
    linear_probe,
    load_checkpoint,
    lr_at,
    make_batches,
    run_pretraining,
    save_checkpoint,
    split_tokens,
    token_cache_path,
    top_k_accuracy,
    train_step,
    use_ema_weights,
    zero_shot_classify,
)

from gradcheck import grad_check
from reference import (
    adamw_step_reference,
    ema_update_reference,
    init_store_reference,
    lay_out,
)


def tiny_dataset(n_classes=3, feature_dim=16, seed=5):
    meshes = []
    from occpoint.synthetic import CLASS_NAMES

    for cls in CLASS_NAMES[:n_classes]:
        for variant in range(2):
            meshes.append((f"{cls}_{variant}", cls, make_class_mesh(cls, variant, seed)))
    return generate_triplets(meshes, feature_dim=feature_dim, resolution=48,
                             n_points=256, seed=seed)


def tiny_setup(seed=0):
    cfg = toy_config(s_tokens=8, k_neighbors=6, c_dim=16, n_state=4, l_blocks=1,
                     embed_dim=16)
    tc = TrainConfig(batch_size=4, epochs=2, warmup_epochs=1, seed=seed)
    return cfg, tc


# --- schedule -----------------------------------------------------------------


def test_lr_zero_at_step_zero():
    tc = TrainConfig(epochs=20, warmup_epochs=10)
    assert lr_at(0, 200, tc, 10) == 0.0


def test_lr_reaches_base_at_end_of_warmup():
    tc = TrainConfig(epochs=20, warmup_epochs=10, base_lr=7e-4)
    assert abs(lr_at(100, 200, tc, 10) - 7e-4) < 1e-18


def test_lr_zero_at_final_step():
    tc = TrainConfig(epochs=20, warmup_epochs=10)
    assert abs(lr_at(200, 200, tc, 10)) <= 1e-12


def test_lr_monotone_through_warmup_then_decays():
    tc = TrainConfig(epochs=10, warmup_epochs=2, base_lr=1e-3)
    values = [lr_at(s, 100, tc, 10) for s in range(101)]
    assert all(a <= b + 1e-15 for a, b in zip(values[:20], values[1:21]))
    assert all(a >= b - 1e-15 for a, b in zip(values[20:-1], values[21:]))


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=5, warmup_epochs=10)
    for bad in (dict(batch_size=8.5), dict(epochs=3.0), dict(seed=True), dict(seed="1")):
        with pytest.raises(ConfigError, match=f"{next(iter(bad))} must be an integer"):
            TrainConfig(**bad)
    TrainConfig(seed=np.int64(3))


@pytest.mark.parametrize("bad", [dict(batch_size=1), dict(batch_size=0),
                                 dict(holdout_views=0), dict(holdout_views=12)])
def test_config_rejects_degenerate_batches_and_splits(bad):
    with pytest.raises(ConfigError):
        TrainConfig(**bad)
    # The edges of the accepted ranges.
    TrainConfig(batch_size=2, holdout_views=1)
    TrainConfig(holdout_views=11)


@pytest.mark.parametrize("bad", [dict(epochs=-1), dict(warmup_epochs=-1), dict(base_lr=-0.01)],
                         ids=lambda bad: "{}={}".format(*next(iter(bad.items()))))
def test_config_rejects_settings_that_degrade_a_run(bad):
    with pytest.raises(ConfigError, match=next(iter(bad))):
        TrainConfig(**bad)
    # The edges of the accepted ranges.
    TrainConfig(epochs=0, warmup_epochs=0, base_lr=0.0)


# --- optimizer ------------------------------------------------------------------


def test_adamw_decoupled_decay_with_zero_gradients():
    params = {"w": Tensor(np.full(4, 2.0), requires_grad=True)}
    params["w"].grad = np.zeros(4)
    state = AdamWState(lay_out(params))
    adamw_step(params, state, lr=0.5)
    assert np.allclose(params["w"].data, 2.0 * (1.0 - 0.5 * 0.05), atol=1e-16)


def test_adamw_bias_correction_first_step():
    params = {"w": Tensor(np.array([1.0]), requires_grad=True)}
    params["w"].grad = np.array([0.3])
    state = AdamWState(lay_out(params))
    adamw_step(params, state, lr=0.01)
    # First step with bias correction: update = g / (|g| + eps) ~ sign(g), plus
    # the decoupled decay lr * 0.05 * w.
    assert abs(params["w"].data[0] - (1.0 - 0.01 * (0.3 / (0.3 + 1e-8)) - 0.01 * 0.05)) < 1e-12


def test_ema_geometric_convergence_constant_params():
    params = {"w": Tensor(np.array([3.0]), requires_grad=True)}
    ema = EmaState(lay_out(params), decay=0.9)
    gaps = []
    for _ in range(30):
        ema.update(params)
        gaps.append(abs(ema.shadow["w"][0] - 3.0))
    ratios = [b / a for a, b in zip(gaps, gaps[1:])]
    assert np.allclose(ratios, 0.9, atol=1e-9)
    with use_ema_weights(params, ema):
        assert abs(params["w"].data[0] - 3.0) < 1e-12


def test_ema_debiased_equals_params_when_constant():
    params = {"w": Tensor(np.array([1.5, -2.0]), requires_grad=True)}
    ema = EmaState(lay_out(params), decay=0.9995)
    for _ in range(3):
        ema.update(params)
    debiased = ema.shadow["w"] / (1.0 - ema.decay ** ema.updates)
    assert np.allclose(debiased, params["w"].data, atol=1e-12)


def test_use_ema_weights_swaps_and_restores():
    params = {"w": Tensor(np.array([1.0]), requires_grad=True)}
    ema = EmaState(lay_out(params), decay=0.5)
    ema.update(params)
    params["w"].data[...] = 5.0
    with use_ema_weights(params, ema):
        inside = params["w"].data.copy()
    assert np.allclose(inside, 1.0)  # debiased average of the history so far
    assert params["w"].data[0] == 5.0


def test_flat_store_matches_the_per_tensor_oracle_bitwise():
    cfg, _ = tiny_setup()
    tc = TrainConfig(batch_size=4, epochs=2, warmup_epochs=1, seed=3)
    model = init_model(cfg, tc)
    model.ema = EmaState(model.opt.weights, decay=0.9)
    params = model.params()
    names = list(params)
    ref = {k: Tensor(t.data.copy(), requires_grad=True) for k, t in params.items()}
    m = {k: np.zeros_like(t.data) for k, t in ref.items()}
    v = {k: np.zeros_like(t.data) for k, t in ref.items()}
    shadow = {k: np.zeros_like(t.data) for k, t in ref.items()}
    rng = np.random.default_rng(8)
    for step in range(6):
        skipped = names[(7 * step) % len(names)]   # a tensor without a gradient
        for k in names:
            g = None if k == skipped else rng.normal(size=params[k].shape)
            params[k].grad = ref[k].grad = g
        lr = lr_at(step + 3, 10, tc, 2)
        adamw_step(params, model.opt, lr)
        model.ema.update(params)
        adamw_step_reference(ref, m, v, step + 1, lr)
        ema_update_reference(shadow, ref, 0.9)
        for k in names:
            assert params[k].data is model.opt.weights[k]
            assert np.array_equal(params[k].data, ref[k].data), k
            assert np.array_equal(model.opt.m[k], m[k]) and np.array_equal(model.opt.v[k], v[k])
            assert np.array_equal(model.ema.shadow[k], shadow[k]), k
    debias = 1.0 - 0.9 ** 6
    with use_ema_weights(params, model.ema):
        for k in names:
            assert np.array_equal(params[k].data, shadow[k] / debias), k
            assert np.array_equal(model.ema.shadow[k] / debias, shadow[k] / debias), k
    for k in names:
        assert np.array_equal(params[k].data, ref[k].data)


@pytest.mark.parametrize("config", [
    toy_config(), desk_config(), toy_config(conv_mode="none"), toy_config(conv_mode="causal"),
    toy_config(expand=1), toy_config(l_blocks=0),
], ids=["toy", "desk", "conv-none", "conv-causal", "expand-1", "no-blocks"])
def test_init_store_is_the_draw_then_copy_stores_bitwise(config):
    """init_model fills the store one piece at a time as it draws; the store
    and its [[name, shape], ...] layout are those of drawing the whole model
    first and then copying it in."""
    tc = TrainConfig(seed=7)
    weights = init_model(config, tc).opt.weights
    ref = init_store_reference(config, tc)
    assert weights.flat.shape == (training.store_size(config),)
    assert weights.flat.tobytes() == ref.flat.tobytes()
    assert [[k, v.shape] for k, v in weights.items()] == [[k, v.shape] for k, v in ref.items()]


def test_rebound_parameter_is_refused_by_the_store():
    cfg, tc = tiny_setup()
    model = init_model(cfg, tc)
    params = model.params()
    for t in params.values():
        t.grad = np.ones_like(t.data)
    name = "heads.text.bias"
    params[name].data = params[name].data.copy()
    for act in (lambda: adamw_step(params, model.opt, 1e-3),
                lambda: model.ema.update(params),
                lambda: use_ema_weights(params, model.ema).__enter__()):
        with pytest.raises(ConfigError, match=name):
            act()
    assert model.opt.step == 0 and model.ema.updates == 0


# --- gradients (the acceptance registry) ------------------------------------------


@pytest.mark.parametrize("op", ["affine", "mini_pointnet", "pointnet_pool", "conv1d",
                                "selective_scan", "stream_branches", "block", "heads",
                                "tau", "total_loss"])
def test_grad_check_registry(op):
    assert grad_check(op, seed=3) <= 1e-4


def test_grad_check_unknown_op():
    with pytest.raises(InvalidInput):
        grad_check("attention")


# --- train step / loop ---------------------------------------------------------


def test_zero_lr_keeps_parameters_bitwise():
    dataset = tiny_dataset()
    cfg, tc = tiny_setup()
    tc = TrainConfig(batch_size=4, epochs=1, warmup_epochs=0, base_lr=0.0, seed=0)
    model = init_model(cfg, tc)
    before = {k: t.data.copy() for k, t in model.params().items()}
    tokens = build_cache(dataset.split_views(2)[0], cfg)
    batches = make_batches(tokens, 4, 0, 0)
    train_step(tokens[batches[0]], model, 0, len(batches), len(batches))
    after = model.params()
    for k in before:
        assert np.array_equal(before[k], after[k].data)
    # EMA shadow moved toward the (unchanged) params
    assert model.ema.updates == 1
    with use_ema_weights(after, model.ema):
        for k in before:
            assert np.allclose(after[k].data, before[k], atol=1e-12)


def test_identical_seed_identical_trajectory():
    dataset = tiny_dataset()
    cfg, tc = tiny_setup(seed=9)
    _, m1 = run_pretraining(dataset, cfg, tc)
    _, m2 = run_pretraining(dataset, cfg, tc)
    assert [m["loss"] for m in m1] == [m["loss"] for m in m2]


def test_bitwise_identical_checkpoints(tmp_path):
    dataset = tiny_dataset()
    cfg, tc = tiny_setup(seed=4)
    model1, _ = run_pretraining(dataset, cfg, tc)
    model2, _ = run_pretraining(dataset, cfg, tc)
    p1, p2 = tmp_path / "a.occt", tmp_path / "b.occt"
    save_checkpoint(p1, model1)
    save_checkpoint(p2, model2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_round_trip_and_resume(tmp_path):
    dataset = tiny_dataset()
    cfg, _ = tiny_setup()
    tc_full = TrainConfig(batch_size=4, epochs=2, warmup_epochs=1, seed=11)
    full_model, full_metrics = run_pretraining(dataset, cfg, tc_full)

    tc_half = TrainConfig(batch_size=4, epochs=1, warmup_epochs=1, seed=11)
    half_model, _ = run_pretraining(dataset, cfg, tc_half)
    path = tmp_path / "half.occt"
    save_checkpoint(path, half_model)
    resumed = load_checkpoint(path)
    assert resumed.step == half_model.step
    for k, t in half_model.params().items():
        assert np.array_equal(resumed.params()[k].data, t.data)
        assert resumed.params()[k].data is resumed.opt.weights[k]
        for slot in ("m", "v"):
            assert np.array_equal(getattr(resumed.opt, slot)[k], getattr(half_model.opt, slot)[k])
        assert np.array_equal(resumed.ema.shadow[k], half_model.ema.shadow[k])

    # One more step on the loaded store moves every parameter as it moves
    # the original's.
    for model in (half_model, resumed):
        params = model.params()
        for k, t in params.items():
            t.grad = np.full(t.shape, 0.5)
        adamw_step(params, model.opt, 1e-2)
        model.ema.update(params)
    for k, t in half_model.params().items():
        assert np.array_equal(resumed.params()[k].data, t.data)
        assert np.array_equal(resumed.ema.shadow[k], half_model.ema.shadow[k])
    resumed = load_checkpoint(path)

    # Training epoch 2 must continue the step counter (schedule total differs,
    # so exact loss equality with the full run is not expected).
    resumed.train_config = tc_full
    _, more = run_pretraining(dataset, cfg, tc_full, model=resumed)
    assert more[0]["step"] == half_model.step
    assert len(more) == len(full_metrics) - half_model.step


def test_checkpoint_header_holds_the_configs_and_one_step_count(tmp_path):
    dataset = tiny_dataset()
    cfg, tc = tiny_setup(seed=11)
    model, metrics = run_pretraining(dataset, cfg, tc)
    path = tmp_path / "m.occt"
    save_checkpoint(path, model)
    entries, meta = read_container_file(path)
    assert sorted(meta) == ["encoder_config", "layout_sha256", "step", "train_config"]
    assert meta["step"] == len(metrics) > 0 and meta["train_config"] == tc.to_dict()
    assert len(meta["layout_sha256"]) == 64
    p = model.opt.weights.flat.size
    assert list(entries) == ["param", "ema", "opt/m", "opt/v"]
    assert all(e.dtype == np.float64 and e.shape == (p,) for e in entries.values())
    loaded = load_checkpoint(path)
    assert loaded.step == loaded.opt.step == loaded.ema.updates == meta["step"]


def buffer_of(array: np.ndarray):
    """The object at the root of an array's chain of views."""
    while True:
        if isinstance(array, np.ndarray) and array.base is not None:
            array = array.base
        elif isinstance(array, memoryview):
            array = array.obj
        else:
            return array


def test_load_lays_the_model_over_the_files_buffer(tmp_path):
    """A load builds the model over the buffer it reads the file into: its
    traced peak is the file plus one block's draw, its four stores are
    writable views of that buffer, and a second load shares nothing with it."""
    model = init_model(desk_config(l_blocks=4), TrainConfig(seed=2))
    rng = np.random.default_rng(4)
    for store in (model.ema.shadow, model.opt.m, model.opt.v):
        store.flat[...] = rng.random(store.flat.size)
    model.step = model.opt.step = model.ema.updates = 5
    path = tmp_path / "m.occt"
    save_checkpoint(path, model)
    del model
    tracemalloc.start()
    try:
        loaded = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * path.stat().st_size
    stores = [loaded.opt.weights, loaded.ema.shadow, loaded.opt.m, loaded.opt.v]
    buffer = buffer_of(stores[0].flat)
    assert isinstance(buffer, bytearray)
    for store in stores:
        assert store.flat.flags.writeable and buffer_of(store.flat) is buffer
    for a, b in itertools.combinations(stores, 2):
        assert not np.shares_memory(a.flat, b.flat)
    for k, t in loaded.params().items():
        assert t.data is loaded.opt.weights[k] and buffer_of(t.data) is buffer
    again = load_checkpoint(path)
    assert buffer_of(again.opt.weights.flat) is not buffer
    for a, b in itertools.product(stores, [again.opt.weights, again.ema.shadow,
                                           again.opt.m, again.opt.v]):
        assert not np.shares_memory(a.flat, b.flat)
    again.opt.v.flat[0] += 1.0
    assert again.opt.v.flat[0] != loaded.opt.v.flat[0]


@pytest.mark.parametrize("extra", [0, 2], ids=["on-epoch-boundary", "mid-epoch"])
def test_resume_after_k_steps_gives_the_uninterrupted_checkpoint(tmp_path, extra):
    dataset = tiny_dataset()
    cfg, _ = tiny_setup()
    tc = TrainConfig(batch_size=4, epochs=3, warmup_epochs=1, seed=13)
    whole, _ = run_pretraining(dataset, cfg, tc)
    save_checkpoint(tmp_path / "whole.occt", whole)

    tokens = build_cache(dataset.split_views(tc.holdout_views)[0], cfg)
    per_epoch = len(make_batches(tokens, tc.batch_size, 0, tc.seed))
    k = per_epoch + extra
    assert extra < per_epoch
    model = init_model(cfg, tc)
    for step in range(k):
        epoch = step // per_epoch
        rows = make_batches(tokens, tc.batch_size, epoch, tc.seed)[step % per_epoch]
        train_step(tokens[rows], model, step, per_epoch, per_epoch * tc.epochs)
    save_checkpoint(tmp_path / "part.occt", model)
    resumed, rows = run_pretraining(dataset, cfg, tc, model=load_checkpoint(tmp_path / "part.occt"))
    assert [row["step"] for row in rows] == list(range(k, per_epoch * tc.epochs))
    save_checkpoint(tmp_path / "resumed.occt", resumed)
    assert (tmp_path / "resumed.occt").read_bytes() == (tmp_path / "whole.occt").read_bytes()


@pytest.mark.parametrize("log_tau", [np.log(TAU_MAX) + 1.0, np.log(TAU_MIN) - 1.0,
                                     np.log(0.05)], ids=["above", "below", "inside"])
def test_logged_tau_is_the_one_the_loss_used(log_tau):
    dataset = tiny_dataset()
    cfg, tc = tiny_setup()
    model = init_model(cfg, replace(tc, base_lr=0.5, warmup_epochs=0))
    model.heads.temperature.log_tau.data[...] = log_tau
    tokens = build_cache(dataset.split_views(2)[0], cfg)
    batches = make_batches(tokens, 4, 0, 0)
    row = train_step(tokens[batches[0]], model, 0, len(batches), 10 * len(batches))
    assert row["tau"] == float(np.clip(np.exp(log_tau), TAU_MIN, TAU_MAX))
    assert model.heads.temperature.log_tau.data != log_tau  # the step moved it


def test_resume_refuses_fewer_epochs_than_the_checkpoint_ran():
    dataset = tiny_dataset()
    cfg, tc = tiny_setup(seed=11)
    model, _ = run_pretraining(dataset, cfg, tc)
    steps = model.step
    with pytest.raises(ConfigError, match=f"cannot resume at step {steps} with epochs=1"):
        run_pretraining(dataset, cfg, replace(tc, epochs=1), model=model)
    assert model.step == steps and model.train_config == tc
    # As many epochs as the checkpoint ran is a run with no step left.
    _, rows = run_pretraining(dataset, cfg, tc, model=model)
    assert rows == [] and model.step == steps


def test_resume_refuses_other_configs_and_takes_the_new_epochs():
    dataset = tiny_dataset()
    cfg, tc = tiny_setup(seed=11)
    model, _ = run_pretraining(dataset, cfg, replace(tc, epochs=1))
    for bad_cfg, bad_tc, field in (
            (replace(cfg, curve_a=CurveKind.MORTON), tc, "curve_a"),
            (replace(cfg, c_dim=8), tc, "c_dim"),
            (cfg, replace(tc, seed=9), "seed"),
            (cfg, replace(tc, base_lr=1e-3), "base_lr")):
        with pytest.raises(ConfigError, match=f"{field}="):
            run_pretraining(dataset, bad_cfg, bad_tc, model=model)
    steps = model.step
    assert model.train_config.epochs == 1 and steps > 0
    _, more = run_pretraining(dataset, cfg, tc, model=model)
    assert model.train_config == tc
    assert [row["step"] for row in more] == list(range(steps, 2 * steps))


def test_batches_use_one_view_per_object():
    dataset = tiny_dataset()
    cfg, tc = tiny_setup()
    tokens = build_cache(dataset.split_views(2)[0], cfg)
    for epoch in range(3):
        for rows in make_batches(tokens, 4, epoch, seed=1):
            objs = list(tokens.object_ids[rows])
            assert len(objs) == len(set(objs))


def test_batches_are_class_disjoint_when_they_fit():
    dataset = tiny_dataset()  # 3 classes, 2 objects each
    cfg, tc = tiny_setup()
    tokens = build_cache(dataset.split_views(2)[0], cfg)
    for epoch in range(3):
        for rows in make_batches(tokens, 3, epoch, seed=2):
            labels = list(tokens.labels[rows])
            assert len(labels) == len(set(labels))


def test_batches_cover_every_view_each_epoch():
    dataset = tiny_dataset()
    cfg, tc = tiny_setup()
    tokens = build_cache(dataset.split_views(2)[0], cfg)
    batches = make_batches(tokens, 4, epoch=0, seed=1)
    assert sorted(np.concatenate(batches)) == list(range(len(tokens)))


def fake_tokens(n_objects, n_classes, views):
    """What make_batches reads of Tokens: an object id and a label per row."""
    objects = np.repeat(np.arange(n_objects), views)
    return SimpleNamespace(object_ids=np.array([f"obj{o}" for o in objects], dtype=object),
                           labels=objects % n_classes)


@pytest.mark.parametrize("n_objects,batch_size,sizes", [
    (17, 8, [8, 9]), (9, 4, [4, 5]), (5, 4, [5]), (16, 8, [8, 8]), (6, 4, [4, 2]),
])
def test_lone_leftover_joins_the_batch_before(n_objects, batch_size, sizes):
    tokens = fake_tokens(n_objects, 8, views=10)
    for epoch in range(2):
        batches = make_batches(tokens, batch_size, epoch, seed=3)
        assert [len(b) for b in batches] == sizes * 10
        assert sorted(np.concatenate(batches)) == list(range(n_objects * 10))
        for rows in batches:
            assert len(set(tokens.object_ids[rows])) == len(rows)


def test_color_dropout_changes_inputs_not_geometry(monkeypatch):
    dataset = tiny_dataset()
    cfg, tc = tiny_setup()
    tokens = build_cache(dataset.split_views(2)[0], cfg)
    seen = []
    encode = training.encode_batch

    def spy(rel_points, colors, orders, model):
        assert rel_points is batch.rel_points and orders is batch.orders
        seen.append(colors)
        return encode(rel_points, colors, orders, model)

    monkeypatch.setattr(training, "encode_batch", spy)
    batch = tokens[:3]
    for prob in (1.0, 0.0):
        monkeypatch.setattr(training, "COLOR_DROP_PROB", prob)
        train_step(batch, init_model(cfg, tc), 0, 1, 1)
    dropped, kept = seen
    assert np.all(dropped == COLOR_CONSTANT)
    assert np.array_equal(kept, batch.patch_colors)


# --- evaluation helpers ------------------------------------------------------------


NARROW_DESK = desk_config(c_dim=32, l_blocks=2)  # desk S, k and N at a quarter of C


def random_tokens(config, clouds, seed):
    """Tokens of random patches and random curve orders, as embed_clouds reads them."""
    rng = np.random.default_rng(seed)
    s, k, d = config.s_tokens, config.k_neighbors, config.embed_dim
    orders = rng.permuted(np.tile(np.arange(s), (clouds, 2, 1)), axis=-1)
    return training.Tokens(
        centers=rng.normal(size=(clouds, s, 3)),
        rel_points=rng.normal(scale=0.1, size=(clouds, s, k, 3)),
        patch_colors=rng.uniform(size=(clouds, s, k, 3)),
        orders=orders,
        labels=np.zeros(clouds, dtype=np.int64),
        object_ids=np.array([f"o{i}" for i in range(clouds)], dtype=object),
        image_features=np.zeros((clouds, d)), text_features=np.zeros((clouds, 1, d)))


def embed_model(config):
    """A fresh model whose blocks are not identity maps."""
    model = init_model(config, TrainConfig(seed=3))
    rng = np.random.default_rng(4)
    for block in model.encoder.blocks:
        block.out_w.data[...] = rng.normal(size=block.out_w.shape) * block.out_w.shape[0] ** -0.5
    return model


def test_embed_pass_size_follows_the_byte_budget():
    assert training.embed_batch_size(toy_config()) == 8
    assert training.embed_batch_size(desk_config()) == 1
    assert training.embed_batch_size(NARROW_DESK) == 4


@pytest.mark.parametrize("config, clouds", [(toy_config(), 20), (NARROW_DESK, 10)],
                         ids=["toy", "narrow-desk"])
def test_embeddings_do_not_depend_on_the_pass_size(monkeypatch, config, clouds):
    model, tokens = embed_model(config), random_tokens(config, clouds, 5)
    default = training.embed_clouds(tokens, model)
    assert default.shape == (clouds, config.embed_dim)
    for budget in (1, 1 << 40):  # one cloud per pass, then every cloud in one
        monkeypatch.setattr(training, "EMBED_BLOCK_BYTES", budget)
        assert np.array_equal(training.embed_clouds(tokens, model), default)


def test_embed_clouds_of_no_clouds_is_empty():
    config = toy_config()
    model, tokens = embed_model(config), random_tokens(config, 3, 5)
    assert training.embed_clouds(tokens[:0], model).shape == (0, config.embed_dim)


@pytest.mark.parametrize("config, clouds, limit_mb", [(toy_config(), 32, 8),
                                                      (desk_config(), 8, 16)],
                         ids=["toy", "desk"])
def test_embed_clouds_peak_stays_cache_sized(config, clouds, limit_mb):
    """Every cloud in one pass peaks at 21.5 MB for 32 toy clouds and at
    129.5 MB for 8 desk clouds."""
    model, tokens = embed_model(config), random_tokens(config, clouds, 6)
    tracemalloc.start()
    try:
        training.embed_clouds(tokens, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mb * 2 ** 20


def test_zero_shot_single_class_trivial():
    rng = np.random.default_rng(0)
    heads = init_alignment_heads(8, rng)
    z = rng.normal(size=(5, 8))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    ranked = zero_shot_classify(z, rng.normal(size=(1, 8)), heads)
    assert top_k_accuracy(ranked, np.zeros(5, dtype=int), 1) == 1.0


def test_zero_shot_orthonormal_axes():
    rng = np.random.default_rng(1)
    heads = init_alignment_heads(6, rng)
    heads.text.weight.data = np.eye(6)
    heads.text.bias.data[:] = 0.0
    classes = np.eye(4, 6)
    z = np.eye(4, 6)
    ranked = zero_shot_classify(z, classes, heads)
    assert np.array_equal(ranked[:, 0], np.arange(4))


def test_zero_shot_empty_classes_rejected():
    rng = np.random.default_rng(2)
    heads = init_alignment_heads(4, rng)
    with pytest.raises(InvalidInput):
        zero_shot_classify(np.eye(2, 4), np.zeros((0, 4)), heads)


def test_linear_probe_separable_data():
    rng = np.random.default_rng(3)
    centers = np.eye(3, 8) * 4
    x = np.vstack([centers[i] + 0.05 * rng.normal(size=(20, 8)) for i in range(3)])
    y = np.repeat(np.arange(3), 20)
    acc = linear_probe(x, y, x, y, n_shot=16, seed=0)
    assert acc == 1.0


def test_linear_probe_chance_on_shuffled_labels():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(240, 16))
    y = rng.integers(0, 4, size=240)
    test_x = rng.normal(size=(240, 16))
    test_y = rng.integers(0, 4, size=240)
    acc = linear_probe(x, y, test_x, test_y, n_shot=16, seed=0)
    assert abs(acc - 0.25) <= 0.10


def test_linear_probe_missing_class_rejected():
    x = np.random.default_rng(5).normal(size=(10, 4))
    y = np.array([0, 0, 0, 0, 0, 2, 2, 2, 2, 2])  # class 1 absent
    with pytest.raises(InvalidInput):
        linear_probe(x, y, x, y, n_shot=2)


def test_probe_shots_monotone_trend_on_toy_features():
    # More labeled examples should help on average over seeds.
    rng = np.random.default_rng(6)
    centers = rng.normal(size=(4, 12)) * 2
    def draw(n):
        xs, ys = [], []
        for c in range(4):
            xs.append(centers[c] + rng.normal(size=(n, 12)))
            ys.append(np.full(n, c))
        return np.vstack(xs), np.concatenate(ys)
    accs1, accs16 = [], []
    for seed in range(5):
        train_x, train_y = draw(30)
        test_x, test_y = draw(30)
        accs1.append(linear_probe(train_x, train_y, test_x, test_y, 1, seed=seed))
        accs16.append(linear_probe(train_x, train_y, test_x, test_y, 16, seed=seed))
    assert np.mean(accs16) >= np.mean(accs1)


# --- token cache file -----------------------------------------------------------

def assert_tokens_equal(got, want):
    assert len(got) == len(want)
    for f in fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), f.name


@pytest.fixture(scope="module")
def saved_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("tokens") / "tiny.occt"
    save_dataset(path, tiny_dataset())
    return path


def test_token_cache_file_holds_build_cache_bitwise(saved_dataset, tmp_path):
    path = tmp_path / saved_dataset.name
    path.write_bytes(saved_dataset.read_bytes())
    dataset = load_dataset(path)
    cfg, _ = tiny_setup()
    want = build_cache(dataset, cfg)
    cold, inputs = load_or_build_cache(path, dataset, cfg)
    sidecar = token_cache_path(path, cfg)
    assert inputs["token_cache"] == {"path": str(sidecar), "hit": False} and sidecar.exists()
    warm, inputs = load_or_build_cache(path, dataset, cfg)
    assert inputs["token_cache"]["hit"]
    assert_tokens_equal(cold, want)
    assert_tokens_equal(warm, want)
    entries, meta = read_container_file(sidecar)
    r = len(dataset.records)
    assert {k: v.shape for k, v in entries.items()} == {
        "centers": (r, 8, 3), "rel_points": (r, 8, 6, 3), "patch_colors": (r, 8, 6, 3),
        "orders": (r, 2, 8)}
    assert meta["records"] == r and meta["tokenizer"]["s_tokens"] == 8
    assert sidecar.name.startswith("tiny.occt.tokens-")


def test_split_tokens_batch_as_build_cache_of_the_split_does():
    dataset = tiny_dataset()
    cfg, _ = tiny_setup()
    # The last object's held-out views first: in the whole dataset it is
    # object 0, in the training split the last.
    last = dataset.records[-1].object_id
    moved = [r for r in dataset.records if r.object_id == last and r.view_id >= 10]
    dataset.records = moved + [r for r in dataset.records if r not in moved]
    train, heldout = split_tokens(dataset, build_cache(dataset, cfg), 2)
    train_set, heldout_set = dataset.split_views(2)
    assert_tokens_equal(train, build_cache(train_set, cfg))
    assert_tokens_equal(heldout, build_cache(heldout_set, cfg))
    assert train.object_ids[-1] == last
    for epoch in range(3):
        got = make_batches(train, 4, epoch, seed=5)
        want = make_batches(build_cache(train_set, cfg), 4, epoch, seed=5)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_build_cache_rows_unpack_and_iterate_as_records(saved_dataset):
    dataset = load_dataset(saved_dataset)
    cfg, _ = tiny_setup()
    dataset.records = dataset.records[:3]
    tokens = build_cache(dataset, cfg)
    first, second, third = tokens
    assert first.centers.shape == (cfg.s_tokens, 3)
    assert first.rel_points.shape == first.patch_colors.shape == (cfg.s_tokens, 6, 3)
    assert first.orders.shape == (2, cfg.s_tokens)
    for i, (row, rec) in enumerate(zip(tokens, dataset.records, strict=True)):
        assert (row.labels, row.object_ids) == (rec.label, rec.object_id)
        assert np.array_equal(row.text_features, rec.text_features)
        for f in fields(tokens):
            assert np.array_equal(getattr(row, f.name), getattr(tokens, f.name)[i]), f.name
    assert np.array_equal(tokens.orders, np.swapaxes(curve_orders(tokens.centers, cfg), 0, 1))
    assert len(tokens[1:]) == len(tokens[[0, 2]]) == 2 and len(tokens[:0]) == 0


def test_changed_dataset_misses_and_overwrites_the_cache_file(tmp_path):
    path = tmp_path / "d.occt"
    cfg, _ = tiny_setup()
    save_dataset(path, tiny_dataset(seed=5))
    _, first = load_or_build_cache(path, load_dataset(path), cfg)
    save_dataset(path, tiny_dataset(seed=6))
    dataset = load_dataset(path)
    tokens, second = load_or_build_cache(path, dataset, cfg)
    assert second["token_cache"] == dict(first["token_cache"], hit=False)
    assert second["dataset_sha256"] != first["dataset_sha256"]
    stored = read_container_file(second["token_cache"]["path"])[1]["dataset_sha256"]
    assert stored == second["dataset_sha256"]
    assert_tokens_equal(tokens, build_cache(dataset, cfg))
    assert load_or_build_cache(path, dataset, cfg)[1]["token_cache"]["hit"]


def test_changed_tokenizer_field_writes_a_second_cache_file(saved_dataset, tmp_path):
    path = tmp_path / saved_dataset.name
    path.write_bytes(saved_dataset.read_bytes())
    dataset = load_dataset(path)
    cfg, _ = tiny_setup()
    paths = set()
    for other in (cfg, replace(cfg, curve_a=CurveKind.MORTON), replace(cfg, k_neighbors=5),
                  replace(cfg, c_dim=8)):
        tokens, inputs = load_or_build_cache(path, dataset, other)
        assert_tokens_equal(tokens, build_cache(dataset, other))
        paths.add(Path(inputs["token_cache"]["path"]))
    assert len(paths) == 3  # c_dim is not a tokenizer field
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [path.name] + [p.name for p in paths])


def truncate(path):
    path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])


def flip_a_bit(path):
    data = bytearray(path.read_bytes())
    data[-100] ^= 0x10
    path.write_bytes(bytes(data))


def edit_container(edit):
    def apply(path):
        entries, meta = read_container_file(path)
        edit(entries, meta)
        write_container_file(path, entries, meta)
    return apply


def set_first_order(entries, meta):
    entries["orders"][0, 0, 0] = 99


@pytest.mark.parametrize("damage", [
    truncate,
    flip_a_bit,
    edit_container(lambda e, m: m.__setitem__("records", 5)),
    edit_container(lambda e, m: m["tokenizer"].__setitem__("k_neighbors", 4)),
    edit_container(lambda e, m: e.__setitem__("centers", e["centers"][1:])),
    edit_container(lambda e, m: e.pop("patch_colors")),
    edit_container(lambda e, m: e.__setitem__("rel_points", e["rel_points"].astype(np.float32))),
    edit_container(set_first_order),
], ids=["truncated", "bit-flip", "record-count", "tokenizer-field", "short-tensor",
        "missing-tensor", "f32-tensor", "order-out-of-range"])
def test_damaged_cache_file_is_rebuilt_with_one_warning(saved_dataset, tmp_path, capsys,
                                                       damage):
    path = tmp_path / saved_dataset.name
    path.write_bytes(saved_dataset.read_bytes())
    dataset = load_dataset(path)
    cfg, _ = tiny_setup()
    sidecar = load_or_build_cache(path, dataset, cfg)[1]["token_cache"]["path"]
    damage(Path(sidecar))
    capsys.readouterr()
    tokens, again = load_or_build_cache(path, dataset, cfg)
    err = capsys.readouterr().err
    assert not again["token_cache"]["hit"] and len(err.splitlines()) == 1 and sidecar in err
    assert_tokens_equal(tokens, build_cache(dataset, cfg))
    assert load_or_build_cache(path, dataset, cfg)[1]["token_cache"]["hit"]


def test_v1_cache_file_is_rebuilt_once_with_one_warning(saved_dataset, tmp_path, capsys):
    """A file of the first format, which stored each curve order with its
    inverse, (R, 2, 2, S), is rebuilt in the current format and hits after."""
    path = tmp_path / saved_dataset.name
    path.write_bytes(saved_dataset.read_bytes())
    dataset = load_dataset(path)
    cfg, _ = tiny_setup()
    sidecar = Path(load_or_build_cache(path, dataset, cfg)[1]["token_cache"]["path"])
    entries, meta = read_container_file(sidecar)
    fwd = entries["orders"].view(np.int64)
    inv = np.argsort(fwd, axis=-1)
    entries["orders"] = np.stack([fwd, inv], axis=1).view(np.uint64)  # (R, 2, 2, S)
    write_container_file(sidecar, entries, dict(meta, format="occpoint-tokens/1"))
    capsys.readouterr()
    tokens, again = load_or_build_cache(path, dataset, cfg)
    err = capsys.readouterr().err
    assert not again["token_cache"]["hit"] and len(err.splitlines()) == 1
    assert str(sidecar) in err and "occpoint-tokens/1" in err
    assert_tokens_equal(tokens, build_cache(dataset, cfg))
    entries, meta = read_container_file(sidecar)
    assert meta["format"] == "occpoint-tokens/2" and entries["orders"].shape == fwd.shape
    warm, inputs = load_or_build_cache(path, dataset, cfg)
    assert inputs["token_cache"]["hit"] and capsys.readouterr().err == ""
    assert_tokens_equal(warm, tokens)


def test_run_pretraining_with_given_tokens(tmp_path):
    dataset = tiny_dataset()
    cfg, tc = tiny_setup(seed=3)
    train, _ = split_tokens(dataset, build_cache(dataset, cfg), tc.holdout_views)
    given, _ = run_pretraining(dataset, cfg, tc, tokens=train)
    built, _ = run_pretraining(dataset, cfg, tc)
    for name, model in (("given", given), ("built", built)):
        save_checkpoint(tmp_path / f"{name}.occt", model)
    assert (tmp_path / "given.occt").read_bytes() == (tmp_path / "built.occt").read_bytes()

    with pytest.raises(ConfigError, match="token caches for"):
        run_pretraining(dataset, cfg, tc, tokens=train[:-1])
    for other in (replace(cfg, s_tokens=6), replace(cfg, k_neighbors=5)):
        with pytest.raises(ConfigError, match=r"\(S, k\)"):
            run_pretraining(dataset, other, tc, tokens=train)
