from types import SimpleNamespace

import numpy as np
import pytest

from occpoint.autodiff import Tensor
from occpoint.dataset import generate_triplets
from occpoint.encoder import toy_config
from occpoint.errors import ConfigError, InvalidInput
from occpoint.contrastive import init_alignment_heads
from occpoint.synthetic import make_class_mesh
from occpoint.training import (
    AdamWState,
    EmaState,
    TrainConfig,
    adamw_step,
    build_cache,
    grad_check,
    init_model,
    linear_probe,
    load_checkpoint,
    lr_at,
    make_batches,
    run_pretraining,
    save_checkpoint,
    top_k_accuracy,
    train_step,
    use_ema_weights,
    zero_shot_classify,
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
        TrainConfig(color_drop_prob=1.5)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=5, warmup_epochs=10)


@pytest.mark.parametrize("bad", [dict(batch_size=1), dict(batch_size=0),
                                 dict(holdout_views=0), dict(holdout_views=12)])
def test_config_rejects_degenerate_batches_and_splits(bad):
    with pytest.raises(ConfigError):
        TrainConfig(**bad)
    # The edges of the accepted ranges.
    TrainConfig(batch_size=2, holdout_views=1)
    TrainConfig(holdout_views=11)


# --- optimizer ------------------------------------------------------------------


def test_adamw_decoupled_decay_with_zero_gradients():
    tc = TrainConfig(weight_decay=0.1)
    params = {"w": Tensor(np.full(4, 2.0), requires_grad=True)}
    params["w"].grad = np.zeros(4)
    state = AdamWState.init(params)
    adamw_step(params, state, lr=0.5, config=tc)
    assert np.allclose(params["w"].data, 2.0 * (1.0 - 0.5 * 0.1), atol=1e-16)


def test_adamw_bias_correction_first_step():
    tc = TrainConfig(weight_decay=0.0)
    params = {"w": Tensor(np.array([1.0]), requires_grad=True)}
    params["w"].grad = np.array([0.3])
    state = AdamWState.init(params)
    adamw_step(params, state, lr=0.01, config=tc)
    # First step with bias correction: update = g / (|g| + eps) ~ sign(g)
    assert abs(params["w"].data[0] - (1.0 - 0.01 * (0.3 / (0.3 + 1e-8)))) < 1e-12


def test_ema_geometric_convergence_constant_params():
    params = {"w": Tensor(np.array([3.0]), requires_grad=True)}
    ema = EmaState.init(params, decay=0.9)
    gaps = []
    for _ in range(30):
        ema.update(params)
        gaps.append(abs(ema.shadow["w"][0] - 3.0))
    ratios = [b / a for a, b in zip(gaps, gaps[1:])]
    assert np.allclose(ratios, 0.9, atol=1e-9)
    assert abs(ema.debiased("w")[0] - 3.0) < 1e-12


def test_ema_debiased_equals_params_when_constant():
    params = {"w": Tensor(np.array([1.5, -2.0]), requires_grad=True)}
    ema = EmaState.init(params, decay=0.9995)
    for _ in range(3):
        ema.update(params)
    assert np.allclose(ema.debiased("w"), params["w"].data, atol=1e-12)


def test_use_ema_weights_swaps_and_restores():
    params = {"w": Tensor(np.array([1.0]), requires_grad=True)}
    ema = EmaState.init(params, decay=0.5)
    ema.update(params)
    params["w"].data = np.array([5.0])
    with use_ema_weights(params, ema):
        inside = params["w"].data.copy()
    assert np.allclose(inside, 1.0)  # debiased average of the history so far
    assert params["w"].data[0] == 5.0


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
    tc = TrainConfig(batch_size=4, epochs=1, warmup_epochs=0, base_lr=0.0,
                     weight_decay=0.0, seed=0)
    model = init_model(cfg, tc)
    before = {k: t.data.copy() for k, t in model.params().items()}
    caches = build_cache(dataset.split_views(2)[0], cfg)
    batches = make_batches(caches, 4, 0, 0)
    train_step(batches[0], model, 0, len(batches), len(batches))
    after = model.params()
    for k in before:
        assert np.array_equal(before[k], after[k].data)
    # EMA shadow moved toward the (unchanged) params
    assert model.ema.updates == 1
    for k in before:
        assert np.allclose(model.ema.debiased(k), before[k], atol=1e-12)


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

    # Training epoch 2 must continue the step counter (schedule total differs,
    # so exact loss equality with the full run is not expected).
    resumed.train_config = tc_full
    _, more = run_pretraining(dataset, cfg, tc_full, model=resumed)
    assert more[0]["step"] == half_model.step
    assert len(more) == len(full_metrics) - half_model.step


def test_batches_use_one_view_per_object():
    dataset = tiny_dataset()
    cfg, tc = tiny_setup()
    caches = build_cache(dataset.split_views(2)[0], cfg)
    for epoch in range(3):
        for batch in make_batches(caches, 4, epoch, seed=1):
            objs = [c.object_index for c in batch]
            assert len(objs) == len(set(objs))


def test_batches_are_class_disjoint_when_they_fit():
    dataset = tiny_dataset()  # 3 classes, 2 objects each
    cfg, tc = tiny_setup()
    caches = build_cache(dataset.split_views(2)[0], cfg)
    for epoch in range(3):
        for batch in make_batches(caches, 3, epoch, seed=2):
            labels = [c.label for c in batch]
            assert len(labels) == len(set(labels))


def test_batches_cover_every_view_each_epoch():
    dataset = tiny_dataset()
    cfg, tc = tiny_setup()
    caches = build_cache(dataset.split_views(2)[0], cfg)
    batches = make_batches(caches, 4, epoch=0, seed=1)
    seen = [id(c) for batch in batches for c in batch]
    assert len(seen) == len(caches)
    assert len(set(seen)) == len(caches)


def fake_caches(n_objects, n_classes, views):
    return [SimpleNamespace(object_index=obj, label=obj % n_classes, view=v)
            for obj in range(n_objects) for v in range(views)]


@pytest.mark.parametrize("n_objects,batch_size,sizes", [
    (17, 8, [8, 9]), (9, 4, [4, 5]), (5, 4, [5]), (16, 8, [8, 8]), (6, 4, [4, 2]),
])
def test_lone_leftover_joins_the_batch_before(n_objects, batch_size, sizes):
    caches = fake_caches(n_objects, 8, views=10)
    for epoch in range(2):
        batches = make_batches(caches, batch_size, epoch, seed=3)
        assert [len(b) for b in batches] == sizes * 10
        seen = [id(c) for batch in batches for c in batch]
        assert sorted(seen) == sorted(id(c) for c in caches)
        for batch in batches:
            assert len({c.object_index for c in batch}) == len(batch)


def test_color_dropout_changes_inputs_not_geometry():
    dataset = tiny_dataset()
    cfg, tc = tiny_setup()
    caches = build_cache(dataset.split_views(2)[0], cfg)
    from occpoint.training import _batch_arrays

    batch = caches[:3]
    feats_drop, *_ = _batch_arrays(batch, np.array([True, True, True]),
                                   np.zeros(3, dtype=int), 0.4)
    feats_keep, *_ = _batch_arrays(batch, np.array([False, False, False]),
                                   np.zeros(3, dtype=int), 0.4)
    assert np.array_equal(feats_drop[..., :3], feats_keep[..., :3])
    assert np.all(feats_drop[..., 3:] == 0.4)


# --- evaluation helpers ------------------------------------------------------------


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
