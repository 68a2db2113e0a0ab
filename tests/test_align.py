import numpy as np
import pytest

from occpoint import autodiff as ad
from occpoint.autodiff import Tensor
from occpoint.contrastive import (
    EmbeddingBatch,
    TAU_MAX,
    TAU_MIN,
    build_embedding_batch,
    cross_modal_loss,
    init_alignment_heads,
    init_head,
    init_temperature,
    normalize_rows,
    project,
    total_loss,
)
from occpoint.errors import InvalidInput, NumericalError, ShapeError

TWO_TERM = 2.0 * np.log(1.0 + np.exp(-1.0))  # orthonormal B=2, tau=1, sum reduction


def array_loss(za, zb, tau, reduction="sum"):
    """cross_modal_loss of array rows at a float temperature."""
    return cross_modal_loss(Tensor(za), Tensor(zb), Tensor(tau), reduction)


def unit_rows(rng, b, d):
    z = rng.normal(size=(b, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


# --- project -----------------------------------------------------------------


def test_project_identity_weights_passthrough():
    head = init_head(4, 4, np.random.default_rng(0))
    head.weight.data = np.eye(4)
    head.bias.data[:] = 0.0
    z = unit_rows(np.random.default_rng(1), 5, 4)
    out = project(head, Tensor(z))
    assert np.allclose(out.data, z, atol=1e-12)


def test_project_output_rows_unit_norm():
    rng = np.random.default_rng(2)
    head = init_head(6, 4, rng)
    out = project(head, Tensor(rng.normal(size=(7, 6))))
    assert np.allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-6)


def test_project_zero_row_raises():
    head = init_head(3, 3, np.random.default_rng(3))
    head.weight.data[:] = 0.0
    head.bias.data[:] = 0.0
    with pytest.raises(NumericalError):
        project(head, Tensor(np.ones((2, 3))))


def test_normalize_rows_zero_row_raises():
    rows = np.eye(3)
    assert np.array_equal(normalize_rows(Tensor(rows)).data, rows)
    rows[1] = 0.0
    with pytest.raises(NumericalError):
        normalize_rows(Tensor(rows))


def test_project_shape_mismatch():
    head = init_head(3, 3, np.random.default_rng(4))
    with pytest.raises(ShapeError):
        project(head, Tensor(np.ones((2, 5))))


def test_mixed_head_concatenation_shape():
    rng = np.random.default_rng(5)
    heads = init_alignment_heads(8, rng)
    emb = build_embedding_batch(*(Tensor(unit_rows(rng, 4, 8)) for _ in range(3)), heads)
    assert emb.z_mixed.shape == (4, 8)
    assert heads.mixed.weight.shape == (16, 8)


# --- cross_modal_loss -----------------------------------------------------------


def test_single_pair_loss_is_zero():
    za = np.array([[0.6, 0.8]])
    assert abs(float(array_loss(za, za, 0.3).data)) < 1e-12


def test_orthonormal_two_batch_closed_form():
    z = np.eye(2)
    got = float(array_loss(z, z, 1.0, "sum").data)
    assert abs(got - TWO_TERM) <= 1e-9


def test_mean_reduction_divides_by_batch():
    z = np.eye(2)
    s = float(array_loss(z, z, 1.0, "sum").data)
    m = float(array_loss(z, z, 1.0, "mean").data)
    assert abs(s - 2 * m) < 1e-12


def test_symmetry_under_argument_swap():
    rng = np.random.default_rng(6)
    za, zb = unit_rows(rng, 5, 8), unit_rows(rng, 5, 8)
    assert float(array_loss(za, zb, 0.2).data) == float(array_loss(zb, za, 0.2).data)


def test_temperature_validation():
    z = np.eye(2)
    with pytest.raises(InvalidInput):
        array_loss(z, z, 0.0)
    with pytest.raises(InvalidInput):
        array_loss(z, z, -1.0)
    with pytest.raises(InvalidInput):
        array_loss(z, z, 1.0, reduction="median")
    with pytest.raises(InvalidInput):
        array_loss(np.zeros((0, 2)), np.zeros((0, 2)), 1.0)


def test_loss_nonnegative_when_diagonal_maximal():
    rng = np.random.default_rng(7)
    for _ in range(20):
        za = unit_rows(rng, 6, 16)
        assert float(array_loss(za, za, 0.5).data) >= 0.0


def test_loss_decreases_as_diagonal_similarity_rises():
    # Finite-difference on the analytic form: push one diagonal logit up.
    rng = np.random.default_rng(8)
    za, zb = unit_rows(rng, 4, 8), unit_rows(rng, 4, 8)

    def loss_with_diag_boost(eps):
        sims = za @ zb.T / 0.3
        sims[np.diag_indices(4)] += eps
        l_ab = np.sum(np.diag(sims) + eps * 0 - np.log(np.exp(sims).sum(1)))
        l_ba = np.sum(np.diag(sims) - np.log(np.exp(sims.T).sum(1)))
        return -0.5 * (l_ab + l_ba)

    assert loss_with_diag_boost(1e-3) < loss_with_diag_boost(0.0)


def test_batch_permutation_leaves_loss_unchanged():
    rng = np.random.default_rng(9)
    za, zb = unit_rows(rng, 6, 8), unit_rows(rng, 6, 8)
    base = float(array_loss(za, zb, 0.15).data)
    for _ in range(5):
        perm = rng.permutation(6)
        assert abs(float(array_loss(za[perm], zb[perm], 0.15).data) - base) < 1e-10


def test_extreme_temperature_is_stable():
    rng = np.random.default_rng(10)
    za, zb = unit_rows(rng, 4, 8), unit_rows(rng, 4, 8)
    val = float(array_loss(za, zb, TAU_MIN).data)
    assert np.isfinite(val)


# --- temperature parameter -------------------------------------------------------


def test_tau_clamped_to_range():
    t = init_temperature()
    t.log_tau.data = np.array(np.log(100.0))
    assert float(t.value().data) == TAU_MAX
    t.log_tau.data = np.array(np.log(1e-9))
    assert float(t.value().data) == TAU_MIN


def test_tau_gradient_flows_inside_range():
    t = init_temperature(0.07)
    val = t.value()
    val.backward()
    assert t.log_tau.grad is not None and t.log_tau.grad != 0.0


# --- total loss -------------------------------------------------------------------


def matched_batch(rng, b=2, d=4):
    z = np.eye(b, d)
    return EmbeddingBatch(Tensor(z), Tensor(z), Tensor(z), Tensor(z))


def test_total_loss_zero_when_identical_singleton():
    z = np.array([[1.0, 0.0]])
    batch = EmbeddingBatch(Tensor(z), Tensor(z), Tensor(z), Tensor(z))
    loss, terms = total_loss(batch, Tensor(1.0))
    assert abs(float(loss.data)) < 1e-12
    assert all(abs(v) < 1e-12 for v in terms.values())


def test_total_loss_is_sum_of_four_terms():
    rng = np.random.default_rng(11)
    batch = EmbeddingBatch(*(Tensor(unit_rows(rng, 5, 8)) for _ in range(4)))
    loss, terms = total_loss(batch, Tensor(0.4), reduction="sum")
    assert abs(float(loss.data) - sum(terms.values())) < 1e-10
    pairs = {
        "point_image": (batch.z_point, batch.z_image),
        "point_text": (batch.z_point, batch.z_text),
        "image_text": (batch.z_image, batch.z_text),
        "mixed_text": (batch.z_mixed, batch.z_text),
    }
    for name, (za, zb) in pairs.items():
        direct = float(array_loss(za.data, zb.data, 0.4, "sum").data)
        assert abs(terms[name] - direct) < 1e-12


def test_total_loss_matched_four_modality_value():
    loss, _ = total_loss(matched_batch(np.random.default_rng(12)), Tensor(1.0), reduction="sum")
    assert abs(float(loss.data) - 4.0 * TWO_TERM) <= 1e-9


# --- analytic gradients ------------------------------------------------------------


def test_loss_gradients_wrt_embeddings_and_tau():
    rng = np.random.default_rng(13)
    za_data = unit_rows(rng, 4, 6)
    zb_data = unit_rows(rng, 4, 6)
    za = Tensor(za_data, requires_grad=True)
    tau = init_temperature(0.2)

    def fn():
        return cross_modal_loss(za, Tensor(zb_data), tau.value(), "sum")

    loss = fn()
    loss.backward()
    g_za = za.grad.copy()
    g_tau = float(tau.log_tau.grad)

    h = 1e-5
    worst = 0.0
    flat = za.data.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(fn().data)
        flat[i] = orig - h
        fm = float(fn().data)
        flat[i] = orig
        fd = (fp - fm) / (2 * h)
        worst = max(worst, abs(fd - g_za.ravel()[i]) / max(abs(fd), abs(g_za.ravel()[i]), 1e-6))
    assert worst <= 1e-4

    orig = float(tau.log_tau.data)
    tau.log_tau.data = np.array(orig + h)
    fp = float(fn().data)
    tau.log_tau.data = np.array(orig - h)
    fm = float(fn().data)
    tau.log_tau.data = np.array(orig)
    fd = (fp - fm) / (2 * h)
    assert abs(fd - g_tau) / max(abs(fd), abs(g_tau), 1e-6) <= 1e-4


def test_heads_grad_check_registry():
    from gradcheck import grad_check

    assert grad_check("heads", seed=1) <= 1e-4
    assert grad_check("tau", seed=1) <= 1e-4
