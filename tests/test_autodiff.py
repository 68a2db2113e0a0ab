"""Op-level gradient checks for the reverse-mode tape."""

import itertools

import numpy as np
import pytest

from occpoint import autodiff as ad
from occpoint.autodiff import Tensor
from occpoint.contrastive import TAU_MAX, TAU_MIN, cross_modal_loss, normalize_rows
from occpoint.errors import ShapeError

from composed import (
    amax, composed_affine, composed_cross_modal_loss, composed_layer_norm, composed_mean,
    composed_normalize_rows, depthwise_conv1d, div, forward_and_grads, log, logsumexp, matmul,
    mul, sigmoid, softplus, sqrt, square, sub, take_rows, tensor_sum,
)


def finite_diff(fn, tensor, h=1e-6, samples=10, seed=0):
    rng = np.random.default_rng(seed)
    loss = fn()
    tensor.zero_grad()
    for p in _all_params:
        p.zero_grad()
    loss.backward()
    analytic = tensor.grad.copy() if tensor.grad is not None else np.zeros_like(tensor.data)
    flat = tensor.data.ravel()
    worst = 0.0
    for i in rng.choice(flat.size, size=min(samples, flat.size), replace=False):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(fn().data)
        flat[i] = orig - h
        fm = float(fn().data)
        flat[i] = orig
        fd = (fp - fm) / (2 * h)
        worst = max(worst, abs(fd - analytic.ravel()[i]) / max(abs(fd), abs(analytic.ravel()[i]), 1e-6))
    return worst


_all_params: list[Tensor] = []


def param(data):
    t = Tensor(data, requires_grad=True)
    _all_params.append(t)
    return t


@pytest.fixture(autouse=True)
def clear_params():
    _all_params.clear()
    yield


_W14 = np.random.default_rng(42).normal(size=(1, 4))
_W34 = np.random.default_rng(43).normal(size=(3, 4))
_NUM = np.random.default_rng(44).normal(size=(3, 4))


@pytest.mark.parametrize("op_name,builder", [
    ("mul_broadcast", lambda x: tensor_sum(mul(x, Tensor(_W14)))),
    ("div", lambda x: tensor_sum(div(Tensor(_NUM), ad.add(square(x), Tensor(1.0))))),
    ("exp", lambda x: tensor_sum(ad.exp(x))),
    ("log_of_square", lambda x: tensor_sum(log(ad.add(square(x), Tensor(0.5))))),
    ("sqrt", lambda x: tensor_sum(sqrt(ad.add(square(x), Tensor(0.1))))),
    ("sigmoid", lambda x: tensor_sum(sigmoid(x))),
    ("silu", lambda x: tensor_sum(ad.silu(x))),
    ("softplus", lambda x: tensor_sum(softplus(x))),
    ("mean_axis", lambda x: tensor_sum(square(ad.mean(x, axis=1)))),
    ("logsumexp", lambda x: tensor_sum(logsumexp(x, axis=1))),
    ("l2norm", lambda x: tensor_sum(mul(normalize_rows(x), Tensor(_W34)))),
])
def test_pointwise_and_reduction_grads(op_name, builder):
    x = param(np.random.default_rng(1).normal(size=(3, 4)))
    assert finite_diff(lambda: builder(x), x) < 1e-6


def test_matmul_grads_batched():
    rng = np.random.default_rng(2)
    x = param(rng.normal(size=(2, 5, 3)))
    w = param(rng.normal(size=(3, 4)))
    target = rng.normal(size=(2, 5, 4))

    def fn():
        return tensor_sum(square(sub(matmul(x, w), Tensor(target))))

    assert finite_diff(fn, x) < 1e-6
    assert finite_diff(fn, w) < 1e-6


def test_layer_norm_grads():
    rng = np.random.default_rng(3)
    x = param(rng.normal(size=(4, 6)))
    gain = param(rng.normal(size=6))
    bias = param(rng.normal(size=6))
    weight = rng.normal(size=(4, 6))

    def fn():
        return tensor_sum(mul(ad.layer_norm(x, gain, bias), Tensor(weight)))

    for t in (x, gain, bias):
        assert finite_diff(fn, t) < 1e-6


def _rows(rng, shape, unit=False):
    x = rng.normal(size=shape)
    return Tensor(x / np.linalg.norm(x, axis=-1, keepdims=True) if unit else x,
                  requires_grad=True)


def _single_node_cases():
    """(id, inputs, op, composed form, bitwise gradients) per one-node op."""
    rng = np.random.default_rng(17)
    x, w, b = _rows(rng, (2, 5, 6)), _rows(rng, (6, 4)), _rows(rng, (4,))
    yield "affine", {"x": x, "weight": w, "bias": b}, ad.affine, composed_affine, True
    for axis in (0, 1):
        yield (f"mean_axis_{axis}", {"a": _rows(rng, (3, 4, 5))},
               lambda a, axis=axis: ad.mean(a, axis),
               lambda a, axis=axis: composed_mean(a, axis), True)
    inputs = {"x": _rows(rng, (2, 5, 6)), "gain": _rows(rng, (6,)), "bias": _rows(rng, (6,))}
    yield "layer_norm", inputs, ad.layer_norm, composed_layer_norm, False
    yield "normalize_rows", {"feats": _rows(rng, (7, 5))}, normalize_rows, \
        composed_normalize_rows, False
    for tau in (TAU_MIN, TAU_MAX):
        for reduction in ("sum", "mean"):
            for batch in (1, 8):
                inputs = {"za": _rows(rng, (batch, 6), unit=True),
                          "zb": _rows(rng, (batch, 6), unit=True),
                          "tau": Tensor(tau, requires_grad=True)}
                yield (f"cross_modal_loss_tau_{tau}_{reduction}_B{batch}", inputs,
                       lambda za, zb, tau, r=reduction: cross_modal_loss(za, zb, tau, r),
                       lambda za, zb, tau, r=reduction: composed_cross_modal_loss(za, zb, tau, r),
                       False)


@pytest.mark.parametrize("inputs, op, composed, bitwise_grads",
                         [pytest.param(*case[1:], id=case[0]) for case in _single_node_cases()])
def test_one_node_op_matches_composed_oracle(inputs, op, composed, bitwise_grads):
    """Each one-node op's forward is its composed form's bit for bit. The
    affine map's and the mean's gradients are too; the closed-form adjoints
    of the others round differently, within 1e-12 relative."""
    got, got_grads = forward_and_grads(lambda: op(**inputs), inputs)
    want, want_grads = forward_and_grads(lambda: composed(**inputs), inputs)
    assert np.array_equal(got, want)
    for name, g in got_grads.items():
        w = want_grads[name]
        assert g.shape == np.shape(w), name
        if bitwise_grads:
            assert np.array_equal(g, w), name
        else:
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w)), name


def test_take_rows_grads_and_round_trip():
    rng = np.random.default_rng(4)
    x = param(rng.normal(size=(2, 6, 3)))
    perm = np.stack([rng.permutation(6), rng.permutation(6)])
    inv = np.empty_like(perm)
    for b in range(2):
        inv[b, perm[b]] = np.arange(6)
    weight = rng.normal(size=(2, 6, 3))

    sorted_x = take_rows(x, perm, inv)
    assert np.array_equal(sorted_x.data, np.take_along_axis(x.data, perm[..., None], axis=1))
    restored = take_rows(sorted_x, inv, perm)
    assert np.array_equal(restored.data, x.data)

    def fn():
        return tensor_sum(mul(take_rows(x, perm, inv), Tensor(weight)))

    assert finite_diff(fn, x) < 1e-6
    # The backward gather by the inverse is the scatter by the forward index.
    x.zero_grad()
    fn().backward()
    scattered = np.zeros_like(x.data)
    np.put_along_axis(scattered, perm[..., None], np.broadcast_to(weight, x.shape), axis=1)
    assert np.array_equal(x.grad, scattered)


def test_gather_rows_broadcasts_leading_axes():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(3, 5, 2))
    index = np.stack([np.stack([rng.permutation(5) for _ in range(3)]) for _ in range(2)])
    stacked = ad.gather_rows(np.stack([x, 2 * x]), index)
    shared = ad.gather_rows(x, index)
    assert stacked.shape == shared.shape == (2, 3, 5, 2)
    for z in range(2):
        for b in range(3):
            assert np.array_equal(shared[z, b], x[b, index[z, b]])
            assert np.array_equal(stacked[z, b], (1 + z) * x[b, index[z, b]])


def test_amax_grads():
    rng = np.random.default_rng(5)
    x = param(rng.normal(size=(3, 5, 4)))
    weight = rng.normal(size=(3, 4))

    def fn():
        return tensor_sum(mul(amax(x, axis=1), Tensor(weight)))

    assert finite_diff(fn, x) < 1e-6


def test_clip_gradient_masking():
    x = param(np.array([-2.0, 0.5, 3.0]))
    out = tensor_sum(ad.clip(x, 0.0, 1.0))
    out.backward()
    assert np.array_equal(x.grad, [0.0, 1.0, 0.0])


def test_concat_grads():
    rng = np.random.default_rng(6)
    a = param(rng.normal(size=(3, 2)))
    b = param(rng.normal(size=(3, 4)))
    weight = rng.normal(size=(3, 6))

    def fn():
        return tensor_sum(mul(ad.concat([a, b], axis=1), Tensor(weight)))

    assert finite_diff(fn, a) < 1e-6
    assert finite_diff(fn, b) < 1e-6


def test_depthwise_conv1d_standard_and_causal():
    rng = np.random.default_rng(7)
    x = param(rng.normal(size=(2, 8, 3)))
    kernel = param(rng.normal(size=(3, 5)))
    bias = param(rng.normal(size=3))

    def fn():
        return tensor_sum(square(depthwise_conv1d(x, kernel, bias, 2, 2)))

    for t in (x, kernel, bias):
        assert finite_diff(fn, t) < 1e-6

    causal_kernel = param(rng.normal(size=(3, 4)))

    def fn_causal():
        return tensor_sum(square(depthwise_conv1d(x, causal_kernel, bias, 3, 0)))

    assert finite_diff(fn_causal, causal_kernel) < 1e-6


def test_stacked_conv1d_matches_the_per_element_loop():
    """conv1d_forward and its input gradient, over two stacked streams, are
    bitwise the literal sums over the taps in order j = 0..w-1; the kernel and
    bias gradients match their sums to rounding."""
    rng = np.random.default_rng(9)
    nz, nb, s, c, w, pad = 2, 3, 7, 5, 4, 2
    x, g = rng.normal(size=(2, nz, nb, s, c))
    kernel, bias = rng.normal(size=(nz, c, w)), rng.normal(size=(nz, c))
    xp = np.zeros((nz, nb, s + w - 1, c))
    xp[:, :, pad : pad + s] = x
    want, gx, gk = np.empty_like(x), np.zeros_like(xp), np.zeros_like(kernel)
    for z, b, t, ch in np.ndindex(x.shape):
        acc = 0.0
        for j in range(w):
            acc += xp[z, b, t + j, ch] * kernel[z, ch, j]
            gk[z, ch, j] += g[z, b, t, ch] * xp[z, b, t + j, ch]
        want[z, b, t, ch] = acc + bias[z, ch]
    for j, (z, b, t, ch) in itertools.product(range(w), np.ndindex(x.shape)):
        gx[z, b, t + j, ch] += g[z, b, t, ch] * kernel[z, ch, j]
    out, padded = ad.conv1d_forward(x, kernel, bias, pad)
    assert np.array_equal(out, want) and np.array_equal(padded, xp)
    got_gx, got_gk, got_gb = ad.conv1d_backward(g, padded, kernel, pad)
    assert np.array_equal(got_gx, gx[:, :, pad : pad + s])
    np.testing.assert_allclose(got_gk, gk, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(got_gb, g.sum(axis=(1, 2)), rtol=1e-13, atol=1e-13)


def test_causal_conv_does_not_see_future():
    rng = np.random.default_rng(8)
    kernel = Tensor(rng.normal(size=(2, 4)))
    bias = Tensor(np.zeros(2))
    x1 = rng.normal(size=(1, 10, 2))
    x2 = x1.copy()
    x2[0, 7:] += 5.0  # changing the future must not affect earlier outputs
    y1 = depthwise_conv1d(Tensor(x1), kernel, bias, 3, 0).data
    y2 = depthwise_conv1d(Tensor(x2), kernel, bias, 3, 0).data
    assert np.array_equal(y1[0, :7], y2[0, :7])


def test_conv_padding_mismatch_rejected():
    with pytest.raises(ShapeError):
        depthwise_conv1d(Tensor(np.zeros((1, 4, 2))), Tensor(np.zeros((2, 5))),
                            Tensor(np.zeros(2)), 1, 1)


def test_backward_requires_scalar():
    with pytest.raises(ShapeError):
        Tensor(np.zeros(3), requires_grad=True).backward()


def test_no_grad_context():
    x = Tensor(np.ones(3), requires_grad=True)
    with ad.no_grad():
        y = tensor_sum(ad.exp(x))
    assert not y.requires_grad


def test_diamond_graph_accumulates_once_per_path():
    x = param(np.array([2.0]))
    y = ad.add(square(x), mul(x, Tensor(3.0)))  # x^2 + 3x
    tensor_sum(y).backward()
    assert np.allclose(x.grad, [2 * 2.0 + 3.0])


def test_gradients_accumulate_across_backward_calls():
    x = param(np.array([1.0, 2.0]))
    tensor_sum(square(x)).backward()
    first = x.grad.copy()
    tensor_sum(square(x)).backward()
    assert np.allclose(x.grad, 2 * first)


def test_shared_gradient_buffer_is_never_updated_in_place():
    # add hands the same g to both parents, so a.grad and b.grad start as one
    # buffer; a later contribution to a must not leak into b.
    a = param(np.array([1.0, 2.0]))
    b = param(np.array([3.0, 4.0]))
    s = ad.add(a, b)
    loss = tensor_sum(ad.add(mul(s, Tensor(2.0)), square(a)))
    loss.backward()
    assert np.array_equal(a.grad, [2.0 + 2.0, 2.0 + 4.0])
    assert np.array_equal(b.grad, [2.0, 2.0])
    loss.backward()
    assert np.array_equal(a.grad, [8.0, 12.0])
    assert np.array_equal(b.grad, [4.0, 4.0])


def test_backward_frees_interior_gradients_and_keeps_leaf_gradients():
    rng = np.random.default_rng(15)
    w = param(rng.normal(size=(3, 2)))
    x = Tensor(rng.normal(size=(4, 3)))
    hidden = ad.silu(matmul(x, w))
    loss = tensor_sum(square(hidden))
    loss.backward()
    first = w.grad.copy()
    assert hidden.grad is None and loss.grad is None
    assert x.grad is None  # a constant input gets no gradient at all
    loss.backward()
    assert np.array_equal(w.grad, 2 * first)


def test_no_grad_ops_match_recorded_ops():
    rng = np.random.default_rng(16)
    x = param(rng.normal(size=(4, 5)) * 3)
    ops = [ad.silu, softplus, lambda t: amax(t, axis=1), lambda t: ad.clip(t, -1.0, 1.0)]
    for op in ops:
        recorded = op(x)
        with ad.no_grad():
            bare = op(x)
        assert recorded.requires_grad and not bare.requires_grad
        assert bare._backward is None
        assert np.array_equal(recorded.data, bare.data)
