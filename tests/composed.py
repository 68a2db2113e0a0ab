"""Test-only oracles: the ops that became single nodes with hand adjoints,
composed from finer autodiff ops, one node per operation, as they ran before.

The block branch and the mini-PointNet sum each gradient in the order their
composed graphs do, so the forwards and the gradients agree to the last bit.
The affine map and the mean do too. The layer norm, the row normalization
and the contrastive loss keep their composed forwards bit for bit, but their
adjoints are closed forms that round differently, within 1e-12 relative.
The finer ops that only these composed forms use (arithmetic, log, sqrt,
square, sums, log-sum-exp, transpose, sigmoid, softplus, the token reorder,
the max pool and the depthwise convolution) are defined here, and so is
the unsort of a curve order, built by scatter rather than the encoder's argsort.
"""

from __future__ import annotations

import numpy as np

from occpoint import autodiff as ad
from occpoint import ssm
from occpoint.autodiff import LAYER_NORM_EPS, Tensor, _unbroadcast
from occpoint.encoder import _conv_padding
from occpoint.errors import ShapeError


def neg(a: Tensor) -> Tensor:
    return Tensor(-a.data, parents=(a,), backward=lambda g: a.accumulate(-g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    """a - b, as a + (-b)."""
    return ad.add(a, neg(b))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g * a.data, b.data.shape))

    return Tensor(out_data, parents=(a, b), backward=backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data / b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return Tensor(out_data, parents=(a, b), backward=backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b with 2D b (weight matrices are always 2D here); a may be batched."""
    if b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2D right operand, got {b.data.shape}")
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(g @ b.data.T)
        if b.requires_grad:
            b.accumulate(ad.weight_grad(a.data, g))

    return Tensor(out_data, parents=(a, b), backward=backward)


def log(a: Tensor) -> Tensor:
    return Tensor(np.log(a.data), parents=(a,), backward=lambda g: a.accumulate(g / a.data))


def sqrt(a: Tensor) -> Tensor:
    r = np.sqrt(a.data)
    return Tensor(r, parents=(a,), backward=lambda g: a.accumulate(g * 0.5 / r))


def square(a: Tensor) -> Tensor:
    return Tensor(a.data * a.data, parents=(a,), backward=lambda g: a.accumulate(g * 2.0 * a.data))


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a.accumulate(np.broadcast_to(g, a.data.shape))

    return Tensor(out_data, parents=(a,), backward=backward)


def logsumexp(a: Tensor, axis: int) -> Tensor:
    """Stable log-sum-exp; the max shift is a constant so the gradient is exact."""
    shift = Tensor(a.data.max(axis=axis, keepdims=True))
    summed = tensor_sum(ad.exp(sub(a, shift)), axis=axis)
    return ad.add(log(summed), Tensor(np.squeeze(shift.data, axis=axis)))


def transpose(x: Tensor) -> Tensor:
    return Tensor(x.data.T, parents=(x,), backward=lambda g: x.accumulate(g.T))


def composed_affine(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    return ad.add(matmul(x, weight), bias)


def composed_mean(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    return mul(tensor_sum(a, axis=axis, keepdims=keepdims), Tensor(1.0 / a.data.shape[axis]))


def composed_layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    mu = composed_mean(x, axis=-1, keepdims=True)
    centered = sub(x, mu)
    var = composed_mean(square(centered), axis=-1, keepdims=True)
    inv = div(Tensor(1.0), sqrt(ad.add(var, Tensor(LAYER_NORM_EPS))))
    return ad.add(mul(mul(centered, inv), gain), bias)


def composed_normalize_rows(feats: Tensor) -> Tensor:
    return div(feats, sqrt(tensor_sum(square(feats), axis=-1, keepdims=True)))


def _directional(za: Tensor, zb: Tensor, tau: Tensor) -> Tensor:
    """sum_i [ sim_ii/tau - logsumexp_j sim_ij/tau ]."""
    sims = div(matmul(za, transpose(zb)), tau)
    b = sims.shape[0]
    diag = tensor_sum(mul(sims, Tensor(np.eye(b))))
    lse = tensor_sum(logsumexp(sims, axis=1))
    return sub(diag, lse)


def composed_cross_modal_loss(za: Tensor, zb: Tensor, tau: Tensor, reduction: str) -> Tensor:
    loss = mul(ad.add(_directional(za, zb, tau), _directional(zb, za, tau)), Tensor(-0.5))
    if reduction == "mean":
        loss = div(loss, Tensor(float(za.shape[0])))
    return loss


def sigmoid(a: Tensor) -> Tensor:
    s = ad.sigmoid_array(a.data)
    return Tensor(s, parents=(a,), backward=lambda g: a.accumulate(g * s * (1.0 - s)))


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(x)), computed overflow-free."""
    out = np.logaddexp(0.0, a.data)
    if not ad.needs_grad(a):
        return Tensor(out)
    s = ad.sigmoid_array(a.data)
    return Tensor(out, parents=(a,), backward=lambda g: a.accumulate(g * s))


def take_rows(a: Tensor, forward: np.ndarray, inverse: np.ndarray) -> Tensor:
    """Reorder the tokens of (B, S, C) by one permutation per row, given as
    (B, S) forward and inverse indices; the backward pass is the gather by the
    inverse, since each row's index is a bijection."""
    return Tensor(ad.gather_rows(a.data, forward), parents=(a,),
                  backward=lambda g: a.accumulate(ad.gather_rows(g, inverse)))


def unsort(orders: np.ndarray) -> np.ndarray:
    """The inverse of each (..., S) permutation row: ``inv[orders[i]] = i``."""
    inv = np.empty_like(orders)
    slots = np.broadcast_to(np.arange(orders.shape[-1], dtype=orders.dtype), orders.shape)
    np.put_along_axis(inv, orders, slots, axis=-1)
    return inv


def amax(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """Max over one axis; gradient routes to the first argmax (ties are rare
    and measure-zero for continuous inputs)."""
    out_data = a.data.max(axis=axis, keepdims=keepdims)
    if not ad.needs_grad(a):
        return Tensor(out_data)
    arg = np.expand_dims(a.data.argmax(axis=axis), axis)

    def backward(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        gin = np.zeros_like(a.data)
        np.put_along_axis(gin, arg, g, axis=axis)
        a.accumulate(gin)

    return Tensor(out_data, parents=(a,), backward=backward)


def depthwise_conv1d(x: Tensor, kernel: Tensor, bias: Tensor,
                     pad_left: int, pad_right: int) -> Tensor:
    """Per-channel 1D convolution along the token axis.

    x: (B, S, C); kernel: (C, w); bias: (C,). Output length equals S, so the
    caller chooses padding: symmetric (w-1)//2 for a same-length standard
    kernel, or (w-1, 0) for a causal one.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"depthwise_conv1d expects (B, S, C), got {x.data.shape}")
    w = kernel.data.shape[1]
    if pad_left + pad_right != w - 1:
        raise ShapeError(f"padding ({pad_left}, {pad_right}) incompatible with width {w}")
    out_data, xp = ad.conv1d_forward(x.data[None], kernel.data[None], bias.data[None], pad_left)

    def backward(g):
        grads = ad.conv1d_backward(g[None], xp, kernel.data[None], pad_left)
        for t, gt in zip((x, kernel, bias), grads):
            if t.requires_grad:
                t.accumulate(gt[0])

    return Tensor(out_data[0], parents=(x, kernel, bias), backward=backward)


def composed_pointnet_embed(features, params) -> Tensor:
    """affine -> SiLU -> affine -> SiLU -> max over k -> affine, op by op."""
    feats = features if isinstance(features, Tensor) else Tensor(features)
    h = ad.silu(ad.affine(feats, params.w1, params.b1))
    h = ad.silu(ad.affine(h, params.w2, params.b2))
    return ad.affine(amax(h, axis=-2), params.w3, params.b3)


def _recurrence(x, delta, bmat, cmat, a, d) -> Tensor:
    """The scan recurrence alone as one op, over a single stream."""
    inputs = (x, delta, bmat, cmat, a, d)
    xz, deltaz, bz, cz, az, dz = (t.data[None] for t in inputs)
    y, adjoint = ssm._scan(xz, *ssm._time_major(xz, deltaz, bz, cz), az, dz)

    def backward(g):
        for t, gt in zip(inputs, adjoint(g[None])):
            t.accumulate(gt[0])

    return Tensor(y[0], parents=inputs, backward=backward)


def composed_scan(x: Tensor, s6) -> Tensor:
    """Selective scan of a (B, L, C) Tensor with its projections as autodiff ops."""
    delta = softplus(ad.affine(matmul(x, s6.dt_low), s6.dt_up, s6.dt_bias))
    bmat = ad.affine(x, s6.b_weight, s6.b_bias)
    cmat = ad.affine(x, s6.c_weight, s6.c_bias)
    return _recurrence(x, delta, bmat, cmat, neg(ad.exp(s6.a_log)), s6.d_skip)


def composed_branch(z_in, gate, fwd, inv, weight, bias, kernel, conv_bias, s6, config):
    pre = ad.affine(z_in, weight, bias)
    tokens = take_rows(pre, fwd, inv)
    if config.conv_mode != "none":
        pl, pr = _conv_padding(config)
        tokens = depthwise_conv1d(tokens, kernel, conv_bias, pl, pr)
    scanned = composed_scan(ad.silu(tokens), s6)
    return mul(take_rows(scanned, inv, fwd), gate)


def composed_block_forward(z_prev: Tensor, fwd, inv, params, config) -> Tensor:
    """`encoder.block_forward` with each stream branch composed op by op."""
    z_in = ad.layer_norm(z_prev, params.norm_gain, params.norm_bias)
    gate = ad.silu(ad.affine(z_in, params.gate_w, params.gate_b))
    h = composed_branch(z_in, gate, fwd[0], inv[0], params.branch_h_w, params.branch_h_b,
                        params.conv_h_kernel, params.conv_h_bias, params.s6_h, config)
    t = composed_branch(z_in, gate, fwd[1], inv[1], params.branch_t_w, params.branch_t_b,
                        params.conv_t_kernel, params.conv_t_bias, params.s6_t, config)
    return ad.add(z_prev, ad.affine(ad.add(h, t), params.out_w, params.out_b))


def forward_and_grads(fn, tensors: dict, weight_seed: int = 0):
    """Run fn() under a random linear loss; return its output and the gradient
    of every named Tensor."""
    for t in tensors.values():
        t.zero_grad()
    out = fn()
    weight = np.random.default_rng(weight_seed).normal(size=out.shape)
    tensor_sum(mul(out, Tensor(weight))).backward()
    return out.data, {name: t.grad for name, t in tensors.items()}


def assert_grads_match(got: dict, want: dict) -> None:
    """Equal bits: a change in the order in which a gradient is summed would
    change checkpoints, though it stays far inside the 1e-12 scan tolerance."""
    assert got.keys() == want.keys()
    for name, g in got.items():
        w = want[name]
        assert (g is None and w is None) or np.array_equal(g, w), name
