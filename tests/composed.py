"""Test-only oracles: the block branch and the mini-PointNet composed from
autodiff ops, one node per operation, as the encoder ran them before both
became single ops with hand adjoints.

The fused ops sum each gradient in the order the composed graphs do, so the
forwards and the gradients agree to the last bit.
"""

from __future__ import annotations

import numpy as np

from occpoint import autodiff as ad
from occpoint import ssm
from occpoint.autodiff import Tensor
from occpoint.encoder import _conv_padding, _perm_arrays


def composed_pointnet_embed(features, params) -> Tensor:
    """affine -> SiLU -> affine -> SiLU -> max over k -> affine, op by op."""
    feats = features if isinstance(features, Tensor) else Tensor(features)
    h = ad.silu(ad.affine(feats, params.w1, params.b1))
    h = ad.silu(ad.affine(h, params.w2, params.b2))
    return ad.affine(ad.amax(h, axis=-2), params.w3, params.b3)


def _recurrence(x, delta, bmat, cmat, a, d) -> Tensor:
    """The scan recurrence alone as one op, over a single stream."""
    inputs = (x, delta, bmat, cmat, a, d)
    y, h_all, abar_all = ssm._scan_forward(*(t.data[None] for t in inputs),
                                           keep_states=ad.needs_grad(*inputs))

    def backward(g):
        grads = ssm._scan_backward(g[None], *(t.data[None] for t in inputs),
                                   h_all=h_all, abar_all=abar_all)
        for t, gt in zip(inputs, grads):
            t.accumulate(gt[0])

    return Tensor(y[0], parents=inputs, backward=backward)


def composed_scan(x: Tensor, s6) -> Tensor:
    """Selective scan of a (B, L, C) Tensor with its projections as autodiff ops."""
    delta = ad.softplus(ad.affine(ad.affine(x, s6.dt_low), s6.dt_up, s6.dt_bias))
    bmat = ad.affine(x, s6.b_weight, s6.b_bias)
    cmat = ad.affine(x, s6.c_weight, s6.c_bias)
    return _recurrence(x, delta, bmat, cmat, ad.neg(ad.exp(s6.a_log)), s6.d_skip)


def composed_branch(z_in, gate, fwd, inv, weight, bias, kernel, conv_bias, s6, config):
    pre = ad.affine(z_in, weight, bias)
    tokens = ad.take_rows(pre, fwd, inv)
    if config.conv_mode != "none":
        pl, pr = _conv_padding(config)
        tokens = ad.depthwise_conv1d(tokens, kernel, conv_bias, pl, pr)
    scanned = composed_scan(ad.silu(tokens), s6)
    return ad.mul(ad.take_rows(scanned, inv, fwd), gate)


def composed_block_forward(z_prev: Tensor, perm_h, perm_t, params, config) -> Tensor:
    """`encoder.block_forward` with each stream branch composed op by op."""
    squeeze = z_prev.ndim == 2
    if squeeze:
        z_prev = ad.reshape(z_prev, (1,) + z_prev.shape)
    shape = z_prev.shape[:2]
    (fh, ih), (ft, it) = ([np.broadcast_to(a, shape) for a in _perm_arrays(p)]
                          for p in (perm_h, perm_t))
    z_in = ad.layer_norm(z_prev, params.norm_gain, params.norm_bias)
    gate = ad.silu(ad.affine(z_in, params.gate_w, params.gate_b))
    h = composed_branch(z_in, gate, fh, ih, params.branch_h_w, params.branch_h_b,
                        params.conv_h_kernel, params.conv_h_bias, params.s6_h, config)
    t = composed_branch(z_in, gate, ft, it, params.branch_t_w, params.branch_t_b,
                        params.conv_t_kernel, params.conv_t_bias, params.s6_t, config)
    out = ad.add(z_prev, ad.affine(ad.add(h, t), params.out_w, params.out_b))
    return ad.reshape(out, out.shape[1:]) if squeeze else out


def forward_and_grads(fn, tensors: dict, weight_seed: int = 0):
    """Run fn() under a random linear loss; return its output and the gradient
    of every named Tensor."""
    for t in tensors.values():
        t.zero_grad()
    out = fn()
    weight = np.random.default_rng(weight_seed).normal(size=out.shape)
    ad.tensor_sum(ad.mul(out, Tensor(weight))).backward()
    return out.data, {name: t.grad for name, t in tensors.items()}


def assert_grads_match(got: dict, want: dict) -> None:
    """Equal bits: a change in the order in which a gradient is summed would
    change checkpoints, though it stays far inside the 1e-12 scan tolerance."""
    assert got.keys() == want.keys()
    for name, g in got.items():
        w = want[name]
        assert (g is None and w is None) or np.array_equal(g, w), name
