"""Finite-difference gradient checks: one registered builder per operation.

`grad_check(op_id)` compares the analytic gradient of each parameter of the
named operation against central differences and returns the worst relative
error. The acceptance suite runs every entry of `GRAD_CHECK_OPS`.
"""

from __future__ import annotations

import numpy as np

from occpoint import autodiff as ad
from occpoint.autodiff import Tensor
from occpoint.contrastive import (
    build_embedding_batch,
    cross_modal_loss,
    init_alignment_heads,
    total_loss,
)
from occpoint.encoder import block_forward, init_block, named_parameters, stream_branches, toy_config
from occpoint.errors import InvalidInput, NumericalError
from occpoint.ssm import init_s6
from occpoint.tokenizer import init_mini_pointnet, mini_pointnet_embed, pointnet_pool
from occpoint.training import TrainConfig, curve_orders, encode_batch, init_model

from composed import depthwise_conv1d
from reference import scan_tensor


def grad_check(op_id: str, h: float = 1e-5, seed: int = 0,
               samples_per_tensor: int = 6) -> float:
    """Worst relative error between analytic and central-difference gradients
    for the named operation's parameters. Registered ops: affine,
    mini_pointnet, pointnet_pool, conv1d, selective_scan, stream_branches,
    block, heads, tau, total_loss."""
    if op_id not in GRAD_CHECK_OPS:
        raise InvalidInput(f"unknown op {op_id!r}; have {sorted(GRAD_CHECK_OPS)}")
    params, fn = GRAD_CHECK_OPS[op_id](seed)

    loss = fn()
    for t in params.values():
        t.zero_grad()
    loss.backward()
    analytic = {k: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
                for k, t in params.items()}

    rng = np.random.Generator(np.random.PCG64([seed, 0xFD]))
    worst = 0.0
    for name, t in params.items():
        flat = t.data.ravel()
        gflat = analytic[name].ravel()
        count = min(samples_per_tensor, flat.size)
        idxs = rng.choice(flat.size, size=count, replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + h
            fp = float(fn().data)
            flat[i] = orig - h
            fm = float(fn().data)
            flat[i] = orig
            fd = (fp - fm) / (2.0 * h)
            if not np.isfinite(fd):
                raise NumericalError(f"non-finite finite-difference for {op_id}:{name}")
            # Floor the denominator at 1e-5: entries whose true gradient is at
            # the cancellation noise level of the central difference would
            # otherwise compare noise against noise.
            denom = max(abs(fd), abs(gflat[i]), 1e-5)
            worst = max(worst, abs(fd - gflat[i]) / denom)
    return worst


def _gc_affine(seed):
    rng = np.random.default_rng(seed)
    w = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    x = rng.normal(size=(7, 5))
    target = rng.normal(size=(7, 3))

    def fn():
        out = ad.affine(Tensor(x), w, b)
        return ad.tensor_sum(ad.square(out - Tensor(target)))

    return {"w": w, "b": b}, fn


def _gc_mini_pointnet(seed):
    rng = np.random.default_rng(seed)
    params = init_mini_pointnet(8, rng, hidden=6)
    feats = rng.normal(size=(2, 4, 5, 6))

    def fn():
        return ad.tensor_sum(ad.square(mini_pointnet_embed(Tensor(feats), params)))

    return dict(named_parameters(params)), fn


def _gc_pointnet_pool(seed):
    rng = np.random.default_rng(seed)
    params = init_mini_pointnet(8, rng, hidden=6)
    feats = Tensor(rng.normal(size=(2, 4, 5, 6)), requires_grad=True)

    def fn():
        return ad.tensor_sum(ad.square(pointnet_pool(feats, params)))

    tensors = {k: v for k, v in params.tensors().items() if k not in ("w3", "b3")}
    return {"features": feats, **tensors}, fn


def _gc_conv1d(seed):
    rng = np.random.default_rng(seed)
    kernel = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    bias = Tensor(rng.normal(size=4), requires_grad=True)
    x = rng.normal(size=(2, 9, 4))

    def fn():
        out = depthwise_conv1d(Tensor(x), kernel, bias, 2, 2)
        return ad.tensor_sum(ad.square(out))

    return {"kernel": kernel, "bias": bias}, fn


def _gc_selective_scan(seed):
    rng = np.random.default_rng(seed)
    params = init_s6(4, 4, rng)
    x = rng.normal(size=(1, 16, 4))

    def fn():
        return ad.tensor_sum(ad.square(scan_tensor(Tensor(x), params)))

    return dict(named_parameters(params)), fn


def _gc_stream_branches(seed):
    rng = np.random.default_rng(seed)
    cfg = toy_config(c_dim=6, s_tokens=5, n_state=3, l_blocks=1,
                     conv_mode=("standard", "causal")[seed % 2])
    block = init_block(cfg, rng)
    z_in = Tensor(rng.normal(size=(2, 5, 6)), requires_grad=True)
    gate = Tensor(rng.normal(size=(2, 5, cfg.c_inner)), requires_grad=True)
    fwd, inv = curve_orders(rng.uniform(-1, 1, size=(2, 5, 3)), cfg)

    def fn():
        return ad.tensor_sum(ad.square(stream_branches(z_in, gate, fwd, inv, block, cfg)))

    tensors = {k: v for k, v in named_parameters(block)
               if k.startswith(("branch_", "conv_", "s6_"))}
    return {"z_in": z_in, "gate": gate, **tensors}, fn


def _gc_block(seed):
    rng = np.random.default_rng(seed)
    cfg = toy_config(c_dim=6, s_tokens=5, n_state=3, l_blocks=1)
    block = init_block(cfg, rng)
    # The training init zeroes out_w (identity blocks); gradient checking
    # needs a nontrivial output path.
    block.out_w.data = rng.normal(size=block.out_w.shape) * block.out_w.shape[0] ** -0.5
    x = rng.normal(size=(1, 5, 6))
    fwd, inv = curve_orders(rng.uniform(-1, 1, size=(1, 5, 3)), cfg)

    def fn():
        return ad.tensor_sum(ad.square(block_forward(Tensor(x), fwd, inv, block, cfg)))

    return dict(named_parameters(block)), fn


def _gc_heads(seed):
    rng = np.random.default_rng(seed)
    heads = init_alignment_heads(6, rng)
    z_point = rng.normal(size=(4, 6))
    image = rng.normal(size=(4, 6))
    text = rng.normal(size=(4, 6))

    def fn():
        emb = build_embedding_batch(Tensor(z_point), image, text, heads)
        loss, _ = total_loss(emb, heads.temperature.value(), reduction="mean")
        return loss

    return dict(named_parameters(heads)), fn


def _gc_tau(seed):
    rng = np.random.default_rng(seed)
    tau_param = init_alignment_heads(6, rng).temperature
    za = rng.normal(size=(4, 6))
    za /= np.linalg.norm(za, axis=1, keepdims=True)
    zb = rng.normal(size=(4, 6))
    zb /= np.linalg.norm(zb, axis=1, keepdims=True)

    def fn():
        return cross_modal_loss(Tensor(za), Tensor(zb), tau_param.value(), "mean")

    return {"log_tau": tau_param.log_tau}, fn


def _gc_total_loss(seed):
    rng = np.random.default_rng(seed)
    cfg = toy_config(c_dim=6, s_tokens=5, k_neighbors=3, n_state=3,
                     l_blocks=1, embed_dim=5)
    tc = TrainConfig(seed=seed, batch_size=3, epochs=1, warmup_epochs=0)
    model = init_model(cfg, tc)
    for block in model.encoder.blocks:
        block.out_w.data = rng.normal(size=block.out_w.shape) * 0.5
    feats = rng.normal(size=(3, cfg.s_tokens, cfg.k_neighbors, 6))
    fwd, inv = curve_orders(rng.uniform(-1, 1, size=(3, cfg.s_tokens, 3)), cfg)
    image = rng.normal(size=(3, cfg.embed_dim))
    text = rng.normal(size=(3, cfg.embed_dim))

    def fn():
        z = encode_batch(feats, fwd, inv, model)
        emb = build_embedding_batch(z, image, text, model.heads)
        loss, _ = total_loss(emb, model.heads.temperature.value(), "mean")
        return loss

    return model.params(), fn


GRAD_CHECK_OPS = {
    "affine": _gc_affine,
    "mini_pointnet": _gc_mini_pointnet,
    "pointnet_pool": _gc_pointnet_pool,
    "conv1d": _gc_conv1d,
    "selective_scan": _gc_selective_scan,
    "stream_branches": _gc_stream_branches,
    "block": _gc_block,
    "heads": _gc_heads,
    "tau": _gc_tau,
    "total_loss": _gc_total_loss,
}
