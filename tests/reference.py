"""Test-only oracles and helpers: the literal scan recurrence, the
discretization formulas, a parameter count by enumeration, and the
single-cloud tokenizer, each written independently of the batched code it
checks.
"""

from __future__ import annotations

import numpy as np

from occpoint.autodiff import Tensor
from occpoint.encoder import named_parameters
from occpoint.errors import InvalidInput, NumericalError
from occpoint.ssm import S6Params, selective_scan
from occpoint.tokenizer import PatchSet, farthest_point_sampling, knn_group, mini_pointnet_embed


def zoh_discretize(a, b, dt):
    """Simplified zero-order hold: abar = exp(dt*a), bbar = dt*b (elementwise)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    dt = np.asarray(dt, dtype=np.float64)
    if np.any(dt <= 0):
        raise InvalidInput("zoh_discretize requires dt > 0")
    if np.any(a >= 0):
        raise InvalidInput("zoh_discretize requires a < 0")
    return np.exp(dt * a), dt * b


def zoh_discretize_exact(a, b, dt):
    """Exact zero-order hold input map: bbar = (exp(dt*a) - 1)/a * b."""
    a = np.asarray(a, dtype=np.float64)
    abar = np.exp(np.asarray(dt) * a)
    return abar, (abar - 1.0) / a * np.asarray(b)


def selective_scan_reference(x: np.ndarray, params: S6Params) -> np.ndarray:
    """Literal per-step, per-channel transcription of the recurrence, over
    (L, C) or (B, L, C).

    Shares the projection math with `selective_scan` by construction of the
    formulas, not by code: everything is recomputed with explicit loops.
    """
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 2
    if squeeze:
        x = x[None]
    nb, length, channels = x.shape
    n = params.n_state
    a = -np.exp(params.a_log.data)
    y = np.zeros_like(x)
    for b in range(nb):
        h = np.zeros((channels, n))
        for t in range(length):
            xt = x[b, t]
            pre = xt @ params.dt_low.data @ params.dt_up.data + params.dt_bias.data
            delta = np.logaddexp(0.0, pre)
            bt = xt @ params.b_weight.data + params.b_bias.data
            ct = xt @ params.c_weight.data + params.c_bias.data
            for c in range(channels):
                abar, bbar = np.exp(delta[c] * a[c]), delta[c] * bt
                h[c] = abar * h[c] + bbar * xt[c]
                y[b, t, c] = float(ct @ h[c]) + params.d_skip.data[c] * xt[c]
            if not np.all(np.isfinite(h)):
                raise NumericalError(f"non-finite state at step {t}")
    return y[0] if squeeze else y


def scan_states_reference(x: np.ndarray, params: S6Params) -> np.ndarray:
    """State trajectory h_t (L, C, N) of the reference recurrence, for the
    stability bound tests."""
    x = np.asarray(x, dtype=np.float64)
    length, channels = x.shape
    a = -np.exp(params.a_log.data)
    h = np.zeros((channels, params.n_state))
    out = np.empty((length, channels, params.n_state))
    for t in range(length):
        xt = x[t]
        pre = xt @ params.dt_low.data @ params.dt_up.data + params.dt_bias.data
        delta = np.logaddexp(0.0, pre)
        bt = xt @ params.b_weight.data + params.b_bias.data
        h = np.exp(delta[:, None] * a) * h + (delta * xt)[:, None] * bt[None, :]
        out[t] = h
    return out


def scan(x: np.ndarray, params: S6Params) -> np.ndarray:
    """`selective_scan` of one (B, L, C) array through one S6Params."""
    return selective_scan(x[None], (params,))[0][0]


def scan_tensor(x: Tensor, params: S6Params) -> Tensor:
    """`selective_scan` of one (B, L, C) Tensor through one S6Params, as an
    autodiff op whose gradients reach the input and every parameter."""
    tensors = params.tensors()
    y, adjoint = selective_scan(x.data[None], (params,))

    def backward(g):
        gx, (grads,) = adjoint(g[None])
        if x.requires_grad:
            x.accumulate(gx[0])
        for name, t in tensors.items():
            if t.requires_grad:
                t.accumulate(grads[name])

    return Tensor(y[0], parents=(x, *tensors.values()), backward=backward)


def count_params_enumerated(params) -> int:
    """Shape-walking oracle: add up every tensor actually allocated."""
    return sum(t.data.size for _, t in named_parameters(params))


def patch_features(patches: PatchSet) -> np.ndarray:
    """(..., S, k, 6) array: relative xyz concatenated with RGB."""
    return np.concatenate([patches.relative_points, patches.patch_colors], axis=-1)


def tokenize(points: np.ndarray, colors: np.ndarray | None, s_tokens: int,
             k_neighbors: int, params) -> tuple[Tensor, np.ndarray]:
    """One (N, 3) cloud -> its (1, S, C) tokens and (1, S, 3) centers: FPS,
    kNN and the embedding, as a batch of one."""
    points = np.asarray(points)[None]
    colors = None if colors is None else np.asarray(colors)[None]
    patches = knn_group(points, colors, farthest_point_sampling(points, s_tokens), k_neighbors)
    return mini_pointnet_embed(Tensor(patch_features(patches)), params), patches.centers
