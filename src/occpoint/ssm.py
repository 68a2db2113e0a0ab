"""Input-dependent state-space recurrence (selective scan) in linear time.

The recurrence per channel c, state n, step t:

    delta_t = log(1 + exp(dt_proj(x_t)))      (C,)   input-dependent step size
    B_t     = b_proj(x_t)                     (N,)   input-dependent input map
    C_t     = c_proj(x_t)                     (N,)   input-dependent readout
    abar    = exp(delta_t[c] * A[c, n])              zero-order hold
    h_t     = abar * h_{t-1} + delta_t[c] * B_t[n] * x_t[c]
    y_t[c]  = <C_t, h_t[c, :]> + d_skip[c] * x_t[c]

A = -exp(a_log) stays strictly negative, so |abar| < 1 for any delta > 0 and
the recurrence is stable. The simplified zero-order hold uses bbar = delta*B
(the test oracles keep the exact form (exp(delta*A)-1)/A * B to measure the
gap, and a literal per-channel loop of the recurrence). `selective_scan` runs
one vectorized python step per time index (linear time and memory) for
several streams stacked on a leading axis, with a hand adjoint for the
recurrence and the projections.

Layout: the recurrence runs state-major and time-major. The step inputs are
copied once per call to (L, Z, B, .) order, and the adjoint reuses those
copies. The state is (Z, B, N, C), and the kept trajectory and transitions
are (L, Z, B, N, C). So each step reads
contiguous slices, every per-step broadcast runs along the C channels (not
along the N states, which are only 8 or 16), and the sums over N (the
readout and the adjoint's B_t . gh) are batched matmuls of a (1, N) row by
the (N, C) state. y and every gradient come back C-contiguous in the
callers' (Z, B, L, .) and (Z, C, N) layouts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import InvalidInput, NumericalError

FINITE_CHECK_STRIDE = 16  # steps between non-finite sweeps inside the scan


@dataclass
class S6Params:
    """Learnable tensors of one selective-scan module over C channels, N states."""

    a_log: Tensor        # (C, N); A = -exp(a_log)
    b_weight: Tensor     # (C, N)
    b_bias: Tensor       # (N,)
    c_weight: Tensor     # (C, N)
    c_bias: Tensor       # (N,)
    dt_low: Tensor       # (C, R) bottleneck, R = dt_rank(C)
    dt_up: Tensor        # (R, C)
    dt_bias: Tensor      # (C,)
    d_skip: Tensor       # (C,)

    @property
    def n_state(self) -> int:
        return self.a_log.shape[1]

    @property
    def channels(self) -> int:
        return self.a_log.shape[0]


def dt_rank(channels: int) -> int:
    """Rank of the step-size bottleneck over C channels: ceil(C / 16), at least 1."""
    return max(1, -(-channels // 16))


def init_s6(channels: int, n_state: int, rng: np.random.Generator) -> S6Params:
    """Initialization: A spread log-uniformly over [-16, -1] per state index,
    step bias set so the initial delta lands log-uniformly in [1e-3, 1e-1]."""
    rank = dt_rank(channels)
    magnitudes = np.exp(np.linspace(np.log(1.0), np.log(16.0), n_state))
    a_log = np.log(np.tile(magnitudes, (channels, 1)))
    dt = np.exp(rng.uniform(np.log(1e-3), np.log(1e-1), size=channels))
    dt_bias = dt + np.log(-np.expm1(-dt))  # inverse of log(1 + exp(x))
    return S6Params(
        a_log=Tensor(a_log, requires_grad=True),
        b_weight=ad.parameter((channels, n_state), rng),
        b_bias=Tensor(np.zeros(n_state), requires_grad=True),
        c_weight=ad.parameter((channels, n_state), rng),
        c_bias=Tensor(np.zeros(n_state), requires_grad=True),
        dt_low=ad.parameter((channels, rank), rng),
        dt_up=ad.parameter((rank, channels), rng),
        dt_bias=Tensor(dt_bias, requires_grad=True),
        d_skip=Tensor(np.ones(channels), requires_grad=True),
    )


# Memory guard for the training path: above this many B*L*C*N elements per
# stream the state trajectory is not cached and the backward pass recomputes it.
# Keeping is faster at every size measured (5-15 % of a whole desk train step,
# one BLAS thread), but what it adds grows with the batch: 0.33 GB at desk B=2
# (2^21), 0.65 GB at B=4 and 1.3 GB at B=8, where it doubles the step's peak.
# The toy scan is 2^18.
_KEEP_STATES_LIMIT = 1 << 21


def _time_major(*arrays):
    """(Z, B, L, ...) arrays -> C-contiguous (L, Z, B, ...) copies."""
    return [np.ascontiguousarray(np.moveaxis(v, 2, 0)) for v in arrays]


def _batch_major(v):
    """(L, Z, B, ...) -> C-contiguous (Z, B, L, ...)."""
    return np.ascontiguousarray(np.moveaxis(v, 0, 2))


def _scan_forward(xt, dt, bt, ct, a, d, keep_states: bool = False):
    """Core recurrence on plain arrays, every stream in one loop over L.
    The step inputs come time-major (see `_time_major`): xt/dt (L, Z, B, C)
    for x and delta, bt/ct (L, Z, B, N) for bmat and cmat; a: (Z, C, N);
    d: (Z, C). Returns y (Z, B, L, C), plus the state trajectory h_all and
    the transitions abar_all, both (L, Z, B, N, C), when keep_states is set
    (both None otherwise).

    The state is (Z, B, N, C), so every step's operands are contiguous and
    each broadcast runs along C. Without keep_states, exp(delta*A) is
    evaluated one step at a time into preallocated buffers: memory stays
    flat in L and the working set stays cache-resident. Both paths run the same operations per step, so their
    outputs are bitwise equal.
    """
    length, nz, nb, channels = xt.shape
    dxt = dt * xt
    at = np.ascontiguousarray(np.swapaxes(a, 1, 2))[:, None]  # (Z, 1, N, C)
    yt = np.empty_like(xt)
    shape = (nz, nb, a.shape[-1], channels)
    h = np.zeros(shape)  # the state before step 0
    bx = np.empty(shape)
    if keep_states:
        abar_all = np.empty((length, *shape))
        h_all = np.empty_like(abar_all)
    else:
        abar_all = h_all = None
        abar = np.empty(shape)
    for t in range(length):
        if keep_states:
            abar = abar_all[t]
        np.multiply(dt[t, :, :, None], at, out=abar)
        np.exp(abar, out=abar)
        h = np.multiply(h, abar, out=h if h_all is None else h_all[t])
        h += np.einsum("zbn,zbc->zbnc", bt[t], dxt[t], out=bx)
        np.matmul(ct[t, :, :, None], h, out=yt[t, :, :, None])
        if t % FINITE_CHECK_STRIDE == 0 or t == length - 1:
            if not np.all(np.isfinite(h)):
                raise NumericalError(f"non-finite state at step {t}")
    yt += d[:, None] * xt
    return _batch_major(yt), h_all, abar_all


def _scan_backward(g, x, xt, dt, bt, ct, a, d, h_all=None, abar_all=None):
    """Adjoint of _scan_forward: reverse recurrence over the saved (or
    recomputed) state trajectory. g and x are (Z, B, L, C); xt, dt, bt and
    ct are the forward's time-major inputs, reused as they are. Returns
    gradients for (x, delta, bmat, cmat, a, d), each C-contiguous in the
    batch-major layout of the forward's callers."""
    if h_all is None:
        _, h_all, abar_all = _scan_forward(xt, dt, bt, ct, a, d, keep_states=True)
    length = xt.shape[0]
    (gt,) = _time_major(g)
    dxt = dt * xt
    at = np.ascontiguousarray(np.swapaxes(a, 1, 2))  # (Z, N, C)
    gcmat = np.matmul(h_all, gt[..., None])[..., 0]
    gd = np.einsum("zblc,zblc->zc", g, x)

    gh_b = np.empty_like(gt[..., None, :])  # B_t . gh_t, summed over N
    gbmat = np.empty_like(bt)
    gdelta = np.zeros_like(dt)
    gh = np.zeros_like(h_all[0])
    ga = np.zeros_like(gh)  # summed over the batch axis at the end
    scaled = np.empty_like(gh)
    for t in range(length - 1, -1, -1):
        gh += np.einsum("zbn,zbc->zbnc", ct[t], gt[t], out=scaled)
        np.matmul(bt[t, :, :, None], gh, out=gh_b[t])
        np.matmul(gh, dxt[t, :, :, :, None], out=gbmat[t, :, :, :, None])
        gh *= abar_all[t]  # now the state gradient of step t - 1
        if t:
            # h_t = exp(delta*a) h_prev + delta*B*x: the exp factor's share.
            np.multiply(gh, h_all[t - 1], out=scaled)
            np.einsum("zbnc,znc->zbc", scaled, at, out=gdelta[t])
            scaled *= dt[t, :, :, None]
            ga += scaled
    gh_b = gh_b[..., 0, :]
    gxt = gt * d[:, None]  # d_skip feedthrough term
    gxt += gh_b * dt
    gdelta += gh_b * xt
    ga = np.ascontiguousarray(np.swapaxes(ga.sum(axis=1), 1, 2))
    return (_batch_major(gxt), _batch_major(gdelta), _batch_major(gbmat),
            _batch_major(gcmat), ga, gd)


def selective_scan(x: np.ndarray, streams):
    """Selective scan of a stream-stacked (Z, B, L, C) array, one S6Params
    per stream: the input-dependent projections, then one recurrence loop
    that serves every stream.

    Returns y (Z, B, L, C) and the adjoint, which maps dL/dy to (dL/dx, one
    {parameter name: gradient} per stream); the adjoint is None under
    `no_grad`, and the state trajectory is then not kept. Above
    _KEEP_STATES_LIMIT it is not kept either, and the adjoint recomputes it.
    """
    if x.ndim != 4 or len(streams) != x.shape[0] or any(
            p.channels != x.shape[-1] for p in streams):
        raise InvalidInput(f"selective_scan expects ({len(streams)}, B, L, C) with C = "
                           f"{[p.channels for p in streams]}, got {x.shape}")
    keep = ad.grad_enabled()
    _, nb, length, channels = x.shape
    keep_states = keep and nb * length * channels * streams[0].n_state <= _KEEP_STATES_LIMIT
    if not np.all(np.isfinite(x)):
        raise NumericalError("non-finite input to selective_scan")
    low = np.stack([x[z] @ p.dt_low.data for z, p in enumerate(streams)])
    pre = np.stack([low[z] @ p.dt_up.data + p.dt_bias.data for z, p in enumerate(streams)])
    delta = np.logaddexp(0.0, pre)
    bmat = np.stack([x[z] @ p.b_weight.data + p.b_bias.data for z, p in enumerate(streams)])
    cmat = np.stack([x[z] @ p.c_weight.data + p.c_bias.data for z, p in enumerate(streams)])
    a = -np.exp(np.stack([p.a_log.data for p in streams]))
    d = np.stack([p.d_skip.data for p in streams])
    # The adjoint reads delta, bmat and cmat only time-major, so the closure
    # keeps those copies alone; x it needs in both layouts.
    xt, dt, bt, ct = _time_major(x, delta, bmat, cmat)
    del delta, bmat, cmat
    y, h_all, abar_all = _scan_forward(xt, dt, bt, ct, a, d, keep_states=keep_states)
    if not keep:
        return y, None

    def adjoint(gy):
        gx, gdelta, gbmat, gcmat, ga, gd = _scan_backward(
            gy, x, xt, dt, bt, ct, a, d, h_all=h_all, abar_all=abar_all,
        )
        gpre = gdelta * ad.sigmoid_array(pre)  # d/dx log(1 + exp(x)) = sigmoid(x)
        grads = []
        for z, p in enumerate(streams):
            glow = gpre[z] @ p.dt_up.data.T
            # The input's four paths, summed in the order of the composed graph.
            gx[z] = (((gx[z] + glow @ p.dt_low.data.T) + gbmat[z] @ p.b_weight.data.T)
                     + gcmat[z] @ p.c_weight.data.T)
            grads.append({
                "a_log": ga[z] * a[z],  # a = -exp(a_log) is its own derivative
                "b_weight": ad.weight_grad(x[z], gbmat[z]),
                "b_bias": gbmat[z].sum(axis=(0, 1)),
                "c_weight": ad.weight_grad(x[z], gcmat[z]),
                "c_bias": gcmat[z].sum(axis=(0, 1)),
                "dt_low": ad.weight_grad(x[z], glow),
                "dt_up": ad.weight_grad(low[z], gpre[z]),
                "dt_bias": gpre[z].sum(axis=(0, 1)),
                "d_skip": gd[z],
            })
        return gx, grads

    return y, adjoint
