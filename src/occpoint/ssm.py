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
copies. The state is (Z, B, N, C), and the kept states and transitions are
(K, Z, B, N, C). So each step reads contiguous slices, every per-step
broadcast runs along the C channels (not
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


# Budget of kept B*K*C*N elements per stream: the training scan runs in
# segments of K steps. The toy scan (2^18) and desk B <= 2 keep all L steps;
# desk B=4, 8 and 16 run segments of 64, 32 and 16 of the 128 steps.
_KEEP_STATES_LIMIT = 1 << 21


def _time_major(*arrays):
    """(Z, B, L, ...) arrays -> C-contiguous (L, Z, B, ...) copies."""
    return [np.ascontiguousarray(np.moveaxis(v, 2, 0)) for v in arrays]


def _batch_major(v):
    """(L, Z, B, ...) -> C-contiguous (Z, B, L, ...)."""
    return np.ascontiguousarray(np.moveaxis(v, 0, 2))


def _scan(x, xt, dt, bt, ct, a, d):
    """Core recurrence on plain arrays, every stream in one loop over L.
    x is (Z, B, L, C); the step inputs come time-major (see `_time_major`):
    xt/dt (L, Z, B, C) for x and delta, bt/ct (L, Z, B, N) for bmat and cmat;
    a: (Z, C, N); d: (Z, C). Returns y (Z, B, L, C) and the adjoint (None
    under `no_grad`), which maps dL/dy to the gradients of (x, delta, bmat,
    cmat, a, d), C-contiguous in the callers' batch-major layouts.

    The steps run in segments of K (see _KEEP_STATES_LIMIT). When K = L the
    forward keeps every state h_t and transition exp(delta_t*A); otherwise it
    keeps each segment's start state, and the adjoint recomputes one segment
    at a time into a K-step buffer with the forward's own step ops (the same
    bits). A forward that keeps no steps runs them in place in one-step buffers.
    """
    length, nz, nb, channels = xt.shape
    shape = (nz, nb, a.shape[-1], channels)  # the state: each broadcast runs along C
    seg = min(length, max(1, _KEEP_STATES_LIMIT // (nb * channels * shape[2])))
    at = np.ascontiguousarray(np.swapaxes(a, 1, 2))  # (Z, N, C)

    def steps(h, start, stop, dxt, hs, abars, yt=None):
        """Steps start..stop-1 from the state h before `start`, into hs[i] and
        abars[i], i = (t - start) % len(hs); with yt, also y_t and finite checks."""
        bx = np.empty(shape)
        for t in range(start, stop):
            i = (t - start) % len(hs)
            abar = np.multiply(dt[t, :, :, None], at[:, None], out=abars[i])
            np.exp(abar, out=abar)
            h = np.multiply(h, abar, out=hs[i])
            h += np.einsum("zbn,zbc->zbnc", bt[t], dxt[t], out=bx)
            if yt is not None:
                np.matmul(ct[t, :, :, None], h, out=yt[t, :, :, None])
                if t % FINITE_CHECK_STRIDE == 0 or t == length - 1:
                    if not np.all(np.isfinite(h)):
                        raise NumericalError(f"non-finite state at step {t}")
        return h

    keep = ad.grad_enabled()
    kept = keep and seg == length
    dxt = dt * xt
    yt = np.empty_like(xt)
    hs, abars = np.empty((2, length if kept else 1, *shape))
    h = np.zeros(shape)  # the state before step 0
    starts = []  # the state before each segment, when the adjoint recomputes
    for start in range(0, length, seg):
        if keep and not kept:
            starts.append(h.copy())
        h = steps(h, start, min(start + seg, length), dxt, hs, abars, yt)
    yt += d[:, None] * xt
    if not keep:
        return _batch_major(yt), None
    kept_steps = (hs, abars) if kept else None

    def adjoint(g):
        (gt,) = _time_major(g)
        dxt = dt * xt
        gd = np.einsum("zblc,zblc->zc", g, x)
        gh_b = np.empty_like(gt[..., None, :])  # B_t . gh_t, summed over N
        gbmat = np.empty_like(bt)
        gcmat = np.empty_like(bt)
        gdelta = np.zeros_like(dt)
        gh = np.zeros(shape)
        ga = np.zeros(shape)  # summed over the batch axis at the end
        scaled = np.empty(shape)
        seg_h, seg_abar = kept_steps or np.empty((2, seg, *shape))
        for start in reversed(range(0, length, seg)):
            stop = min(start + seg, length)
            if not kept:
                steps(starts[start // seg], start, stop, dxt, seg_h, seg_abar)
            gcmat[start:stop] = np.matmul(seg_h[:stop - start], gt[start:stop, ..., None])[..., 0]
            for t in range(stop - 1, start - 1, -1):
                i = t - start
                gh += np.einsum("zbn,zbc->zbnc", ct[t], gt[t], out=scaled)
                np.matmul(bt[t, :, :, None], gh, out=gh_b[t])
                np.matmul(gh, dxt[t, :, :, :, None], out=gbmat[t, :, :, :, None])
                gh *= seg_abar[i]  # now the state gradient of step t - 1
                if t:
                    # h_t = exp(delta*a) h_prev + delta*B*x: the exp factor's share.
                    np.multiply(gh, seg_h[i - 1] if i else starts[start // seg], out=scaled)
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

    return _batch_major(yt), adjoint


def selective_scan(x: np.ndarray, streams):
    """Selective scan of a stream-stacked (Z, B, L, C) array, one S6Params
    per stream: the input-dependent projections, then one recurrence loop
    that serves every stream.

    Returns y (Z, B, L, C) and the adjoint, which maps dL/dy to (dL/dx, one
    {parameter name: gradient} per stream); the adjoint is None under
    `no_grad`, and no state is then kept.
    """
    if x.ndim != 4 or len(streams) != x.shape[0] or any(
            p.channels != x.shape[-1] for p in streams):
        raise InvalidInput(f"selective_scan expects ({len(streams)}, B, L, C) with C = "
                           f"{[p.channels for p in streams]}, got {x.shape}")
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
    y, scan_adjoint = _scan(x, xt, dt, bt, ct, a, d)
    if scan_adjoint is None:
        return y, None

    def adjoint(gy):
        gx, gdelta, gbmat, gcmat, ga, gd = scan_adjoint(gy)
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
