"""Input-dependent state-space recurrence (selective scan) in linear time.

The recurrence per channel c, state n, step t:

    delta_t = softplus(dt_proj(x_t))          (C,)   input-dependent step size
    B_t     = b_proj(x_t)                     (N,)   input-dependent input map
    C_t     = c_proj(x_t)                     (N,)   input-dependent readout
    abar    = exp(delta_t[c] * A[c, n])              zero-order hold
    h_t     = abar * h_{t-1} + delta_t[c] * B_t[n] * x_t[c]
    y_t[c]  = <C_t, h_t[c, :]> + d_skip[c] * x_t[c]

A = -exp(a_log) stays strictly negative, so |abar| < 1 for any delta > 0 and
the recurrence is stable. The simplified zero-order hold uses bbar = delta*B
(the exact form (exp(delta*A)-1)/A * B is kept in the test oracles to measure
the gap). `selective_scan` runs one vectorized python step per time index
(linear time and memory), for one stream or for several stacked on a leading
axis, with a hand adjoint for the recurrence and the projections;
`selective_scan_reference` is the literal loop kept as the correctness oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import InvalidInput, NumericalError

FINITE_CHECK_STRIDE = 16  # steps between non-finite sweeps inside the scan


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


@dataclass
class S6Params:
    """Learnable tensors of one selective-scan module over C channels, N states."""

    a_log: Tensor        # (C, N); A = -exp(a_log)
    b_weight: Tensor     # (C, N)
    b_bias: Tensor       # (N,)
    c_weight: Tensor     # (C, N)
    c_bias: Tensor       # (N,)
    dt_low: Tensor       # (C, R) bottleneck, R = ceil(C / 16)
    dt_up: Tensor        # (R, C)
    dt_bias: Tensor      # (C,)
    d_skip: Tensor       # (C,)

    @property
    def n_state(self) -> int:
        return self.a_log.shape[1]

    @property
    def channels(self) -> int:
        return self.a_log.shape[0]

    def tensors(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


def init_s6(channels: int, n_state: int, rng: np.random.Generator,
            use_d_skip: bool = True) -> S6Params:
    """Initialization: A spread log-uniformly over [-16, -1] per state index,
    softplus bias set so the initial delta lands log-uniformly in [1e-3, 1e-1]."""
    dt_rank = max(1, -(-channels // 16))
    magnitudes = np.exp(np.linspace(np.log(1.0), np.log(16.0), n_state))
    a_log = np.log(np.tile(magnitudes, (channels, 1)))
    dt = np.exp(rng.uniform(np.log(1e-3), np.log(1e-1), size=channels))
    dt_bias = dt + np.log(-np.expm1(-dt))  # inverse softplus
    return S6Params(
        a_log=Tensor(a_log, requires_grad=True),
        b_weight=ad.parameter((channels, n_state), rng),
        b_bias=Tensor(np.zeros(n_state), requires_grad=True),
        c_weight=ad.parameter((channels, n_state), rng),
        c_bias=Tensor(np.zeros(n_state), requires_grad=True),
        dt_low=ad.parameter((channels, dt_rank), rng),
        dt_up=ad.parameter((dt_rank, channels), rng),
        dt_bias=Tensor(dt_bias, requires_grad=True),
        d_skip=Tensor(np.ones(channels) if use_d_skip else np.zeros(channels),
                      requires_grad=True),
    )


# Memory guard for the training path: above this many B*L*C*N elements per
# stream the state trajectory is not cached and the backward pass recomputes it.
_KEEP_STATES_LIMIT = 1 << 24


def _scan_forward(x, delta, bmat, cmat, a, d, check: bool = True,
                  keep_states: bool = False):
    """Core recurrence on plain arrays, every stream in one loop over L.
    x/delta: (Z, B, L, C); bmat/cmat: (Z, B, L, N); a: (Z, C, N); d: (Z, C).
    Returns y (Z, B, L, C), plus (h_all, abar_all) when keep_states is set
    (both None on the memory-light path).

    The inference path evaluates exp(delta*A) one step at a time: memory stays
    flat in L and the wall time scales uniformly with sequence length. The
    training path precomputes and keeps the discretized transition and state
    trajectory because the adjoint needs both.
    """
    nz, nb, length, channels = x.shape
    n = a.shape[-1]
    h = np.zeros((nz, nb, channels, n))
    y = np.empty_like(x)
    dx = delta * x  # (Z, B, L, C)
    keep = keep_states and nb * length * channels * n <= _KEEP_STATES_LIMIT
    abar_all = np.exp(delta[..., None] * a[:, None, None]) if keep else None
    h_all = np.empty((nz, nb, length, channels, n)) if keep else None
    # Preallocated step buffers keep the loop's working set cache-resident,
    # which is what makes the wall time scale uniformly in L.
    abar = np.empty((nz, nb, channels, n))
    bx = np.empty((nz, nb, channels, n))
    for t in range(length):
        if keep:
            abar = abar_all[:, :, t]
        else:
            np.multiply(delta[:, :, t, :, None], a[:, None], out=abar)
            np.exp(abar, out=abar)
        h *= abar
        np.multiply(dx[:, :, t, :, None], bmat[:, :, t, None, :], out=bx)
        h += bx
        if h_all is not None:
            h_all[:, :, t] = h
        y[:, :, t] = np.einsum("zbcn,zbn->zbc", h, cmat[:, :, t])
        y[:, :, t] += d[:, None] * x[:, :, t]
        if check and (t % FINITE_CHECK_STRIDE == 0 or t == length - 1):
            if not np.all(np.isfinite(h)):
                raise NumericalError(f"non-finite state at step {t}")
    return y, h_all, abar_all


def _scan_backward(g, x, delta, bmat, cmat, a, d, h_all=None, abar_all=None):
    """Adjoint of _scan_forward: reverse recurrence over the saved (or
    recomputed) state trajectory. Returns gradients for (x, delta, bmat,
    cmat, a, d)."""
    nz, nb, length, channels = x.shape
    n = a.shape[-1]
    dx = delta * x

    if abar_all is None:
        abar_all = np.exp(delta[..., None] * a[:, None, None])
    if h_all is None:
        h_all = np.empty((nz, nb, length, channels, n))
        h = np.zeros((nz, nb, channels, n))
        for t in range(length):
            h = abar_all[:, :, t] * h + dx[:, :, t, :, None] * bmat[:, :, t, None, :]
            h_all[:, :, t] = h

    gx = g * d[:, None, None]  # d_skip feedthrough term
    gdelta = np.empty_like(delta)
    gbmat = np.empty_like(bmat)
    gcmat = np.einsum("zblcn,zblc->zbln", h_all, g)
    ga = np.zeros_like(a)
    gd = np.einsum("zblc,zblc->zc", g, x)

    gh = np.zeros((nz, nb, channels, n))
    for t in range(length - 1, -1, -1):
        gh += g[:, :, t, :, None] * cmat[:, :, t, None, :]
        abar = abar_all[:, :, t]
        h_prev = h_all[:, :, t - 1] if t > 0 else np.zeros((nz, nb, channels, n))
        scaled = gh * h_prev * abar
        gh_b = np.einsum("zbcn,zbn->zbc", gh, bmat[:, :, t])
        # h_t = exp(delta*a) h_prev + delta*B*x: differentiate each factor.
        gdelta[:, :, t] = np.einsum("zbcn,zcn->zbc", scaled, a) + gh_b * x[:, :, t]
        ga += np.einsum("zbcn,zbc->zcn", scaled, delta[:, :, t])
        gbmat[:, :, t] = np.einsum("zbcn,zbc->zbn", gh, dx[:, :, t])
        gx[:, :, t] += gh_b * delta[:, :, t]
        gh = gh * abar
    return gx, gdelta, gbmat, gcmat, ga, gd


def _scan_streams(x: np.ndarray, streams, keep: bool):
    """Selective scan of a stream-stacked (Z, B, L, C) array, one S6Params
    per stream: the input-dependent projections, then one recurrence loop.

    Returns y and, when keep is set, the adjoint, which maps dL/dy to
    (dL/dx, one {parameter name: gradient} per stream); else None.
    """
    if not np.all(np.isfinite(x)):
        raise NumericalError("non-finite input to selective_scan")
    low = np.stack([x[z] @ p.dt_low.data for z, p in enumerate(streams)])
    pre = np.stack([low[z] @ p.dt_up.data + p.dt_bias.data for z, p in enumerate(streams)])
    delta = np.logaddexp(0.0, pre)
    bmat = np.stack([x[z] @ p.b_weight.data + p.b_bias.data for z, p in enumerate(streams)])
    cmat = np.stack([x[z] @ p.c_weight.data + p.c_bias.data for z, p in enumerate(streams)])
    a = -np.exp(np.stack([p.a_log.data for p in streams]))
    d = np.stack([p.d_skip.data for p in streams])
    y, h_all, abar_all = _scan_forward(x, delta, bmat, cmat, a, d, keep_states=keep)
    if not keep:
        return y, None

    def adjoint(gy):
        gx, gdelta, gbmat, gcmat, ga, gd = _scan_backward(
            gy, x, delta, bmat, cmat, a, d, h_all=h_all, abar_all=abar_all,
        )
        gpre = gdelta * ad.sigmoid_array(pre)  # softplus' = sigmoid
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


def selective_scan(x, params):
    """Run the selective scan over x: (L, C), (B, L, C) array, or Tensor.

    Returns the same container kind it was given (Tensor in, Tensor out, with
    gradients flowing to every parameter; array in, array out).

    Given a sequence of S6Params instead of one, x is a stream-stacked
    (Z, B, L, C) array with one stream per entry, every stream runs in one
    recurrence loop, and the result is (y, adjoint) as `_scan_streams` returns
    it, with the adjoint None under no_grad. The fused block branch of
    `encoder` calls it this way.
    """
    if not isinstance(params, S6Params):
        return _scan_streams(x, params, keep=ad.grad_enabled())
    is_tensor = isinstance(x, Tensor)
    xt = x if is_tensor else Tensor(np.asarray(x, dtype=np.float64))
    squeeze = xt.ndim == 2
    if squeeze:
        xt = ad.reshape(xt, (1,) + xt.shape)
    if xt.ndim != 3 or xt.shape[-1] != params.channels:
        raise InvalidInput(
            f"selective_scan expects (..., L, {params.channels}), got {xt.shape}"
        )
    tensors = params.tensors()
    out_data, adjoint = _scan_streams(xt.data[None], (params,),
                                      keep=ad.needs_grad(xt, *tensors.values()))

    def backward(g):
        gx, (grads,) = adjoint(g[None])
        if xt.requires_grad:
            xt.accumulate(gx[0])
        for name, t in tensors.items():
            if t.requires_grad:
                t.accumulate(grads[name])

    y = Tensor(out_data[0], parents=(xt, *tensors.values()), backward=backward)
    if squeeze:
        y = ad.reshape(y, y.shape[1:])
    return y if is_tensor else y.data


def selective_scan_reference(x: np.ndarray, params: S6Params) -> np.ndarray:
    """Literal per-step, per-channel transcription of the recurrence (oracle).

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
