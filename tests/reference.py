"""Test-only oracles and helpers: the literal scan recurrence, the
discretization formulas, a parameter count by enumeration, the model drawn
whole and then copied into its parameter store, the per-tensor AdamW and EMA
updates, one-cloud adapters of the batched geometry, and a container writer
that builds the file from per-tensor blobs, each written independently of the
batched, flat or one-copy code it checks.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import fields

import numpy as np

from occpoint.autodiff import Tensor
from occpoint.container import _DTYPES, MAGIC, VERSION, _pad_to, dtype_name
from occpoint.contrastive import init_alignment_heads
from occpoint.curves import sort_by_curve
from occpoint.encoder import init_encoder, named_parameters
from occpoint.errors import InvalidInput, NumericalError
from occpoint import training
from occpoint.ssm import S6Params, selective_scan
from occpoint.tokenizer import (
    COLOR_CONSTANT,
    PatchSet,
    farthest_point_sampling,
    knn_group,
    mini_pointnet_embed,
)


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
    tensors = vars(params)
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


def cloud_colors(points: np.ndarray, colors: np.ndarray | None) -> np.ndarray:
    """`colors`, or COLOR_CONSTANT in every channel for a cloud without them."""
    return np.full(np.shape(points), COLOR_CONSTANT) if colors is None else colors


def fps_one(points: np.ndarray, s: int) -> np.ndarray:
    """`farthest_point_sampling` of one (N, 3) cloud: (s,) indices."""
    return farthest_point_sampling(np.asarray(points)[None], s)[0]


def knn_one(points: np.ndarray, colors: np.ndarray | None, center_indices,
            k: int) -> PatchSet:
    """`knn_group` of one (N, 3) cloud around (S,) centers, unbatched; a cloud
    without colors gets COLOR_CONSTANT ones."""
    points = np.asarray(points)
    patches = knn_group(points[None], cloud_colors(points, colors)[None],
                        np.asarray(center_indices)[None], k)
    return PatchSet(*(getattr(patches, f.name)[0] for f in fields(PatchSet)))


def sort_one(points: np.ndarray, kind, bits: int) -> np.ndarray:
    """`sort_by_curve` of one (S, 3) cloud: its (S,) sort order."""
    return sort_by_curve(np.asarray(points)[None], kind, bits)[0]


def tokenize(points: np.ndarray, colors: np.ndarray | None, s_tokens: int,
             k_neighbors: int, params) -> tuple[Tensor, np.ndarray]:
    """One (N, 3) cloud -> its (1, S, C) tokens and (1, S, 3) centers: FPS,
    kNN and the embedding, as a batch of one."""
    points = np.asarray(points)[None]
    colors = np.asarray(cloud_colors(points[0], colors))[None]
    patches = knn_group(points, colors, farthest_point_sampling(points, s_tokens), k_neighbors)
    return mini_pointnet_embed(Tensor(patch_features(patches)), params), patches.centers


def lay_out(params: dict[str, Tensor]) -> training.FlatViews:
    """A parameter store made after the fact: the parameters copied, in
    order, into one new float64 vector, with each tensor's `.data` rebound to
    its view of it."""
    weights = training.FlatViews(np.empty(sum(t.data.size for t in params.values())),
                                 ((k, t.data.shape) for k, t in params.items()))
    for name, t in params.items():
        weights[name][...] = t.data
        t.data = weights[name]
    return weights


def init_store_reference(encoder_config, train_config) -> training.FlatViews:
    """The parameter store of `training.init_model` made the long way: every
    tensor of the model drawn first, then the whole tree copied by `lay_out`."""
    rng = np.random.Generator(np.random.PCG64([train_config.seed, 0x10D3]))
    tree = {"encoder": init_encoder(encoder_config, rng),
            "heads": init_alignment_heads(encoder_config.embed_dim, rng)}
    return lay_out(dict(named_parameters(tree)))


def adamw_step_reference(params: dict[str, Tensor], m: dict[str, np.ndarray],
                         v: dict[str, np.ndarray], step: int, lr: float) -> None:
    """The per-tensor AdamW update, in place; `step` counts this update."""
    b1, b2, eps = training.ADAM_BETA1, training.ADAM_BETA2, training.ADAM_EPS
    bc1 = 1.0 - b1 ** step
    bc2 = 1.0 - b2 ** step
    for name, t in params.items():
        g = t.grad if t.grad is not None else np.zeros_like(t.data)
        m[name] *= b1
        m[name] += (1.0 - b1) * g
        v[name] *= b2
        v[name] += (1.0 - b2) * g * g
        update = (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)
        t.data -= lr * update + lr * training.WEIGHT_DECAY * t.data


def ema_update_reference(shadow: dict[str, np.ndarray], params: dict[str, Tensor],
                         decay: float) -> None:
    """The per-tensor EMA update shadow <- decay*shadow + (1-decay)*param."""
    for name, t in params.items():
        shadow[name] *= decay
        shadow[name] += (1.0 - decay) * t.data


def write_container_reference(entries: dict[str, np.ndarray], meta: dict | None = None) -> bytes:
    """Version-1 container bytes built blob by blob: each array's `tobytes()`,
    a payload buffer with the zero pads, then preamble, header and payload."""
    specs = []
    blobs = []
    for name, arr in entries.items():
        arr = np.asarray(arr)
        if arr.ndim > 0:
            arr = np.ascontiguousarray(arr)  # 0-d arrays would be promoted to 1-d
        dname = dtype_name(arr)
        blobs.append(arr.astype(_DTYPES[dname], copy=False).tobytes())
        specs.append({"name": name, "dtype": dname, "shape": list(arr.shape)})

    def build_header(offsets, crc):
        doc = dict(meta or {})
        doc["tensors"] = [
            {**spec, "offset": off} for spec, off in zip(specs, offsets)
        ]
        doc["crc32"] = crc
        return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")

    fake = build_header([2**63] * len(specs), 2**32 - 1)
    payload_start = 16 + len(fake)
    payload_start += _pad_to(payload_start)

    offsets = []
    pos = payload_start
    payload = bytearray()
    for blob in blobs:
        pad = _pad_to(pos)
        payload += b"\x00" * pad
        pos += pad
        offsets.append(pos)
        payload += blob
        pos += len(blob)

    crc = zlib.crc32(payload) & 0xFFFFFFFF
    header = build_header(offsets, crc)
    header += b" " * (payload_start - 16 - len(header))

    out = bytearray()
    out += MAGIC
    out += np.uint32(VERSION).tobytes()
    out += np.uint64(len(header)).tobytes()
    out += header
    out += payload
    return bytes(out)
