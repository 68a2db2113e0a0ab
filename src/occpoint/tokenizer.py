"""Point cloud -> token sequence: FPS centers, kNN patches, shared-MLP embedding.

Ordering is fully canonical so the whole encoder is invariant to input point
order: FPS starts from the lexicographically smallest point and breaks
max-distance ties lexicographically, kNN orders points by the key
(squared distance, x, y, z, r, g, b) and falls back to the index only between
identical rows, and the patch embedding max-pools over the k neighbors.

FPS and kNN work on a batch of clouds with equal point counts at once,
(B, N, 3) -> (B, S) centers -> (B, S, k) patches, and give each cloud
bitwise what it gets alone, as a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, InvalidInput, NumericalError, ShapeError

COLOR_CONSTANT = 0.4  # per channel, for a cloud without colors or with its colors dropped
POINTNET_HIDDEN = 64  # the mini-PointNet's hidden width


def _as_batch(points: np.ndarray) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 3 or points.shape[1] < 1 or points.shape[2] != 3:
        raise InvalidInput(f"expected non-empty (B, N, 3) points, got {points.shape}")
    return points


def _squared_distance(pairs, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """sum of (a - b)**2 over the (a, b) coordinate pairs, written to `out` and
    added in order, ((x + y) + z): bitwise ((c - p) ** 2).sum(-1)."""
    for j, (a, b) in enumerate(pairs):
        dst = out if j == 0 else tmp
        np.subtract(a, b, out=dst)
        np.multiply(dst, dst, out=dst)
        if j:
            np.add(out, tmp, out=out)
    return out


def farthest_point_sampling(points: np.ndarray, s: int) -> np.ndarray:
    """Indices of s greedy farthest-point centers per cloud: (B, N, 3) -> (B, s).

    The first center is the lexicographically smallest point; each next center
    maximizes the distance to the chosen set, ties broken lexicographically by
    coordinates. For s > N the emission order repeats cyclically.
    """
    points = _as_batch(points)
    if s < 1:
        raise InvalidInput(f"need at least one center, got s={s}")
    b, n, _ = points.shape

    # Keep each cloud in lexicographic rank order, one contiguous column per
    # axis: argmax then returns the smallest rank among the farthest points,
    # which is the tie-break, and needs no gather per iteration.
    rank = np.lexsort((points[..., 2], points[..., 1], points[..., 0]), axis=-1)
    cols = [np.take_along_axis(points[..., j], rank, axis=1) for j in range(3)]
    rows = np.arange(b)
    base = min(s, n)
    chosen = np.zeros((b, base), dtype=np.int64)   # ranks; rank 0 starts
    dist = np.full((b, n), np.inf)
    d, t = np.empty((b, n)), np.empty((b, n))
    for i in range(base):
        # The square root of it is bitwise np.linalg.norm(axis=-1).
        _squared_distance(((col, col[rows, chosen[:, i], None]) for col in cols), d, t)
        np.sqrt(d, out=d)
        np.minimum(dist, d, out=dist)
        if i + 1 < base:
            chosen[:, i + 1] = np.argmax(dist, axis=1)
    idx = np.take_along_axis(rank, chosen, axis=1)
    if s > n:
        idx = np.tile(idx, (1, -(-s // n)))[:, :s]
    return idx


@dataclass
class PatchSet:
    centers: np.ndarray           # (B, S, 3)
    neighbor_indices: np.ndarray  # (B, S, k)
    relative_points: np.ndarray   # (B, S, k, 3) = neighbor - center
    patch_colors: np.ndarray      # (B, S, k, 3)


def knn_group(points: np.ndarray, colors: np.ndarray,
              center_indices: np.ndarray, k: int) -> PatchSet:
    """The k nearest points around each center: (B, N, 3) points and colors
    with (B, S) center indices.

    Each patch lists its points by the key (squared distance, x, y, z, r, g,
    b), so exact distance ties, the k-th neighbor's included, are broken by
    content and the patch does not depend on point order. The index decides
    only between identical rows, which makes no difference to the patch.
    """
    points = _as_batch(points)
    b, n, _ = points.shape
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if k > n:
        raise ConfigError(f"k={k} exceeds cloud size {n}")
    center_indices = np.asarray(center_indices, dtype=np.int64).reshape(b, -1)
    centers = np.take_along_axis(points, center_indices[..., None], axis=1)
    s = centers.shape[1]

    # One cloud at a time, so that the temporaries stay in cache.
    columns = points.transpose(0, 2, 1).copy()   # (B, 3, N)
    d2, t = np.empty((b, s, n)), np.empty((s, n))
    for i in range(b):
        _squared_distance(((centers[i, :, j, None], columns[i, j]) for j in range(3)),
                          d2[i], t)
    d2 = d2.reshape(b * s, n)
    flat_points = points.reshape(b * n, 3)
    flat_colors = np.asarray(colors, dtype=np.float64).reshape(b * n, 3)
    offset = (np.arange(b * s) // s * n)[:, None]   # each row's cloud in the flat arrays

    def by_key(rows, cand: np.ndarray) -> np.ndarray:
        """Candidate indices (R, m) of the given distance rows, sorted by the key."""
        flat = cand + offset[rows]
        keys = [cand, *(flat_colors[flat, j] for j in (2, 1, 0)),
                *(flat_points[flat, j] for j in (2, 1, 0)),
                np.take_along_axis(d2[rows], cand, axis=1)]
        return np.take_along_axis(cand, np.lexsort(keys, axis=-1), axis=1)

    # Partitioning at k puts the (k+1)-th smallest distance at position k and
    # the k smallest before it.
    part = np.argpartition(d2, min(k, n - 1), axis=1)
    neighbors = by_key(slice(None), part[:, :k])
    if k < n:
        # A row whose (k+1)-th distance equals its k-th has a tie at the
        # boundary: the key then chooses among all points that near.
        edge = np.take_along_axis(d2, neighbors[:, -1:], axis=1)
        tied = np.flatnonzero(np.take_along_axis(d2, part[:, k:k + 1], axis=1) == edge)
        if tied.size:
            m = int(np.count_nonzero(d2[tied] <= edge[tied], axis=1).max())
            wide = np.argpartition(d2[tied], m - 1, axis=1)[:, :m]
            neighbors[tied] = by_key(tied, wide)[:, :k]

    flat = neighbors + offset
    return PatchSet(
        centers=centers,
        neighbor_indices=neighbors.reshape(b, s, k),
        relative_points=flat_points[flat].reshape(b, s, k, 3) - centers[:, :, None, :],
        patch_colors=flat_colors[flat].reshape(b, s, k, 3),
    )


@dataclass
class MiniPointNetParams:
    """Shared per-point MLP 6 -> hidden -> C, max pool over k, affine C -> C."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    w3: Tensor
    b3: Tensor


def init_mini_pointnet(token_dim: int, rng: np.random.Generator,
                       hidden: int = POINTNET_HIDDEN) -> MiniPointNetParams:
    return MiniPointNetParams(
        w1=ad.parameter((6, hidden), rng),
        b1=Tensor(np.zeros(hidden), requires_grad=True),
        w2=ad.parameter((hidden, token_dim), rng),
        b2=Tensor(np.zeros(token_dim), requires_grad=True),
        w3=ad.parameter((token_dim, token_dim), rng),
        b3=Tensor(np.zeros(token_dim), requires_grad=True),
    )


# Elements of one (patches, k, C) slice of the no-grad pointnet_pool.
_POOL_BLOCK_LIMIT = 1 << 17


def pointnet_pool(feats: Tensor, p: MiniPointNetParams) -> Tensor:
    """Per-point affine -> SiLU -> affine -> SiLU, max over the k points, as
    one op: (..., S, k, 6) -> (..., S, C).

    Its hand adjoint routes the pooled gradient through the second SiLU only
    at the argmax rows, the only rows it reaches. Without a gradient to take,
    the MLP runs over slices of _POOL_BLOCK_LIMIT // (k * C) patches, in
    place, each pooled into its rows of the output, so no (..., S, k, C)
    array is ever whole and nothing is kept. The slicing changes only the
    GEMMs' row counts, and the pooled tokens are bitwise those of the
    recorded path (tests/test_tokenizer.py).
    """
    x = feats.data
    w1, b1, w2, b2 = p.w1, p.b1, p.w2, p.b2
    if not ad.needs_grad(feats, w1, b1, w2, b2):
        k, channels = x.shape[-2], w2.shape[1]
        patches = x.reshape(-1, k, x.shape[-1])
        out = np.empty((len(patches), channels))
        step = max(1, _POOL_BLOCK_LIMIT // (k * channels))
        for start in range(0, len(patches), step):
            h = patches[start : start + step] @ w1.data
            h += b1.data
            h = ad.silu_array(h) @ w2.data
            h += b2.data
            ad.silu_array(h).max(axis=-2, out=out[start : start + step])
        return Tensor(out.reshape(x.shape[:-2] + (channels,)))

    h1 = x @ w1.data
    h1 += b1.data
    s1 = ad.sigmoid_array(h1)
    h1 *= s1
    h2 = h1 @ w2.data
    h2 += b2.data
    s2 = ad.sigmoid_array(h2)
    h2 *= s2
    arg = np.expand_dims(h2.argmax(axis=-2), -2)
    top = np.take_along_axis(h2, arg, axis=-2)
    dtop = np.take_along_axis(s2, arg, axis=-2)
    dtop += top * (1.0 - dtop)   # SiLU' = s + silu * (1 - s) at the argmax rows
    shape2 = h2.shape
    del h2, s2

    def backward(g):
        g2 = np.zeros(shape2)
        np.put_along_axis(g2, arg, np.expand_dims(g, -2) * dtop, axis=-2)
        lead = tuple(range(g2.ndim - 1))
        if w2.requires_grad:
            w2.accumulate(ad.weight_grad(h1, g2))
        if b2.requires_grad:
            b2.accumulate(g2.sum(axis=lead))
        g1 = g2 @ w2.data.T
        g1 *= s1 + h1 * (1.0 - s1)
        if w1.requires_grad:
            w1.accumulate(ad.weight_grad(x, g1))
        if b1.requires_grad:
            b1.accumulate(g1.sum(axis=lead))
        if feats.requires_grad:
            feats.accumulate(g1 @ w1.data.T)

    return Tensor(top[..., 0, :], parents=(feats, w1, b1, w2, b2), backward=backward)


def mini_pointnet_embed(feats: Tensor, params: MiniPointNetParams) -> Tensor:
    """Embed patch features (..., S, k, 6) into tokens (..., S, C).

    Per-point shared affine -> SiLU -> affine -> SiLU, max pool over the k
    points, then one affine C -> C. Pooling makes the token invariant to any
    within-patch reordering.
    """
    if feats.shape[-1] != params.w1.shape[0]:
        raise ShapeError(
            f"patch features last dim {feats.shape[-1]} != {params.w1.shape[0]}"
        )
    out = ad.affine(pointnet_pool(feats, params), params.w3, params.b3)
    if not np.all(np.isfinite(out.data)):
        raise NumericalError("non-finite token produced by mini_pointnet_embed")
    return out
