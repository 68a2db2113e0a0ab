"""Space-filling-curve serialization of quantized 3D coordinates.

Point tokens are unordered; sorting them along a Hilbert or Morton (Z-order)
curve turns a cloud into a 1D sequence in which spatially close cells stay
adjacent. The "trans" variants apply the base curve to cyclically permuted
axes (x, y, z) -> (y, z, x), giving a second, complementary ordering.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import InvalidInput

DEFAULT_BITS = 10


class CurveKind(enum.Enum):
    HILBERT = "hilbert"
    TRANS_HILBERT = "trans-hilbert"
    MORTON = "morton"
    TRANS_MORTON = "trans-morton"
    FPS_ORDER = "fps"

    @classmethod
    def from_string(cls, name: str) -> "CurveKind":
        for kind in cls:
            if kind.value == name:
                return kind
        raise InvalidInput(f"unknown curve kind {name!r}; expected one of "
                           f"{[k.value for k in cls]}")


def quantize(points: np.ndarray, bits: int = DEFAULT_BITS) -> np.ndarray:
    """Map real coordinates in [-1, 1] to integer grid cells in [0, 2^bits - 1].

    Affine per axis, round-half-up, clamped at the range ends.
    """
    if not 1 <= bits <= 16:
        raise InvalidInput(f"bits must be in [1, 16], got {bits}")
    points = np.asarray(points, dtype=np.float64)
    if not np.all(np.isfinite(points)):
        raise InvalidInput("non-finite coordinate in quantize input")
    top = (1 << bits) - 1
    scaled = (points + 1.0) * 0.5 * top
    cells = np.floor(scaled + 0.5).astype(np.int64)
    return np.clip(cells, 0, top).astype(np.uint64)


def _check_coords(coords: np.ndarray, bits: int) -> tuple[np.ndarray, bool]:
    coords = np.asarray(coords, dtype=np.uint64)
    single = coords.ndim == 1
    if single:
        coords = coords[None, :]
    if coords.shape[-1] != 3:
        raise InvalidInput(f"expected (..., 3) coordinates, got shape {coords.shape}")
    if np.any(coords >> np.uint64(bits)):
        raise InvalidInput(f"coordinate overflows {bits}-bit grid")
    return coords, single


def morton_index(coords: np.ndarray, bits: int) -> np.ndarray:
    """Interleave axis bits, x least significant: code bit 3i = x_i, 3i+1 = y_i, 3i+2 = z_i."""
    coords, single = _check_coords(coords, bits)
    x, y, z = coords[..., 0], coords[..., 1], coords[..., 2]
    code = np.zeros(x.shape, dtype=np.uint64)
    for i in range(bits):
        bit = np.uint64(i)
        code |= ((x >> bit) & np.uint64(1)) << np.uint64(3 * i)
        code |= ((y >> bit) & np.uint64(1)) << np.uint64(3 * i + 1)
        code |= ((z >> bit) & np.uint64(1)) << np.uint64(3 * i + 2)
    return code[0] if single else code


def hilbert_index(coords: np.ndarray, bits: int) -> np.ndarray:
    """3D Hilbert curve position of each grid cell (Skilling's transpose method).

    Bijective on the grid; consecutive codes always sit in face-adjacent cells,
    which is the locality property the serialization relies on.
    """
    coords, single = _check_coords(coords, bits)
    # Work on a copy in transpose form: X[i] holds one axis.
    x = coords[..., 0].copy()
    y = coords[..., 1].copy()
    z = coords[..., 2].copy()
    axes = [x, y, z]
    n = 3

    # Inverse undo of the excess Gray-code work, from the top bit down.
    q = np.uint64(1) << np.uint64(bits - 1)
    one = np.uint64(1)
    while q > one:
        p = np.uint64(q - one)
        for i in range(n):
            hi = (axes[i] & q).astype(bool)
            axes[0] ^= np.where(hi, p, np.uint64(0))
            t = np.where(hi, np.uint64(0), (axes[0] ^ axes[i]) & p)
            axes[0] ^= t
            axes[i] ^= t
        q >>= one

    # Gray encode.
    for i in range(1, n):
        axes[i] ^= axes[i - 1]
    t = np.zeros_like(axes[0])
    q = np.uint64(1) << np.uint64(bits - 1)
    while q > one:
        t ^= np.where((axes[n - 1] & q).astype(bool), np.uint64(q - one), np.uint64(0))
        q >>= one
    for i in range(n):
        axes[i] ^= t

    # Collect the transpose form into a single integer, axis 0 most significant
    # within each 3-bit group, bit `bits-1` group first.
    code = np.zeros_like(axes[0])
    for b in range(bits - 1, -1, -1):
        for i in range(n):
            code = (code << one) | ((axes[i] >> np.uint64(b)) & one)
    return code[0] if single else code


def _trans(coords: np.ndarray) -> np.ndarray:
    # Cyclic axis shift (x, y, z) -> (y, z, x).
    return np.stack([coords[..., 1], coords[..., 2], coords[..., 0]], axis=-1)


def curve_codes(points: np.ndarray, kind: CurveKind, bits: int = DEFAULT_BITS) -> np.ndarray:
    """Curve code per point of (M, 3); FPS order maps every point to its own
    index, which sorts any row of consecutive points into identity order."""
    if kind is CurveKind.FPS_ORDER:
        return np.arange(np.asarray(points).shape[0], dtype=np.uint64)
    cells = quantize(points, bits)
    if kind is CurveKind.HILBERT:
        return hilbert_index(cells, bits)
    if kind is CurveKind.TRANS_HILBERT:
        return hilbert_index(_trans(cells), bits)
    if kind is CurveKind.MORTON:
        return morton_index(cells, bits)
    if kind is CurveKind.TRANS_MORTON:
        return morton_index(_trans(cells), bits)
    raise InvalidInput(f"unhandled curve kind {kind}")


def sort_by_curve(points: np.ndarray, kind: CurveKind, bits: int = DEFAULT_BITS) -> np.ndarray:
    """Stable ascending-code sort order for S points (ties keep original index
    order): (S, 3) -> (S,), or per cloud, (B, S, 3) -> (B, S), with one
    `curve_codes` pass over the whole batch. ``points[order]`` is sorted."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim not in (2, 3) or points.shape[-2] < 1 or points.shape[-1] != 3:
        raise InvalidInput(f"expected non-empty (S, 3) or (B, S, 3) points, "
                           f"got shape {points.shape}")
    codes = curve_codes(points.reshape(-1, 3), kind, bits).reshape(points.shape[:-1])
    return np.argsort(codes, axis=-1, kind="stable")
