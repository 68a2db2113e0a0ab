"""Software z-buffer rendering and depth back-projection.

`rasterize` draws a normalized mesh through a pinhole camera, keeping the
nearest surface per pixel. Depth is the Euclidean distance from the camera
along the pixel's view ray (not the z coordinate), so `backproject` recovers
object-space points as camera + depth * ray without any extra bookkeeping.
Uncovered pixels hold +inf depth, which doubles as the transparent-background
flag. Interpolation is perspective-correct: world positions and colors are
blended with screen barycentrics weighted by 1/z, which places every
back-projected point exactly on a triangle plane (up to float rounding).

`rasterize` works on flat arrays of fragments, a chunk of faces at a time,
and gives bitwise what a loop over the faces in order, testing every pixel of
each face's bounding box, gives:

- Inside test: a fragment is inside when each edge's screen barycentric
  `(row - col) / area` is >= 0, where `row = ex * (gy - ay)` is shared by a
  bounding-box row and `col = ey * (gx - ax)` by a column.
- Row spans: only the columns of each bounding-box row that can pass that
  test become fragments. Along one row `row` is fixed and the computed `col`
  is monotone in gx (a rounded subtraction and product are), so each edge's
  test keeps a half-line of columns: those up to its crossing of the
  scanline, ax + row / ey, when ey * area > 0, and those from it when
  ey * area < 0. An edge parallel to the scanline (ey == 0) gives one answer
  along the whole row and bounds nothing. The computed crossing is within a
  few ulps of its own and ax's magnitude of where the test flips, so the
  span, widened by one pixel plus 2^-40 of those magnitudes on each side,
  holds every fragment the test keeps. The exact test still runs on every
  span fragment, in face, row, column order, so the inside set, the order of
  fragments and everything after are those of the bounding-box loop; the
  spans only skip fragments that would fail. Over the toy corpus at 128x128
  they hold 2.8M fragments of the 8.6M bounding-box pixels.
- Depth test: a pixel takes its nearest fragment, and on an exact tie in
  distance the earlier face wins (a strict `<` against the depth so far).
- Interpolated positions and colors come from one GEMM per face over that
  face's fragment rows, `weights @ corners`, the call the loop made. BLAS
  GEMM fuses multiply-adds, so an einsum or an elementwise sum over all
  fragments at once differs from it in the last bit, and the dataset with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cameras import CameraPose
from .errors import ConfigError, EmptyCloud
from .meshio import TriangleMesh

BACKGROUND_GRAY = 0.5


@dataclass
class DepthImage:
    values: np.ndarray  # (H, W) float64, +inf where no surface

    @property
    def covered(self) -> np.ndarray:
        return np.isfinite(self.values)


@dataclass
class PartialPointCloud:
    points: np.ndarray  # (N, 3)
    colors: np.ndarray  # (N, 3) in [0, 1]

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        self.colors = np.asarray(self.colors, dtype=np.float64).reshape(-1, 3)
        if self.points.shape[0] < 1:
            raise EmptyCloud("point cloud has no points")


# Each chunk's fragment count (the row-span pixels of its faces) stays within
# this many, unless one face alone has more; the chunk size never changes an
# image.
_FRAGMENT_BLOCK_LIMIT = 1 << 16

# Edge k of a face runs from corner _EDGE_FROM[k] to corner _EDGE_TO[k]; its
# edge function over the area is corner k's screen barycentric.
_EDGE_FROM = [1, 2, 0]
_EDGE_TO = [2, 0, 1]

# Edge crossings are clipped to +-_FAR columns, far outside any image, so the
# span arithmetic stays finite.
_FAR = 2.0 ** 60


def _ranks(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each c in counts, concatenated."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def _row_spans(row_term, ey, ax, sign, x0, x1):
    """First column and column count, per bounding-box row (the columns of
    these arrays), of the pixels that can be inside the row's face.

    Each edge (the rows of the (3, rows) arrays) bounds its row's columns on
    one side where it crosses the scanline; an edge parallel to the scanline
    (ey == 0) bounds nothing. `sign` is the sign of the face's area. The
    interval is widened as the module docstring says and clipped to the
    bounding box [x0, x1].
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cross = np.clip(ax + row_term / ey, -_FAR, _FAR)
    pad = 1.0 + 2.0 ** -40 * (np.abs(cross) + np.abs(ax))
    bound = ey * sign
    right = np.where(bound > 0, cross + pad, np.inf).min(axis=0)
    left = np.where(bound < 0, cross - pad, -np.inf).max(axis=0)
    first = np.maximum(np.ceil(left - 0.5), x0)
    last = np.minimum(np.floor(right - 0.5), x1)
    return first.astype(np.int64), np.maximum(last - first + 1, 0).astype(np.int64)


def rasterize(mesh: TriangleMesh, pose: CameraPose) -> tuple[DepthImage, np.ndarray]:
    """Render (DepthImage, (H, W, 3) color image) of the mesh from one pose.

    Vertex colors are interpolated when present; otherwise faces render as a
    constant mid-gray. Background pixels get the gray constant too, but are
    identified by the +inf depth, never by color.
    """
    w, h = pose.resolution
    if w < 1 or h < 1:
        raise ConfigError(f"zero-resolution image {pose.resolution}")

    depth = np.full(h * w, np.inf, dtype=np.float64)
    color = np.full((h * w, 3), BACKGROUND_GRAY, dtype=np.float64)
    earliest = np.empty(h * w, dtype=np.int64)  # per pixel, its first nearest fragment

    pix, zc = pose.project(mesh.vertices)
    if mesh.vertex_colors is not None:
        vcol = mesh.vertex_colors
    else:
        vcol = np.full((mesh.vertices.shape[0], 3), BACKGROUND_GRAY)

    # Faces behind or at the pinhole are dropped (normalized meshes never have
    # any), then degenerate ones and those whose bounding box misses the image.
    faces = mesh.faces[~np.any(zc[mesh.faces] <= 1e-9, axis=1)]
    px, py = pix[faces.T, 0], pix[faces.T, 1]  # (3, F) screen corners
    area = ((px[1] - px[0]) * (py[2] - py[0])
            - (px[2] - px[0]) * (py[1] - py[0]))
    x0 = np.maximum(np.floor(px.min(0) - 0.5), 0)
    x1 = np.minimum(np.ceil(px.max(0) + 0.5), w - 1)
    y0 = np.maximum(np.floor(py.min(0) - 0.5), 0)
    y1 = np.minimum(np.ceil(py.max(0) + 0.5), h - 1)
    keep = ~(np.abs(area) < 1e-12) & (x0 <= x1) & (y0 <= y1)
    faces, px, py, area = faces[keep], px[:, keep], py[:, keep], area[keep]
    x0, y0 = x0[keep].astype(np.int64), y0[keep].astype(np.int64)
    nx = x1[keep].astype(np.int64) - x0 + 1
    ny = y1[keep].astype(np.int64) - y0 + 1
    # Edge functions (bx - ax) * (gy - ay) - (by - ay) * (gx - ax), per edge
    # (rows of these (3, F) arrays): a face's bounding-box rows share the
    # first product and its columns the second.
    ex = px[_EDGE_TO] - px[_EDGE_FROM]
    ey = py[_EDGE_TO] - py[_EDGE_FROM]
    ax, ay = px[_EDGE_FROM], py[_EDGE_FROM]
    zt = zc[faces.T]
    corners, corner_colors = mesh.vertices[faces], vcol[faces]  # (F, 3, 3)

    # Bounding-box rows and columns of every face, face by face, and the span
    # of columns of each row that can hold an inside fragment.
    rf = np.repeat(np.arange(len(faces)), ny)
    iy = y0[rf] + _ranks(ny)
    row_term = ex.take(rf, axis=1) * ((iy + 0.5) - ay.take(rf, axis=1))
    cf = np.repeat(np.arange(len(faces)), nx)
    col_term = ey.take(cf, axis=1) * ((x0[cf] + _ranks(nx) + 0.5) - ax.take(cf, axis=1))
    first, span = _row_spans(row_term, ey.take(rf, axis=1), ax.take(rf, axis=1),
                             np.sign(area)[rf], x0[rf], x0[rf] + nx[rf] - 1)
    # Per row, its first span column's place among the columns, and its pixel.
    row_col = (np.cumsum(nx) - nx - x0)[rf] + first
    row_pixel = iy * w + first
    row_end = np.cumsum(ny)
    ends = np.cumsum(span)[row_end - 1]  # span fragments through each face
    starts = np.concatenate([[0], ends[:-1]])
    splits = [0]
    while splits[-1] < len(faces):
        lo = splits[-1]
        room = starts[lo] + _FRAGMENT_BLOCK_LIMIT
        splits.append(max(lo + 1, int(np.searchsorted(ends, room, side="right"))))
    for lo, hi in zip(splits, splits[1:]):
        # One fragment per span column of each of the chunk's rows (r: its
        # row), face by face, rows then columns.
        rows = np.arange(row_end[lo] - ny[lo], row_end[hi - 1])
        r = np.repeat(rows, span[rows])
        rank = _ranks(span[rows])
        f = rf.take(r)

        # Screen-space barycentrics (3, fragments) from edge functions.
        lam = row_term.take(r, axis=1)
        lam -= col_term.take(row_col.take(r) + rank, axis=1)
        lam /= area.take(f)
        inside = np.flatnonzero(lam.min(axis=0) >= 0.0)
        if not len(inside):
            continue
        lam = lam.take(inside, axis=1)
        f = f.take(inside)
        pixel = row_pixel.take(r.take(inside)) + rank.take(inside)
        # Perspective-correct weights: screen barycentrics over vertex depth,
        # normalized by their sum ((w0 + w1) + w2).
        lam /= zt.take(f, axis=1)
        pw = np.empty((len(f), 3))
        np.divide(lam, (lam[0] + lam[1]) + lam[2], out=pw.T)

        # One GEMM per face over its contiguous fragment rows: exact ray/plane
        # intersection points and colors, bitwise what the face gives alone.
        world = np.empty_like(pw)
        rgb = np.empty_like(pw)
        cuts = (np.flatnonzero(f[1:] != f[:-1]) + 1).tolist()
        for s, e in zip([0] + cuts, cuts + [len(f)]):
            np.matmul(pw[s:e], corners[f[s]], out=world[s:e])
            np.matmul(pw[s:e], corner_colors[f[s]], out=rgb[s:e])
        # np.linalg.norm(world - position, axis=1), bitwise: it sums each
        # row's squares in order ((x + y) + z).
        sq = [np.square(world[:, j] - pose.position[j]) for j in range(3)]
        dist = np.sqrt((sq[0] + sq[1]) + sq[2])

        # Nearest fragment per pixel, the first in face order among equal
        # distances, replaces the depth only when strictly nearer.
        nearest = depth.copy()
        np.fmin.at(nearest, pixel, dist)
        tied = np.flatnonzero(dist == nearest[pixel])
        at = pixel[tied]
        earliest[at] = len(pixel)
        np.minimum.at(earliest, at, tied)
        win = tied[earliest[at] == tied]
        win = win[dist[win] < depth[pixel[win]]]
        depth[pixel[win]] = dist[win]
        color[pixel[win]] = np.clip(rgb.take(win, axis=0), 0.0, 1.0)

    return DepthImage(values=depth.reshape(h, w)), color.reshape(h, w, 3)


def backproject(depth: DepthImage, color: np.ndarray, pose: CameraPose) -> PartialPointCloud:
    """One object-space point per covered pixel: camera + depth * pixel ray."""
    h, w = depth.values.shape
    if color.shape[:2] != (h, w):
        raise ConfigError(
            f"depth {depth.values.shape} and color {color.shape[:2]} resolutions differ"
        )
    mask = depth.covered
    if not np.any(mask):
        raise EmptyCloud("depth image is all background")
    rays = pose.pixel_rays(mask)
    d = depth.values[mask][:, None]
    points = pose.position + d * rays
    return PartialPointCloud(points=points, colors=color[mask].copy())


def sample_points(cloud: PartialPointCloud, n: int = 2048, rng_seed: int = 0) -> PartialPointCloud:
    """Resample to exactly n points, deterministically under rng_seed.

    Uniform without replacement when the cloud is large enough; with
    replacement otherwise.
    """
    if n <= 0:
        raise ConfigError(f"sample size must be positive, got {n}")
    total = cloud.points.shape[0]
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    replace = total < n
    idx = rng.choice(total, size=n, replace=replace)
    return PartialPointCloud(points=cloud.points[idx], colors=cloud.colors[idx])
