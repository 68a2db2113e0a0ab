"""Software z-buffer rendering and depth back-projection.

`rasterize` draws a normalized mesh through a pinhole camera, keeping the
nearest surface per pixel. Depth is the Euclidean distance from the camera
along the pixel's view ray (not the z coordinate), so `backproject` recovers
object-space points as camera + depth * ray without any extra bookkeeping.
Uncovered pixels hold +inf depth, which doubles as the transparent-background
flag. Interpolation is perspective-correct: world positions and colors are
blended with screen barycentrics weighted by 1/z, which places every
back-projected point exactly on a triangle plane (up to float rounding).

`rasterize` works on flat arrays of fragments (one per pixel of each face's
bounding box), a chunk of faces at a time, and gives bitwise what a loop over
the faces in order gives:

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
from .errors import EmptyCloud, InvalidConfig
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
    colors: np.ndarray | None = None  # (N, 3) in [0, 1]
    view_id: int = 0

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if self.colors is not None:
            self.colors = np.asarray(self.colors, dtype=np.float64).reshape(-1, 3)
        if self.points.shape[0] < 1:
            raise EmptyCloud("point cloud has no points")


# Each chunk's fragment count (bounding-box pixels of its faces) stays within
# this many, unless one face alone has more; the chunk size never changes an
# image.
_FRAGMENT_BLOCK_LIMIT = 1 << 16

# Edge k of a face runs from corner _EDGE_FROM[k] to corner _EDGE_TO[k]; its
# edge function over the area is corner k's screen barycentric.
_EDGE_FROM = [1, 2, 0]
_EDGE_TO = [2, 0, 1]


def _ranks(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each c in counts, concatenated."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def rasterize(mesh: TriangleMesh, pose: CameraPose) -> tuple[DepthImage, np.ndarray]:
    """Render (DepthImage, (H, W, 3) color image) of the mesh from one pose.

    Vertex colors are interpolated when present; otherwise faces render as a
    constant mid-gray. Background pixels get the gray constant too, but are
    identified by the +inf depth, never by color.
    """
    w, h = pose.resolution
    if w < 1 or h < 1:
        raise InvalidConfig(f"zero-resolution image {pose.resolution}")

    depth = np.full(h * w, np.inf, dtype=np.float64)
    color = np.full((h * w, 3), BACKGROUND_GRAY, dtype=np.float64)

    pix, zc = pose.project(mesh.vertices)
    if mesh.vertex_colors is not None:
        vcol = mesh.vertex_colors
    else:
        vcol = np.full((mesh.vertices.shape[0], 3), BACKGROUND_GRAY)

    # Faces behind or at the pinhole are dropped (normalized meshes never have
    # any), then degenerate ones and those whose bounding box misses the image.
    faces = mesh.faces[~np.any(zc[mesh.faces] <= 1e-9, axis=1)]
    px, py = pix[faces, 0], pix[faces, 1]  # (F, 3) screen corners
    area = ((px[:, 1] - px[:, 0]) * (py[:, 2] - py[:, 0])
            - (px[:, 2] - px[:, 0]) * (py[:, 1] - py[:, 0]))
    x0 = np.maximum(np.floor(px.min(1) - 0.5), 0)
    x1 = np.minimum(np.ceil(px.max(1) + 0.5), w - 1)
    y0 = np.maximum(np.floor(py.min(1) - 0.5), 0)
    y1 = np.minimum(np.ceil(py.max(1) + 0.5), h - 1)
    keep = ~(np.abs(area) < 1e-12) & (x0 <= x1) & (y0 <= y1)
    faces, px, py, area = faces[keep], px[keep], py[keep], area[keep]
    x0, y0 = x0[keep].astype(np.int64), y0[keep].astype(np.int64)
    nx = x1[keep].astype(np.int64) - x0 + 1
    ny = y1[keep].astype(np.int64) - y0 + 1
    # Edge functions (bx - ax) * (gy - ay) - (by - ay) * (gx - ax), per edge
    # (rows of these (3, F) arrays): a face's bounding-box rows share the
    # first product and its columns the second.
    ex = (px[:, _EDGE_TO] - px[:, _EDGE_FROM]).T
    ey = (py[:, _EDGE_TO] - py[:, _EDGE_FROM]).T
    ax, ay = px[:, _EDGE_FROM].T, py[:, _EDGE_FROM].T
    zt = zc[faces].T
    corners, corner_colors = mesh.vertices[faces], vcol[faces]  # (F, 3, 3)

    ends = np.cumsum(nx * ny)
    splits = [0]
    while splits[-1] < len(faces):
        lo = splits[-1]
        room = ends[lo] - nx[lo] * ny[lo] + _FRAGMENT_BLOCK_LIMIT
        splits.append(max(lo + 1, int(np.searchsorted(ends, room, side="right"))))
    for lo, hi in zip(splits, splits[1:]):
        # Bounding-box rows and columns of the chunk's faces, then one
        # fragment per bounding-box pixel, face by face, rows then columns.
        rf = np.repeat(np.arange(lo, hi), ny[lo:hi])
        cf = np.repeat(np.arange(lo, hi), nx[lo:hi])
        iy = y0[rf] + _ranks(ny[lo:hi])
        ix = x0[cf] + _ranks(nx[lo:hi])
        row_term = ex[:, rf] * ((iy + 0.5) - ay[:, rf])
        col_term = ey[:, cf] * ((ix + 0.5) - ax[:, cf])
        span = nx[rf]
        first_col = np.cumsum(nx[lo:hi]) - nx[lo:hi]
        at_col = np.repeat(first_col[rf - lo], span) + _ranks(span)

        # Screen-space barycentrics (3, fragments) from edge functions.
        lam = np.repeat(row_term, span, axis=1) - col_term[:, at_col]
        lam /= np.repeat(area[lo:hi], nx[lo:hi] * ny[lo:hi])
        inside = lam.min(axis=0) >= 0.0
        if not np.any(inside):
            continue
        lam = lam[:, inside]
        f = np.repeat(rf, span)[inside]
        pixel = (np.repeat(iy * w, span) + ix[at_col])[inside]
        # Perspective-correct weights: screen barycentrics over vertex depth,
        # normalized by their sum ((w0 + w1) + w2).
        pw = lam / zt[:, f]
        pw = np.ascontiguousarray((pw / ((pw[0] + pw[1]) + pw[2])).T)

        # One GEMM per face over its contiguous fragment rows: exact ray/plane
        # intersection points and colors, bitwise what the face gives alone.
        world = np.empty_like(pw)
        rgb = np.empty_like(pw)
        cuts = (np.flatnonzero(f[1:] != f[:-1]) + 1).tolist()
        for s, e in zip([0] + cuts, cuts + [len(f)]):
            np.matmul(pw[s:e], corners[f[s]], out=world[s:e])
            np.matmul(pw[s:e], corner_colors[f[s]], out=rgb[s:e])
        dist = np.linalg.norm(world - pose.position, axis=1)

        # Nearest fragment per pixel, the first in face order among equal
        # distances, replaces the depth only when strictly nearer.
        nearest = depth.copy()
        np.fmin.at(nearest, pixel, dist)
        tied = np.flatnonzero(dist == nearest[pixel])
        win = tied[np.unique(pixel[tied], return_index=True)[1]]
        win = win[dist[win] < depth[pixel[win]]]
        depth[pixel[win]] = dist[win]
        color[pixel[win]] = np.clip(rgb[win], 0.0, 1.0)

    return DepthImage(values=depth.reshape(h, w)), color.reshape(h, w, 3)


def backproject(depth: DepthImage, color: np.ndarray, pose: CameraPose) -> PartialPointCloud:
    """One object-space point per covered pixel: camera + depth * pixel ray."""
    h, w = depth.values.shape
    if color.shape[:2] != (h, w):
        raise InvalidConfig(
            f"depth {depth.values.shape} and color {color.shape[:2]} resolutions differ"
        )
    mask = depth.covered
    if not np.any(mask):
        raise EmptyCloud("depth image is all background")
    rays = pose.pixel_rays(mask)
    d = depth.values[mask][:, None]
    points = pose.position + d * rays
    return PartialPointCloud(points=points, colors=color[mask].copy(), view_id=pose.view_id)


def sample_points(cloud: PartialPointCloud, n: int = 2048, rng_seed: int = 0) -> PartialPointCloud:
    """Resample to exactly n points, deterministically under rng_seed.

    Uniform without replacement when the cloud is large enough; with
    replacement otherwise.
    """
    if n <= 0:
        raise InvalidConfig(f"sample size must be positive, got {n}")
    total = cloud.points.shape[0]
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    replace = total < n
    idx = rng.choice(total, size=n, replace=replace)
    return PartialPointCloud(
        points=cloud.points[idx],
        colors=None if cloud.colors is None else cloud.colors[idx],
        view_id=cloud.view_id,
    )
