"""Correctness oracles written apart from occpoint.

They share no code with the program: the OBJ text is parsed here, the mesh
is normalized here, the camera ring is rebuilt from its documented geometry,
and visibility is decided by an exact ray-triangle intersection instead of a
z-buffer.
"""

from __future__ import annotations

import math

import numpy as np

CAMERA_RADIUS = 2.0
# (elevation, azimuth offset) of the three rings of four cameras, in view-id order.
RINGS = ((0.0, 0.0), (45.0, 45.0), (-45.0, 45.0))


def read_obj(path) -> tuple[np.ndarray, np.ndarray]:
    """Vertices (V, 3) and fan-triangulated faces (F, 3) of an ASCII OBJ file."""
    verts, faces = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                verts.append([float(p) for p in parts[1:4]])
            elif parts[0] == "f":
                idx = [int(p.split("/")[0]) - 1 for p in parts[1:]]
                faces += [[idx[0], idx[i], idx[i + 1]] for i in range(1, len(idx) - 1)]
    return np.array(verts), np.array(faces)


def unit_sphere(verts: np.ndarray) -> np.ndarray:
    """Bounding-box center at the origin, farthest vertex at distance 1."""
    shifted = verts - 0.5 * (verts.min(0) + verts.max(0))
    return shifted / np.linalg.norm(shifted, axis=1).max()


def camera_position(view_id: int) -> np.ndarray:
    elevation, offset = RINGS[view_id // 4]
    el = math.radians(elevation)
    az = math.radians(offset + 90.0 * (view_id % 4))
    return CAMERA_RADIUS * np.array(
        [math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el)]
    )


def first_hit(origin: np.ndarray, dirs: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Distance along each unit ray (M, 3) to the nearest triangle (F, 3, 3) it
    crosses (Moller-Trumbore, edges inclusive), +inf where it misses."""
    v0, e1, e2 = tris[:, 0], tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]
    pvec = np.cross(dirs[:, None, :], e2[None])             # (M, F, 3)
    det = np.einsum("fk,mfk->mf", e1, pvec)
    ok = np.abs(det) > 1e-14
    inv = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
    tvec = origin - v0                                      # (F, 3)
    u = np.einsum("fk,mfk->mf", tvec, pvec) * inv
    qvec = np.cross(tvec, e1)                               # (F, 3)
    v = np.einsum("mk,fk->mf", dirs, qvec) * inv
    t = np.einsum("fk,fk->f", e2, qvec)[None, :] * inv
    eps = 1e-9
    hit = ok & (u >= -eps) & (v >= -eps) & (u + v <= 1.0 + eps) & (t > 1e-9)
    return np.where(hit, t, np.inf).min(axis=1)


def visible_surface_error(points: np.ndarray, view_id: int, tris: np.ndarray) -> float:
    """Largest gap between each point's distance from the camera and the first
    surface hit along the ray from the camera through it. Zero (to rounding)
    means every point lies on the mesh and nothing occludes it."""
    cam = camera_position(view_id)
    offset = points - cam
    dist = np.linalg.norm(offset, axis=1)
    hits = first_hit(cam, offset / dist[:, None], tris)
    return float(np.max(np.abs(hits - dist)))


def knn_boundary_ties(points: np.ndarray, centers: np.ndarray, k: int) -> int:
    """Number of centers whose k nearest points are not unique: the k-th and
    (k+1)-th nearest points lie at exactly the same squared distance and do
    not coincide, so which of them joins the patch depends on a tie-break."""
    points = np.asarray(points, dtype=np.float64)
    ties = 0
    for center in np.asarray(centers, dtype=np.float64):
        d2 = ((points - center) ** 2).sum(-1)
        edge = np.partition(d2, k - 1)[k - 1]
        inside, on_edge = int(np.sum(d2 < edge)), d2 == edge
        if inside + int(on_edge.sum()) > k and len(np.unique(points[on_edge], axis=0)) > 1:
            ties += 1
    return ties
