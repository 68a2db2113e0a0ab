"""Virtual camera ring, pinhole projection, and per-pixel view rays.

Twelve cameras sit on a sphere of radius 2 around the normalized object: four
at +45 degrees elevation, four on the equator, four at -45 degrees, with the
upper and lower rings rotated 45 degrees in azimuth relative to the equator
ring to spread the sampled directions. A 60-degree vertical FOV makes the
unit sphere exactly fill the frame vertically from distance 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfig

CAMERA_RADIUS = 2.0
VERTICAL_FOV = math.radians(60.0)
WORLD_UP = np.array([0.0, 0.0, 1.0])


@dataclass
class CameraPose:
    position: np.ndarray
    vertical_fov: float = VERTICAL_FOV
    resolution: tuple[int, int] = (128, 128)
    view_id: int = 0
    # Orthonormal look-at basis, derived in __post_init__.
    forward: np.ndarray = field(init=False)
    right: np.ndarray = field(init=False)
    up: np.ndarray = field(init=False)

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=np.float64)
        w, h = self.resolution
        if w < 1 or h < 1:
            raise InvalidConfig(f"resolution must be positive, got {self.resolution}")
        f = -self.position
        f = f / np.linalg.norm(f)
        r = np.cross(f, WORLD_UP)
        rn = np.linalg.norm(r)
        if rn < 1e-12:
            # Looking straight along the world up axis; pick a fixed fallback.
            r = np.array([1.0, 0.0, 0.0])
            rn = 1.0
        self.forward = f
        self.right = r / rn
        self.up = np.cross(self.right, f)

    @property
    def tan_half_fov(self) -> tuple[float, float]:
        w, h = self.resolution
        ty = math.tan(self.vertical_fov / 2.0)
        tx = ty * (w / h)
        return tx, ty

    def project(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """World points (N, 3) -> pixel coordinates (N, 2) and forward depth (N,).

        Pixel x grows rightward, y downward; (0, 0) is the top-left pixel
        corner, so pixel centers sit at half-integer coordinates.
        """
        d = np.asarray(points, dtype=np.float64) - self.position
        xc = d @ self.right
        yc = d @ self.up
        zc = d @ self.forward
        tx, ty = self.tan_half_fov
        w, h = self.resolution
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = xc / (zc * tx)
            yn = yc / (zc * ty)
        px = (xn + 1.0) * 0.5 * w
        py = (1.0 - yn) * 0.5 * h
        return np.stack([px, py], axis=-1), zc

    def pixel_rays(self, mask: np.ndarray | None = None) -> np.ndarray:
        """(H, W, 3) unit direction of the ray through each pixel center, or
        (M, 3) for the M pixels set in an (H, W) mask, in row-major order: the
        same operations per pixel, so bitwise pixel_rays()[mask]."""
        w, h = self.resolution
        tx, ty = self.tan_half_fov
        xs = ((np.arange(w) + 0.5) / w * 2.0 - 1.0) * tx
        ys = (1.0 - (np.arange(h) + 0.5) / h * 2.0) * ty
        if mask is None:
            xn, yn = np.meshgrid(xs, ys)
        else:
            rows, cols = np.nonzero(mask)
            xn, yn = xs[cols], ys[rows]
        dirs = (
            xn[..., None] * self.right
            + yn[..., None] * self.up
            + self.forward
        )
        return dirs / np.linalg.norm(dirs, axis=-1, keepdims=True)


def camera_ring(resolution: tuple[int, int] = (128, 128)) -> list[CameraPose]:
    """The 12 preset poses: rings at elevations +45/0/-45 degrees, radius 2.

    Equator azimuths are 0/90/180/270 degrees; the upper and lower rings are
    offset by 45 degrees. Pose 0 is the equator camera at (2, 0, 0).
    """
    poses = []
    view_id = 0
    for elevation, offset in ((0.0, 0.0), (45.0, 45.0), (-45.0, 45.0)):
        el = math.radians(elevation)
        for k in range(4):
            az = math.radians(offset + 90.0 * k)
            position = CAMERA_RADIUS * np.array(
                [math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el)]
            )
            poses.append(CameraPose(position=position, resolution=resolution, view_id=view_id))
            view_id += 1
    return poses
