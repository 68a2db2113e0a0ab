"""Triangle meshes: container type, OBJ loading, unit-sphere normalization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .container import write_atomic
from .errors import DegenerateMesh, InvalidMesh


@dataclass
class TriangleMesh:
    """Vertices (V, 3), faces (F, 3) of vertex indices, optional RGB in [0, 1]."""

    vertices: np.ndarray
    faces: np.ndarray
    vertex_colors: np.ndarray | None = None

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.faces = np.asarray(self.faces, dtype=np.int64).reshape(-1, 3)
        if self.vertex_colors is not None:
            self.vertex_colors = np.asarray(self.vertex_colors, dtype=np.float64).reshape(-1, 3)
        self.validate()

    def validate(self) -> None:
        if self.faces.shape[0] < 1:
            raise InvalidMesh("mesh has no faces")
        if self.faces.min() < 0 or self.faces.max() >= self.vertices.shape[0]:
            raise InvalidMesh(
                f"face index out of range: max {self.faces.max()} "
                f"for {self.vertices.shape[0]} vertices"
            )
        a, b, c = self.faces[:, 0], self.faces[:, 1], self.faces[:, 2]
        if np.any((a == b) | (b == c) | (a == c)):
            raise InvalidMesh("degenerate face with repeated vertex index")
        if self.vertex_colors is not None and self.vertex_colors.shape[0] != self.vertices.shape[0]:
            raise InvalidMesh("vertex_colors length does not match vertices")

    @property
    def face_vertices(self) -> np.ndarray:
        """(F, 3, 3) corner positions."""
        return self.vertices[self.faces]


def normalize_mesh(mesh: TriangleMesh) -> TriangleMesh:
    """Center on the bounding-box midpoint and scale the farthest vertex to norm 1.

    Bounding-box center rather than the vertex centroid: robust against
    vertex-density skew in the source model.
    """
    v = mesh.vertices
    center = 0.5 * (v.min(axis=0) + v.max(axis=0))
    shifted = v - center
    radius = np.linalg.norm(shifted, axis=1).max()
    if radius == 0.0:
        raise DegenerateMesh("all vertices coincide; cannot scale to unit sphere")
    return TriangleMesh(
        vertices=shifted / radius,
        faces=mesh.faces.copy(),
        vertex_colors=None if mesh.vertex_colors is None else mesh.vertex_colors.copy(),
    )


def load_obj(path) -> TriangleMesh:
    """Parse the ASCII OBJ subset: v (with optional RGB), f with 1-based indices.

    Polygonal faces are fan-triangulated; vt/vn and other statements are
    ignored. Vertex lines with six numbers carry per-vertex RGB.
    """
    vertices: list[list[float]] = []
    colors: list[list[float]] = []
    faces: list[list[int]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            tag = parts[0]
            if tag == "v":
                nums = [float(p) for p in parts[1:]]
                if len(nums) < 3:
                    raise InvalidMesh(f"{path}:{lineno}: vertex needs 3 coordinates")
                vertices.append(nums[:3])
                if len(nums) >= 6:
                    colors.append(nums[3:6])
            elif tag == "f":
                idx = []
                for tok in parts[1:]:
                    # "i", "i/t", "i//n", "i/t/n" all start with the vertex index.
                    head = tok.split("/")[0]
                    i = int(head)
                    if i < 0:
                        i = len(vertices) + 1 + i
                    idx.append(i - 1)
                if len(idx) < 3:
                    raise InvalidMesh(f"{path}:{lineno}: face needs at least 3 vertices")
                for k in range(1, len(idx) - 1):
                    faces.append([idx[0], idx[k], idx[k + 1]])
    if not vertices or not faces:
        raise InvalidMesh(f"{path}: no usable geometry")
    vertex_colors = None
    if colors and len(colors) == len(vertices):
        vertex_colors = np.clip(np.asarray(colors, dtype=np.float64), 0.0, 1.0)
    return TriangleMesh(
        vertices=np.asarray(vertices, dtype=np.float64),
        faces=np.asarray(faces, dtype=np.int64),
        vertex_colors=vertex_colors,
    )


def save_obj(path, mesh: TriangleMesh) -> None:
    """Write the same OBJ subset load_obj reads (vertex RGB inline when present),
    atomically: a failed write leaves no truncated mesh behind."""
    lines = []
    for i, v in enumerate(mesh.vertices):
        if mesh.vertex_colors is not None:
            c = mesh.vertex_colors[i]
            lines.append(f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g} {c[0]:.6g} {c[1]:.6g} {c[2]:.6g}\n")
        else:
            lines.append(f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}\n")
    lines.extend(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n" for f in mesh.faces)
    write_atomic(path, "".join(lines))
