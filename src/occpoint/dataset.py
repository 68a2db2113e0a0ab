"""Triplet dataset: render 12 views per mesh, back-project, attach fixtures.

Each record pairs one partial point cloud (a single view of one object) with
the object's precomputed image and text feature vectors. The whole dataset
round-trips through the chunked container format bit-exactly. `gen`'s
visibility summary (`visible_fraction`) finds the covered surface samples
with an exact grid search (`_covered`) that gives bitwise the booleans of
the full sample-by-point search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cameras import camera_ring
from .container import read_container_file, write_container_file
from .errors import ConfigError, InvalidConfig
from .fixtures import class_anchors, object_features
from .meshio import TriangleMesh, normalize_mesh
from .render import _ranks, backproject, rasterize, sample_points
from .tokenizer import _squared_distance

N_VIEWS = 12
# At most this many cells per axis in visible_fraction's coverage search, so
# cell keys stay small on any cloud; the cell size never changes a result.
_GRID_CELLS = 1024


@dataclass
class TripletRecord:
    object_id: str
    label: int
    view_id: int
    points: np.ndarray          # (P, 3)
    colors: np.ndarray          # (P, 3)
    image_feature: np.ndarray   # (D,)
    text_features: np.ndarray   # (T, D)

    def __post_init__(self):
        dims = {self.image_feature.shape[-1], self.text_features.shape[-1]}
        if len(dims) != 1:
            raise InvalidConfig(f"feature dims disagree: {dims}")
        if self.text_features.ndim != 2 or self.text_features.shape[0] < 1:
            raise InvalidConfig("need at least one text feature per record")


@dataclass
class TripletDataset:
    records: list[TripletRecord]
    class_names: list[str]
    class_features: np.ndarray  # (K, D)
    meta: dict

    @property
    def feature_dim(self) -> int:
        return self.class_features.shape[1]

    def split_views(self, holdout_views: int) -> tuple["TripletDataset", "TripletDataset"]:
        """Deterministic view split: the last `holdout_views` view ids per
        object become the evaluation set."""
        cut = N_VIEWS - holdout_views
        train = [r for r in self.records if r.view_id < cut]
        heldout = [r for r in self.records if r.view_id >= cut]
        return (
            TripletDataset(train, self.class_names, self.class_features, self.meta),
            TripletDataset(heldout, self.class_names, self.class_features, self.meta),
        )


@dataclass
class GenSummary:
    objects: int
    views: int
    points_per_cloud: int
    mean_visible_fraction: float


class Surface(NamedTuple):
    """What `visible_fraction` needs of a mesh, whatever the view."""

    face_vertices: np.ndarray  # (F, 3, 3)
    probs: np.ndarray          # (F,) face areas over their sum
    center: np.ndarray         # (3,) bounding-box centre


def mesh_surface(mesh: TriangleMesh) -> Surface:
    """The mesh's corners, area-proportional face probabilities and centre."""
    fv = mesh.face_vertices
    areas = 0.5 * np.linalg.norm(
        np.cross(fv[:, 1] - fv[:, 0], fv[:, 2] - fv[:, 0]), axis=1
    )
    center = 0.5 * (mesh.vertices.min(0) + mesh.vertices.max(0))
    return Surface(fv, areas / areas.sum(), center)


def visible_fraction(mesh: TriangleMesh, cloud_points: np.ndarray,
                     camera_position: np.ndarray, samples: int = 512,
                     seed: int = 0, resolution: int = 128,
                     surface: Surface | None = None) -> float:
    """Fraction of the camera-side half of the surface covered by the cloud.

    Surface samples are drawn uniformly by area; a sample counts as covered
    when some back-projected point lies within a few pixel footprints of it.
    The denominator is the half of the surface on the camera side of the
    plane through the object center, so a sphere scores ~0.5 (the visible cap
    is half of the near hemisphere from radius-2 viewing distance).
    `surface` is `mesh_surface(mesh)`, computed here when not given;
    `generate_triplets` computes it once per mesh for all of its views.
    """
    fv, probs, center = mesh_surface(mesh) if surface is None else surface
    rng = np.random.Generator(np.random.PCG64(seed))
    faces = rng.choice(len(probs), size=samples, p=probs)
    u, v = rng.random(samples), rng.random(samples)
    flip = u + v > 1
    u[flip], v[flip] = 1 - u[flip], 1 - v[flip]
    tri = fv[faces]
    surf = tri[:, 0] + u[:, None] * (tri[:, 1] - tri[:, 0]) + v[:, None] * (tri[:, 2] - tri[:, 0])

    toward = camera_position - center
    toward = toward / np.linalg.norm(toward)
    near = (surf - center) @ toward > 0
    if not np.any(near):
        return 0.0
    tol = 12.0 / resolution  # ~3 pixel footprints at the working distance
    return float(_covered(surf[near], cloud_points, tol).mean())


def _covered(samples: np.ndarray, points: np.ndarray, tol: float) -> np.ndarray:
    """Per sample, whether some point has ((sample - point) ** 2).sum(-1) <
    tol * tol, bitwise what that full search gives.

    The points are bucketed into cubic cells of side h > tol, sorted by a
    linear cell key with z fastest, and each sample is compared with the
    points of its 3x3x3 neighbouring cells only: 9 contiguous key ranges,
    found by `searchsorted`. The pairs that survive are computed with
    `tokenizer._squared_distance`, the same sum ((x + y) + z) the full
    search makes, from 1-D column gathers. Over the toy corpus at 128x128
    that is about 21K pairs per view instead of 257 x 2048.

    Exactness: a point two or more cells away from a sample on some axis is
    more than tol away on that axis. Rounding is monotone, so its computed
    |dx| is at least tol and dx * dx at least fl(tol * tol); adding the other
    two non-negative terms cannot bring the sum below that, so the point
    could never pass the test. The cell of a coordinate is
    floor((x - low) / h) in floats, so the cell boundaries near the cloud lie
    within a few ulps of low + k * h, relative to |low| and k * h; the side's
    margin over tol (2^-20 of tol, plus 2^-44 of the coordinates' magnitude
    over tol) is many times that. A sample's cell is clipped to one cell
    around the points' cells, which only moves it toward every point's cell,
    so no point it excludes was nearer than two cells.
    """
    low, high = points.min(axis=0), points.max(axis=0)
    scale = float(np.maximum(-low, high).max())  # the largest |coordinate|
    side = max(tol, float((high - low).max()) / _GRID_CELLS)
    side *= 1.0 + 2.0 ** -20 + 2.0 ** -44 * (scale + 2.0 * side) / tol
    # Point cells run 2 .. n + 1 per axis, sample cells 1 .. n + 2, so every
    # neighbour cell lies in 0 .. n + 3 and the key never wraps a row.
    n = np.floor((high - low) / side) + 1.0
    dims = n.astype(np.int64) + 4
    cells = np.floor((points - low) / side).astype(np.int64) + 2
    keys = (cells[:, 0] * dims[1] + cells[:, 1]) * dims[2] + cells[:, 2]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    cols = np.ascontiguousarray(points[order].T)

    # Each sample's 9 neighbouring (x, y) cell columns, and in each the key
    # range of z cells z - 1 .. z + 1.
    at = np.clip(np.floor((samples - low) / side), -1.0, n).astype(np.int64) + 2
    step = np.array([-1, 0, 1])
    column = ((at[:, 0, None, None] + step[:, None]) * dims[1]
              + (at[:, 1, None, None] + step)).reshape(len(samples), 9)
    key = column * dims[2] + at[:, 2, None]
    start = np.searchsorted(keys, key - 1).ravel()
    count = np.searchsorted(keys, key + 2).ravel() - start

    per_sample = count.reshape(-1, 9).sum(axis=1)
    pair_point = np.repeat(start, count) + _ranks(count)
    d2 = np.empty(len(pair_point))
    _squared_distance(((np.repeat(a, per_sample), b.take(pair_point))
                       for a, b in zip(samples.T, cols)), d2, np.empty_like(d2))
    close = np.repeat(np.arange(len(samples)), per_sample)[d2 < tol * tol]
    covered = np.zeros(len(samples), dtype=bool)
    covered[close] = True
    return covered


def generate_triplets(meshes: list[tuple[str, str, TriangleMesh]],
                      feature_dim: int = 64, resolution: int = 128,
                      n_points: int = 2048, seed: int = 7,
                      object_noise: float | None = None,
                      with_summary: bool = False):
    """Build a TripletDataset from (object_id, class_name, mesh) entries.

    Renders the 12 preset views, back-projects and resamples each cloud to
    n_points, and attaches per-object fixture features derived from seeded
    class anchors.
    """
    class_names = sorted({cls for _, cls, _ in meshes})
    name_to_label = {c: i for i, c in enumerate(class_names)}
    anchors = class_anchors(len(class_names), feature_dim, seed)
    labels = [name_to_label[cls] for _, cls, _ in meshes]
    if object_noise is None:
        image_feats, text_feats = object_features(anchors, labels, seed)
    else:
        image_feats, text_feats = object_features(anchors, labels, seed,
                                                  noise=object_noise)

    poses = camera_ring((resolution, resolution))
    records = []
    fractions = []
    for mi, (object_id, _, mesh) in enumerate(meshes):
        mesh = normalize_mesh(mesh)
        surface = mesh_surface(mesh)
        for pose in poses:
            depth, color = rasterize(mesh, pose)
            cloud = backproject(depth, color, pose)
            cloud = sample_points(cloud, n_points,
                                  rng_seed=(seed * 100_003 + mi * 101 + pose.view_id))
            records.append(TripletRecord(
                object_id=object_id,
                label=labels[mi],
                view_id=pose.view_id,
                points=cloud.points,
                colors=cloud.colors,
                image_feature=image_feats[mi],
                text_features=text_feats[mi],
            ))
            if with_summary:
                fractions.append(visible_fraction(mesh, cloud.points, pose.position,
                                                  seed=seed + pose.view_id,
                                                  resolution=resolution,
                                                  surface=surface))
    dataset = TripletDataset(
        records=records,
        class_names=class_names,
        class_features=anchors,
        meta={"seed": seed, "resolution": resolution, "n_points": n_points,
              "feature_dim": feature_dim},
    )
    if with_summary:
        summary = GenSummary(
            objects=len(meshes),
            views=N_VIEWS,
            points_per_cloud=n_points,
            mean_visible_fraction=float(np.mean(fractions)),
        )
        return dataset, summary
    return dataset


def save_dataset(path, dataset: TripletDataset) -> None:
    entries: dict[str, np.ndarray] = {"class_features": dataset.class_features.astype(np.float32)}
    meta = dict(dataset.meta)
    meta["class_names"] = dataset.class_names
    index = []
    for i, r in enumerate(dataset.records):
        key = f"rec{i:05d}"
        entries[f"{key}/points"] = r.points.astype(np.float32)
        entries[f"{key}/colors"] = r.colors.astype(np.float32)
        entries[f"{key}/image_feature"] = r.image_feature.astype(np.float32)
        entries[f"{key}/text_features"] = r.text_features.astype(np.float32)
        index.append({"object_id": r.object_id, "label": r.label, "view_id": r.view_id})
    meta["records"] = index
    write_container_file(path, entries, meta)


def load_dataset(path) -> TripletDataset:
    entries, meta = read_container_file(path)
    try:
        records = []
        for i, info in enumerate(meta["records"]):
            key = f"rec{i:05d}"
            records.append(TripletRecord(
                object_id=info["object_id"],
                label=int(info["label"]),
                view_id=int(info["view_id"]),
                points=entries[f"{key}/points"].astype(np.float64),
                colors=entries[f"{key}/colors"].astype(np.float64),
                image_feature=entries[f"{key}/image_feature"].astype(np.float64),
                text_features=entries[f"{key}/text_features"].astype(np.float64),
            ))
        class_names = list(meta["class_names"])
        class_features = entries["class_features"].astype(np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"dataset {path}: missing or malformed entry {exc}") from exc
    return TripletDataset(
        records=records,
        class_names=class_names,
        class_features=class_features,
        meta={k: v for k, v in meta.items() if k not in ("records", "class_names")},
    )
