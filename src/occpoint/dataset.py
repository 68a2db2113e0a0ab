"""Triplet dataset: render 12 views per mesh, back-project, attach fixtures.

Each record pairs one partial point cloud (a single view of one object) with
the object's precomputed image and text feature vectors. The whole dataset
round-trips through the chunked container format bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cameras import camera_ring
from .container import read_container_file, write_container_file
from .errors import ConfigError, InvalidConfig
from .fixtures import class_anchors, object_features
from .meshio import TriangleMesh, normalize_mesh
from .render import backproject, rasterize, sample_points
from .tokenizer import _squared_distance

N_VIEWS = 12
# Surface samples per block of visible_fraction's distance search: a
# (32, 2048) float64 block is 512 KiB. The block size never changes a result.
_VISIBLE_BLOCK_ROWS = 32


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


def visible_fraction(mesh: TriangleMesh, cloud_points: np.ndarray,
                     camera_position: np.ndarray, samples: int = 512,
                     seed: int = 0, resolution: int = 128) -> float:
    """Fraction of the camera-side half of the surface covered by the cloud.

    Surface samples are drawn uniformly by area; a sample counts as covered
    when some back-projected point lies within a few pixel footprints of it.
    The denominator is the half of the surface on the camera side of the
    plane through the object center, so a sphere scores ~0.5 (the visible cap
    is half of the near hemisphere from radius-2 viewing distance).
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    fv = mesh.face_vertices
    areas = 0.5 * np.linalg.norm(
        np.cross(fv[:, 1] - fv[:, 0], fv[:, 2] - fv[:, 0]), axis=1
    )
    probs = areas / areas.sum()
    faces = rng.choice(len(areas), size=samples, p=probs)
    u, v = rng.random(samples), rng.random(samples)
    flip = u + v > 1
    u[flip], v[flip] = 1 - u[flip], 1 - v[flip]
    tri = fv[faces]
    surf = tri[:, 0] + u[:, None] * (tri[:, 1] - tri[:, 0]) + v[:, None] * (tri[:, 2] - tri[:, 0])

    center = 0.5 * (mesh.vertices.min(0) + mesh.vertices.max(0))
    toward = camera_position - center
    toward = toward / np.linalg.norm(toward)
    near = (surf - center) @ toward > 0
    if not np.any(near):
        return 0.0
    tol = 12.0 / resolution  # ~3 pixel footprints at the working distance
    covered = _nearest_squared_distance(surf[near], cloud_points) < tol * tol
    return float(covered.mean())


def _nearest_squared_distance(samples: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Per sample, the least ((sample - point) ** 2).sum(-1) over the points,
    bitwise, computed _VISIBLE_BLOCK_ROWS samples at a time."""
    cols = np.ascontiguousarray(np.asarray(points, dtype=np.float64).T)
    nearest = np.empty(len(samples))
    d2 = np.empty((min(_VISIBLE_BLOCK_ROWS, len(samples)), cols.shape[1]))
    tmp = np.empty_like(d2)
    for s in range(0, len(samples), _VISIBLE_BLOCK_ROWS):
        block = samples[s : s + _VISIBLE_BLOCK_ROWS]
        m = len(block)
        _squared_distance(((block[:, j, None], cols[j]) for j in range(3)), d2[:m], tmp[:m])
        nearest[s : s + m] = d2[:m].min(axis=1)
    return nearest


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
                                                  resolution=resolution))
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
