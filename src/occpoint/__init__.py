"""Occlusion-aware point cloud pretraining with a two-stream selective
state-space encoder.

Pipeline: render synthetic meshes from a 12-camera ring, back-project depth
into partial point clouds, tokenize (FPS + kNN + shared MLP), encode with
Hilbert/Trans-Hilbert-ordered selective scans, and align the embeddings with
frozen text/image feature fixtures through a four-term contrastive objective.
"""

__version__ = "0.1.0"

from .cameras import CameraPose, camera_ring
from .curves import CurveKind, hilbert_index, morton_index, sort_by_curve
from .encoder import EncoderConfig, desk_config, full_scale_config, toy_config
from .errors import OccPointError
from .meshio import TriangleMesh, load_obj, normalize_mesh
from .render import PartialPointCloud, backproject, rasterize, sample_points
from .ssm import S6Params, selective_scan
from .training import TrainConfig

__all__ = [
    "CameraPose",
    "camera_ring",
    "CurveKind",
    "hilbert_index",
    "morton_index",
    "sort_by_curve",
    "EncoderConfig",
    "desk_config",
    "full_scale_config",
    "toy_config",
    "OccPointError",
    "TriangleMesh",
    "load_obj",
    "normalize_mesh",
    "PartialPointCloud",
    "backproject",
    "rasterize",
    "sample_points",
    "S6Params",
    "selective_scan",
    "TrainConfig",
    "__version__",
]
