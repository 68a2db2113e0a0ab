"""Synthetic stand-ins for frozen text/image encoder outputs.

Class anchors are orthonormal directions (QR of a seeded Gaussian); each
object's text and image features are its class anchor plus seeded noise,
renormalized. The noise scale keeps same-class objects separable at the
temperature floor while leaving the class structure dominant, which isolates
the point cloud tower as the quantity under test.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

OBJECT_NOISE = 0.15
CAPTION_NOISE = 0.03
TEXT_VARIANTS = 2


def class_anchors(n_classes: int, dim: int, seed: int) -> np.ndarray:
    """(K, dim) orthonormal rows."""
    if n_classes > dim:
        raise ConfigError(f"need dim >= n_classes for orthonormal anchors, "
                            f"got {n_classes} > {dim}")
    rng = np.random.Generator(np.random.PCG64([seed, 0xA17C]))
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q[:, :n_classes].T.copy()


def _noisy(anchor: np.ndarray, rng: np.random.Generator, scale: float) -> np.ndarray:
    v = anchor + scale * rng.normal(size=anchor.shape)
    return v / np.linalg.norm(v)


def object_features(anchors: np.ndarray, labels: list[int], seed: int,
                    noise: float = OBJECT_NOISE) -> tuple[np.ndarray, np.ndarray]:
    """Per-object (image_feature, text_features) fixtures.

    The image feature and a text center are independent noisy copies of the
    class anchor; the text variants are small perturbations of the center
    (captions of one object agree with each other far more than captions of
    different objects do). Returns image (M, D) and text
    (M, TEXT_VARIANTS, D); all rows unit-norm.
    """
    dim = anchors.shape[1]
    image = np.empty((len(labels), dim))
    text = np.empty((len(labels), TEXT_VARIANTS, dim))
    for i, lab in enumerate(labels):
        rng = np.random.Generator(np.random.PCG64([seed, 0xFEA7, i]))
        image[i] = _noisy(anchors[lab], rng, noise)
        center = _noisy(anchors[lab], rng, noise)
        for v in range(TEXT_VARIANTS):
            text[i, v] = _noisy(center, rng, CAPTION_NOISE)
    return image, text
