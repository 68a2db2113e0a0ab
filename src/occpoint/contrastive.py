"""Cross-modal contrastive objective over text/image/point/mixed embeddings.

Frozen text and image encoders are represented by precomputed feature
vectors; learnable projection heads map those features (and the concatenated
point+image pair) into the shared space. All embeddings are L2-normalized
rows, so the similarity is cosine and the temperature is meaningful.

For a batch of matched rows, the symmetric loss between modalities a and b is

    loss = -1/2 * (l_ab + l_ba)
    l_ab = sum_i log softmax_j(za_i . zb_j / tau)[i]

computed with log-sum-exp stabilization. The printed form sums over the
batch; training uses the mean-reduced variant (sum / B) for step-size
stability. The total objective adds four pairs: point<->image, point<->text,
image<->text, mixed<->text, sharing one temperature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import InvalidInput, NumericalError, ShapeError

TAU_MIN = 5e-3
TAU_MAX = 1.0
TAU_INIT = 0.07


@dataclass
class ProjectionHead:
    """Affine map into the shared embedding space (rows L2-normalized after)."""

    weight: Tensor  # (D_in, D_out)
    bias: Tensor    # (D_out,)


def init_head(d_in: int, d_out: int, rng: np.random.Generator) -> ProjectionHead:
    """A square head starts near the identity, a D_in -> D_out one at random."""
    if d_in == d_out:
        w = np.eye(d_in) + rng.normal(0.0, 0.01, size=(d_in, d_out))
    else:
        w = rng.normal(0.0, d_in ** -0.5, size=(d_in, d_out))
    return ProjectionHead(
        weight=Tensor(w, requires_grad=True),
        bias=Tensor(np.zeros(d_out), requires_grad=True),
    )


@dataclass
class TemperatureParam:
    log_tau: Tensor  # scalar; tau = exp(log_tau) clamped to [TAU_MIN, TAU_MAX]

    def value(self) -> Tensor:
        return ad.clip(ad.exp(self.log_tau), TAU_MIN, TAU_MAX)


def init_temperature(tau: float = TAU_INIT) -> TemperatureParam:
    return TemperatureParam(log_tau=Tensor(np.log(tau), requires_grad=True))


@dataclass
class AlignmentHeads:
    """The three learnable heads plus the shared temperature."""

    text: ProjectionHead
    image: ProjectionHead
    mixed: ProjectionHead
    temperature: TemperatureParam


def init_alignment_heads(embed_dim: int, rng: np.random.Generator) -> AlignmentHeads:
    return AlignmentHeads(
        text=init_head(embed_dim, embed_dim, rng),
        image=init_head(embed_dim, embed_dim, rng),
        mixed=init_head(2 * embed_dim, embed_dim, rng),
        temperature=init_temperature(),
    )


def project(head: ProjectionHead, feats: Tensor) -> Tensor:
    """Affine map of (B, D_in) features, then `normalize_rows`: the rows must
    come out nonzero."""
    if feats.ndim != 2:
        raise ShapeError(f"project expects (B, D_in), got {feats.shape}")
    if feats.shape[1] != head.weight.shape[0]:
        raise ShapeError(
            f"project: features dim {feats.shape[1]} != head input {head.weight.shape[0]}"
        )
    return normalize_rows(ad.affine(feats, head.weight, head.bias))


def normalize_rows(feats: Tensor) -> Tensor:
    norms = np.linalg.norm(feats.data, axis=-1)
    if np.any(norms < 1e-12):
        raise NumericalError("zero-norm row; cannot normalize")
    return ad.l2_normalize_rows(feats)


def _transpose(x: Tensor) -> Tensor:
    out_data = x.data.T

    def backward(g):
        x.accumulate(g.T)

    return Tensor(out_data, parents=(x,), backward=backward)


def _directional(za: Tensor, zb: Tensor, tau: Tensor) -> Tensor:
    """sum_i [ sim_ii/tau - logsumexp_j sim_ij/tau ]."""
    sims = ad.div(ad.matmul(za, _transpose(zb)), tau)
    b = sims.shape[0]
    diag = ad.tensor_sum(ad.mul(sims, Tensor(np.eye(b))))
    lse = ad.tensor_sum(ad.logsumexp(sims, axis=1))
    return diag - lse


def cross_modal_loss(za: Tensor, zb: Tensor, tau: Tensor,
                     reduction: str = "sum") -> Tensor:
    """Symmetric contrastive loss between two modalities.

    za, zb: (B, D) unit-norm rows. tau: positive scalar. reduction "sum" is
    the printed definition; "mean" divides by the batch size.
    """
    if za.ndim != 2 or za.shape != zb.shape:
        raise ShapeError(f"cross_modal_loss shapes {za.shape} vs {zb.shape}")
    if za.shape[0] < 1:
        raise InvalidInput("empty batch")
    if reduction not in ("sum", "mean"):
        raise InvalidInput(f"unknown reduction {reduction!r}")
    if np.any(tau.data <= 0):
        raise InvalidInput(f"temperature must be positive, got {tau.data}")

    loss = ad.mul(ad.add(_directional(za, zb, tau), _directional(zb, za, tau)), Tensor(-0.5))
    if reduction == "mean":
        loss = ad.div(loss, Tensor(float(za.shape[0])))
    return loss


@dataclass
class EmbeddingBatch:
    """Unit-norm rows for the four modalities of one batch."""

    z_text: Tensor
    z_image: Tensor
    z_point: Tensor
    z_mixed: Tensor


def build_embedding_batch(point_embed: Tensor, image_features: Tensor,
                          text_features: Tensor, heads: AlignmentHeads) -> EmbeddingBatch:
    """Project raw features and assemble the four normalized embedding sets."""
    z_point = normalize_rows(point_embed)
    z_image = project(heads.image, image_features)
    z_text = project(heads.text, text_features)
    z_mixed = project(heads.mixed, ad.concat([z_point, z_image], axis=1))
    return EmbeddingBatch(z_text=z_text, z_image=z_image, z_point=z_point, z_mixed=z_mixed)


def total_loss(batch: EmbeddingBatch, tau: Tensor, reduction: str = "mean"):
    """Four-term objective; returns (loss Tensor, per-term float breakdown)."""
    terms = {
        "point_image": cross_modal_loss(batch.z_point, batch.z_image, tau, reduction),
        "point_text": cross_modal_loss(batch.z_point, batch.z_text, tau, reduction),
        "image_text": cross_modal_loss(batch.z_image, batch.z_text, tau, reduction),
        "mixed_text": cross_modal_loss(batch.z_mixed, batch.z_text, tau, reduction),
    }
    out = terms["point_image"]
    for key in ("point_text", "image_text", "mixed_text"):
        out = ad.add(out, terms[key])
    return out, {k: float(v.data) for k, v in terms.items()}
