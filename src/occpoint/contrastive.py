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

Each pair's loss is one autodiff node with a closed-form gradient (as in
CLIP, Radford et al., arXiv 2103.00020). By sims = za zb^T / tau it is
scale * (softmax_rows(sims) + softmax_cols(sims) - 2I), scale 1/2 or 1/(2B)
when mean-reduced; za gets gsims zb / tau, zb gets gsims^T za / tau and tau
gets -sum(gsims * sims) / tau.
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
    return normalize_rows(ad.affine(feats, head.weight, head.bias))


def normalize_rows(feats: Tensor) -> Tensor:
    """Rows scaled to unit L2 norm, x / sqrt(sum(x^2)), as one op; a row of
    norm under 1e-12 has no direction and is refused. The adjoint is
    (g - y * sum(g * y)) / norm for the output rows y."""
    x = feats.data
    norms = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    if np.any(norms < 1e-12):
        raise NumericalError("zero-norm row; cannot normalize")
    out = x / norms

    def backward(g):
        feats.accumulate((g - out * (g * out).sum(axis=-1, keepdims=True)) / norms)

    return Tensor(out, parents=(feats,), backward=backward)


def _matched_log_prob(sims: np.ndarray) -> tuple[float, np.ndarray]:
    """l = sum_i [sims_ii - logsumexp_j sims_ij], and the row softmax of sims."""
    shift = sims.max(axis=1, keepdims=True)
    e = np.exp(sims - shift)
    summed = e.sum(axis=1)
    lse = np.log(summed) + shift[:, 0]
    e /= summed[:, None]
    return (sims * np.eye(len(sims))).sum() - lse.sum(), e


def cross_modal_loss(za: Tensor, zb: Tensor, tau: Tensor,
                     reduction: str = "sum") -> Tensor:
    """Symmetric contrastive loss between two modalities, as one op with the
    closed-form adjoint of the module docstring.

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

    a, b, t = za.data, zb.data, tau.data
    count = float(a.shape[0]) if reduction == "mean" else 1.0
    sims = (a @ b.T) / t
    # Both products, and the masked diagonal sum, round as the composed graph
    # in tests/composed.py does, so the loss keeps its bits.
    l_ab, soft_rows = _matched_log_prob(sims)
    l_ba, soft_cols = _matched_log_prob((b @ a.T) / t)
    loss = (l_ab + l_ba) * -0.5 / count

    def backward(g):
        gsims = soft_rows + soft_cols.T
        gsims -= 2.0 * np.eye(len(a))
        gsims *= g * 0.5 / count
        if tau.requires_grad:
            tau.accumulate(-(gsims * sims).sum() / t)
        gsims /= t
        if za.requires_grad:
            za.accumulate(gsims @ b)
        if zb.requires_grad:
            zb.accumulate(gsims.T @ a)

    return Tensor(loss, parents=(za, zb, tau), backward=backward)


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
