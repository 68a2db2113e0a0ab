"""Deterministic desk-scale pretraining plus zero-shot and probe evaluation.

Every learnable tensor lives in one parameter tree (encoder + projection
heads + temperature); AdamW with decoupled weight decay, a linear-warmup
cosine schedule, and an EMA shadow copy drive the updates. Runs are bit-exact
given (config, seed): all randomness flows from per-(purpose, step) child
generators of the run seed, so resuming from a checkpoint continues the exact
trajectory.

Batches draw at most one view per object and keep classes disjoint whenever
the batch fits (see `make_batches`): at desk scale the object count is small,
and rows whose fixtures are near-identical would otherwise act as false
negatives, putting a floor under the contrastive loss that says nothing
about the encoder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .container import read_container_file, write_container_file
from .contrastive import (
    AlignmentHeads,
    build_embedding_batch,
    init_alignment_heads,
    project,
    total_loss,
)
from .curves import sort_by_curve
from .dataset import N_VIEWS, TripletDataset
from .encoder import (
    EncoderConfig,
    EncoderParams,
    encoder_forward,
    init_encoder,
    named_parameters,
)
from .errors import ConfigError, InvalidInput, NumericalError
from .tokenizer import (
    COLOR_CONSTANT,
    farthest_point_sampling,
    knn_group,
    mini_pointnet_embed,
)


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    epochs: int = 200  # desk runs use 50
    warmup_epochs: int = 10
    base_lr: float = 7e-4
    weight_decay: float = 0.05
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    ema_decay: float = 0.9995
    color_drop_prob: float = 0.5
    color_constant: float = COLOR_CONSTANT
    holdout_views: int = 2
    seed: int = 0

    def __post_init__(self):
        # A batch of one gives an identically zero contrastive loss.
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if not 1 <= self.holdout_views <= N_VIEWS - 1:
            raise ConfigError(
                f"holdout_views must be in [1, {N_VIEWS - 1}], got {self.holdout_views}"
            )
        if not 0.0 <= self.color_drop_prob <= 1.0:
            raise ConfigError(f"color_drop_prob out of [0, 1]: {self.color_drop_prob}")
        if self.warmup_epochs > self.epochs:
            raise ConfigError(
                f"warmup_epochs {self.warmup_epochs} exceeds epochs {self.epochs}"
            )

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def lr_at(step: int, total_steps: int, config: TrainConfig,
          steps_per_epoch: int) -> float:
    """Linear ramp 0 -> base_lr over the warmup steps, then cosine to 0."""
    warmup = config.warmup_epochs * steps_per_epoch
    if total_steps <= 0:
        return 0.0
    if warmup > 0 and step < warmup:
        return config.base_lr * step / warmup
    if total_steps <= warmup:
        return config.base_lr
    progress = (step - warmup) / (total_steps - warmup)
    progress = min(max(progress, 0.0), 1.0)
    return config.base_lr * 0.5 * (1.0 + np.cos(np.pi * progress))


# ---------------------------------------------------------------------------
# Optimizer and EMA


@dataclass
class AdamWState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def init(cls, params: dict[str, Tensor]) -> "AdamWState":
        return cls(
            m={k: np.zeros_like(t.data) for k, t in params.items()},
            v={k: np.zeros_like(t.data) for k, t in params.items()},
        )


def adamw_step(params: dict[str, Tensor], state: AdamWState, lr: float,
               config: TrainConfig) -> None:
    """One decoupled-weight-decay Adam update; zero-grad tensors still decay."""
    state.step += 1
    b1, b2, eps = config.adam_beta1, config.adam_beta2, config.adam_eps
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    for name, t in params.items():
        g = t.grad if t.grad is not None else np.zeros_like(t.data)
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + eps)
        t.data -= lr * update + lr * config.weight_decay * t.data


@dataclass
class EmaState:
    """Zero-initialized shadow with the update shadow <- d*shadow + (1-d)*param.

    Reads are debiased by 1/(1 - d^t) so the average is meaningful from the
    first steps even when the decay horizon exceeds the run length; with
    constant parameters the raw shadow converges to them geometrically at
    rate (1 - decay) per step either way.
    """

    shadow: dict[str, np.ndarray]
    decay: float
    updates: int = 0

    @classmethod
    def init(cls, params: dict[str, Tensor], decay: float) -> "EmaState":
        return cls(shadow={k: np.zeros_like(t.data) for k, t in params.items()},
                   decay=decay)

    def update(self, params: dict[str, Tensor]) -> None:
        self.updates += 1
        for name, t in params.items():
            s = self.shadow[name]
            s *= self.decay
            s += (1.0 - self.decay) * t.data

    def debiased(self, name: str) -> np.ndarray:
        if self.updates == 0:
            return self.shadow[name].copy()
        return self.shadow[name] / (1.0 - self.decay ** self.updates)


class use_ema_weights:
    """Context manager: evaluate with the (debiased) EMA weights in place."""

    def __init__(self, params: dict[str, Tensor], ema: EmaState):
        self.params = params
        self.ema = ema

    def __enter__(self):
        self._saved = {k: t.data for k, t in self.params.items()}
        for k, t in self.params.items():
            t.data = self.ema.debiased(k) if self.ema.updates > 0 else t.data.copy()
        return self

    def __exit__(self, *exc):
        for k, t in self.params.items():
            t.data = self._saved[k]
        return False


# ---------------------------------------------------------------------------
# Model bundle


@dataclass
class ModelState:
    encoder_config: EncoderConfig
    train_config: TrainConfig
    encoder: EncoderParams
    heads: AlignmentHeads
    opt: AdamWState = None
    ema: EmaState = None
    step: int = 0

    def params(self) -> dict[str, Tensor]:
        tree = {"encoder": self.encoder, "heads": self.heads}
        return dict(named_parameters(tree))


def init_model(encoder_config: EncoderConfig, train_config: TrainConfig) -> ModelState:
    rng = np.random.Generator(np.random.PCG64([train_config.seed, 0x10D3]))
    encoder = init_encoder(encoder_config, rng)
    heads = init_alignment_heads(encoder_config.embed_dim, rng)
    state = ModelState(
        encoder_config=encoder_config,
        train_config=train_config,
        encoder=encoder,
        heads=heads,
    )
    params = state.params()
    state.opt = AdamWState.init(params)
    state.ema = EmaState.init(params, train_config.ema_decay)
    return state


# ---------------------------------------------------------------------------
# Tokenization cache: geometry is fixed per (object, view); only colors and
# weights change during training.


@dataclass
class CloudCache:
    centers: np.ndarray         # (S, 3)
    rel_points: np.ndarray      # (S, k, 3)
    patch_colors: np.ndarray    # (S, k, 3)
    fwd: np.ndarray             # (2, S) sort orders along curve a, curve b
    inv: np.ndarray             # (2, S) their inverses
    label: int
    object_index: int
    image_feature: np.ndarray
    text_features: np.ndarray


def curve_orders(centers: np.ndarray, config: EncoderConfig) -> tuple[np.ndarray, np.ndarray]:
    """Sort orders of (B, S, 3) token centers along curve a, then curve b,
    and their inverses: (fwd, inv), each (2, B, S). ``x[fwd]`` sorts a row
    and ``sorted_x[inv]`` restores it, so ``fwd[inv] == arange(S)``."""
    fwd = np.stack([sort_by_curve(centers, kind, config.curve_bits)
                    for kind in (config.curve_a, config.curve_b)])
    inv = np.empty_like(fwd)
    slots = np.broadcast_to(np.arange(fwd.shape[-1], dtype=fwd.dtype), fwd.shape)
    np.put_along_axis(inv, fwd, slots, axis=-1)
    return fwd, inv


# Each chunk's (clouds x S x N) kNN distance block stays within this many
# elements; the chunk size never changes a cache.
_TOKENIZE_BLOCK_LIMIT = 1 << 19


def build_cache(dataset: TripletDataset, config: EncoderConfig) -> list[CloudCache]:
    """Tokenized geometry per record, in record order.

    Clouds with equal point counts are tokenized together, in chunks of up
    to _TOKENIZE_BLOCK_LIMIT / (S * N) clouds; each cloud gets bitwise what
    it gets alone.
    """
    records = dataset.records
    object_ids: dict[str, int] = {}
    by_size: dict[int, list[int]] = {}
    for i, rec in enumerate(records):
        object_ids.setdefault(rec.object_id, len(object_ids))
        by_size.setdefault(len(rec.points), []).append(i)
    caches: list[CloudCache] = [None] * len(records)
    for n, members in by_size.items():
        chunk = max(1, _TOKENIZE_BLOCK_LIMIT // (config.s_tokens * n))
        for start in range(0, len(members), chunk):
            group = members[start : start + chunk]
            points = np.stack([records[i].points for i in group])
            colors = np.stack([records[i].colors for i in group])
            centers_idx = farthest_point_sampling(points, config.s_tokens)
            patches = knn_group(points, colors, centers_idx, config.k_neighbors)
            fwd, inv = curve_orders(patches.centers, config)
            for j, i in enumerate(group):
                rec = records[i]
                caches[i] = CloudCache(
                    centers=patches.centers[j],
                    rel_points=patches.relative_points[j],
                    patch_colors=patches.patch_colors[j],
                    fwd=fwd[:, j],
                    inv=inv[:, j],
                    label=rec.label,
                    object_index=object_ids[rec.object_id],
                    image_feature=rec.image_feature,
                    text_features=rec.text_features,
                )
    return caches


def _batch_arrays(batch: list[CloudCache], drop_mask: np.ndarray,
                  text_pick: np.ndarray, color_constant: float):
    feats = []
    for item, drop in zip(batch, drop_mask):
        colors = (np.full_like(item.patch_colors, color_constant)
                  if drop else item.patch_colors)
        feats.append(np.concatenate([item.rel_points, colors], axis=-1))
    feats = np.stack(feats)                                  # (B, S, k, 6)
    fwd = np.stack([b.fwd for b in batch], axis=1)           # (2, B, S)
    inv = np.stack([b.inv for b in batch], axis=1)
    image = np.stack([b.image_feature for b in batch])
    text = np.stack([b.text_features[pick] for b, pick in zip(batch, text_pick)])
    return feats, fwd, inv, image, text


def encode_batch(feats: np.ndarray, fwd: np.ndarray, inv: np.ndarray,
                 model: ModelState) -> Tensor:
    """(B, S, k, 6) patch features and (2, B, S) curve orders -> (B, D)."""
    tokens = mini_pointnet_embed(Tensor(feats), model.encoder.pointnet)
    return encoder_forward(tokens, fwd, inv, model.encoder, model.encoder_config)


def _first_nonfinite(stages: list[tuple[str, np.ndarray]]) -> str:
    for name, arr in stages:
        if not np.all(np.isfinite(arr)):
            return name
    return "loss"


def train_step(batch: list[CloudCache], model: ModelState, step: int,
               steps_per_epoch: int, total_steps: int) -> dict:
    """One optimizer step over a batch of cached clouds; returns the metrics row."""
    cfg = model.train_config
    rng = np.random.Generator(np.random.PCG64([cfg.seed, 0xD207, step]))
    drop_mask = rng.random(len(batch)) < cfg.color_drop_prob
    text_pick = rng.integers(0, batch[0].text_features.shape[0], size=len(batch))

    feats, fwd, inv, image, text = _batch_arrays(
        batch, drop_mask, text_pick, cfg.color_constant
    )
    z_point = encode_batch(feats, fwd, inv, model)
    emb = build_embedding_batch(z_point, image, text, model.heads)
    tau = model.heads.temperature.value()
    loss, terms = total_loss(emb, tau, reduction="mean")

    if not np.isfinite(loss.data):
        stage = _first_nonfinite([
            ("point_embedding", z_point.data),
            ("z_text", emb.z_text.data),
            ("z_image", emb.z_image.data),
            ("z_mixed", emb.z_mixed.data),
        ])
        raise NumericalError(f"non-finite loss at step {step}; first bad tensor: {stage}")

    params = model.params()
    for t in params.values():
        t.zero_grad()
    loss.backward()

    lr = lr_at(step, total_steps, cfg, steps_per_epoch)
    adamw_step(params, model.opt, lr, cfg)
    model.ema.update(params)
    model.step = step + 1
    return {
        "step": step,
        "lr": lr,
        "loss": float(loss.data),
        "tau": float(np.clip(np.exp(model.heads.temperature.log_tau.data), 5e-3, 1.0)),
        **terms,
    }


def make_batches(caches: list[CloudCache], batch_size: int, epoch: int,
                 seed: int) -> list[list[CloudCache]]:
    """Batches for one epoch: every view used once, one view per object per
    batch, and no two objects of the same class inside a batch whenever
    it holds no more objects than there are classes.

    Each pass over the objects is cut into batches of batch_size; the last
    one holds the rest, and a rest of one object joins the batch before it.

    Same-class collisions matter at desk scale: with per-object text/image
    fixtures, a color-dropped cloud and its same-class partner are near
    indistinguishable, and treating one as the other's negative puts a hard
    floor under the contrastive loss that says nothing about the encoder. At
    full scale the object count makes such collisions negligible; here the
    sampler has to engineer them away.
    """
    rng = np.random.Generator(np.random.PCG64([seed, 0xBA7C, epoch]))
    by_object: dict[int, list[CloudCache]] = {}
    for c in caches:
        by_object.setdefault(c.object_index, []).append(c)
    views_per_object = min(len(v) for v in by_object.values())
    view_orders = {
        obj: rng.permutation(len(items))
        for obj, items in sorted(by_object.items())
    }
    by_class: dict[int, list[int]] = {}
    for obj, items in sorted(by_object.items()):
        by_class.setdefault(items[0].label, []).append(obj)

    batches = []
    for v in range(views_per_object):
        # Round-robin over classes (both orders reshuffled per pass) keeps the
        # classes inside each chunk distinct as long as the chunk fits.
        class_order = rng.permutation(sorted(by_class))
        rotation: list[int] = []
        members = {cls: list(rng.permutation(by_class[cls])) for cls in class_order}
        depth = max(len(m) for m in members.values())
        for d in range(depth):
            for cls in class_order:
                if d < len(members[cls]):
                    rotation.append(members[cls][d])
        groups = [rotation[start : start + batch_size]
                  for start in range(0, len(rotation), batch_size)]
        if len(groups) > 1 and len(groups[-1]) == 1:
            # A batch of one has an identically zero contrastive loss.
            lone = groups.pop()
            groups[-1] += lone
        for group in groups:
            batches.append([
                by_object[obj][view_orders[obj][v] % len(by_object[obj])]
                for obj in group
            ])
    return batches


def check_resume(model: ModelState, encoder_config: EncoderConfig,
                 train_config: TrainConfig) -> None:
    """Refuse to resume `model` under configs other than its own: a run
    continues exactly only if every field but `epochs` is unchanged."""
    for saved, given in ((model.encoder_config, encoder_config),
                         (model.train_config, train_config)):
        saved, given = saved.to_dict(), given.to_dict()
        for name, value in given.items():
            if name != "epochs" and value != saved[name]:
                raise ConfigError(f"cannot resume with {name}={value!r}: the checkpoint "
                                  f"was trained with {name}={saved[name]!r}")


def run_pretraining(dataset: TripletDataset, encoder_config: EncoderConfig,
                    train_config: TrainConfig, model: ModelState | None = None,
                    log=None) -> tuple[ModelState, list[dict]]:
    """Full deterministic training run; returns the model and per-step metrics.

    Given a model, the run resumes it: the configs must be the model's own,
    except that `epochs` may extend the run (see `check_resume`).
    """
    train_set, _ = dataset.split_views(train_config.holdout_views)
    if not train_set.records:
        raise InvalidInput("no training records after the view split")
    if model is None:
        model = init_model(encoder_config, train_config)
    else:
        check_resume(model, encoder_config, train_config)
        model.train_config = train_config
    caches = build_cache(train_set, encoder_config)

    probe = make_batches(caches, train_config.batch_size, 0, train_config.seed)
    steps_per_epoch = len(probe)
    total_steps = steps_per_epoch * train_config.epochs
    metrics = []
    step = model.step
    start_epoch = step // steps_per_epoch
    for epoch in range(start_epoch, train_config.epochs):
        for batch in make_batches(caches, train_config.batch_size, epoch,
                                  train_config.seed):
            row = train_step(batch, model, step, steps_per_epoch, total_steps)
            metrics.append(row)
            if log is not None:
                log(row)
            step += 1
    return model, metrics


# ---------------------------------------------------------------------------
# Evaluation


def embed_clouds(caches: list[CloudCache], model: ModelState,
                 batch_size: int = 32) -> np.ndarray:
    """Unit-norm point embeddings (M, D) for cached clouds, without gradients."""
    out = []
    with ad.no_grad():
        for start in range(0, len(caches), batch_size):
            group = caches[start : start + batch_size]
            feats, fwd, inv, _, _ = _batch_arrays(
                group, np.zeros(len(group), dtype=bool),
                np.zeros(len(group), dtype=np.int64), COLOR_CONSTANT,
            )
            z = encode_batch(feats, fwd, inv, model)
            out.append(z.data / np.linalg.norm(z.data, axis=1, keepdims=True))
    return np.vstack(out)


def zero_shot_classify(point_embeddings: np.ndarray, class_text_features: np.ndarray,
                       heads: AlignmentHeads) -> np.ndarray:
    """Rank classes per embedding by cosine against projected class text features.

    Returns (M, K) class indices, best first. Callers evaluate with EMA
    weights in place (see `use_ema_weights`).
    """
    if class_text_features.shape[0] < 1:
        raise InvalidInput("need at least one candidate class")
    with ad.no_grad():
        z_cls = project(heads.text, class_text_features).data
    sims = point_embeddings @ z_cls.T
    return np.argsort(-sims, axis=1, kind="stable")


def top_k_accuracy(ranked: np.ndarray, labels: np.ndarray, k: int) -> float:
    hits = (ranked[:, :k] == np.asarray(labels)[:, None]).any(axis=1)
    return float(hits.mean())


def linear_probe(train_features: np.ndarray, train_labels: np.ndarray,
                 test_features: np.ndarray, test_labels: np.ndarray,
                 n_shot: int, seed: int = 0, iterations: int = 1000,
                 lr: float = 0.1, l2: float = 1e-4) -> float:
    """Few-shot probe: multinomial logistic regression on frozen features.

    Draws n_shot examples per class (seeded), trains full-batch gradient
    descent to convergence, and reports test accuracy.
    """
    train_labels = np.asarray(train_labels)
    classes = np.unique(train_labels)
    k = int(classes.max()) + 1
    rng = np.random.Generator(np.random.PCG64([seed, 0x980B]))
    picks = []
    for cls in range(k):
        pool = np.nonzero(train_labels == cls)[0]
        if pool.size == 0:
            raise InvalidInput(f"class {cls} absent from probe training set")
        picks.append(rng.choice(pool, size=min(n_shot, pool.size), replace=False))
    idx = np.concatenate(picks)
    x = train_features[idx]
    y = train_labels[idx]
    onehot = np.eye(k)[y]

    w = np.zeros((x.shape[1], k))
    b = np.zeros(k)
    for _ in range(iterations):
        logits = x @ w + b
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        gl = (p - onehot) / x.shape[0]
        w -= lr * (x.T @ gl + l2 * w)
        b -= lr * gl.sum(axis=0)
    pred = (test_features @ w + b).argmax(axis=1)
    return float((pred == np.asarray(test_labels)).mean())


# ---------------------------------------------------------------------------
# Checkpointing


def save_checkpoint(path, model: ModelState) -> None:
    params = model.params()
    entries: dict[str, np.ndarray] = {}
    for name, t in params.items():
        entries[f"param/{name}"] = t.data
        entries[f"ema/{name}"] = model.ema.shadow[name]
        entries[f"opt/m/{name}"] = model.opt.m[name]
        entries[f"opt/v/{name}"] = model.opt.v[name]
    meta = {
        "encoder_config": model.encoder_config.to_dict(),
        "train_config": model.train_config.to_dict(),
        "step": model.step,
        "opt_step": model.opt.step,
        "ema_updates": model.ema.updates,
    }
    write_container_file(path, entries, meta)


def load_checkpoint(path) -> ModelState:
    entries, meta = read_container_file(path)
    try:
        encoder_config = EncoderConfig.from_dict(meta["encoder_config"])
        train_config = TrainConfig(**meta["train_config"])
        step, opt_step = int(meta["step"]), int(meta["opt_step"])
        ema_updates = int(meta.get("ema_updates", step))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"checkpoint {path}: missing or malformed metadata {exc}") from exc
    model = init_model(encoder_config, train_config)
    params = model.params()
    slots = ("param", "ema", "opt/m", "opt/v")
    missing = [f"{slot}/{k}" for k in params for slot in slots if f"{slot}/{k}" not in entries]
    if missing:
        raise ConfigError(f"checkpoint missing tensors: {missing[:3]}...")
    for name, t in params.items():
        for slot in slots:
            stored = entries[f"{slot}/{name}"]
            if stored.shape != t.data.shape:
                raise ConfigError(
                    f"checkpoint tensor {slot}/{name} has shape {stored.shape}, "
                    f"model expects {t.data.shape}"
                )
        t.data = entries[f"param/{name}"].astype(np.float64)
        model.ema.shadow[name] = entries[f"ema/{name}"].astype(np.float64)
        model.opt.m[name] = entries[f"opt/m/{name}"].astype(np.float64)
        model.opt.v[name] = entries[f"opt/v/{name}"].astype(np.float64)
    model.step = step
    model.opt.step = opt_step
    model.ema.updates = ema_updates
    return model
