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
    cross_modal_loss,
    init_alignment_heads,
    project,
    total_loss,
)
from .curves import sort_by_curve
from .dataset import N_VIEWS, TripletDataset
from .encoder import (
    EncoderConfig,
    EncoderParams,
    block_forward,
    compute_permutations,
    encoder_forward,
    init_block,
    init_encoder,
    named_parameters,
    toy_config,
)
from .errors import ConfigError, InvalidInput, NumericalError
from .ssm import init_s6, selective_scan
from .tokenizer import (
    COLOR_CONSTANT,
    farthest_point_sampling,
    init_mini_pointnet,
    knn_group,
    mini_pointnet_embed,
    TokenSequence,
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
    perm_a: tuple[np.ndarray, np.ndarray]
    perm_b: tuple[np.ndarray, np.ndarray]
    label: int
    object_index: int
    image_feature: np.ndarray
    text_features: np.ndarray


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
            pa = sort_by_curve(patches.centers, config.curve_a, config.curve_bits)
            pb = sort_by_curve(patches.centers, config.curve_b, config.curve_bits)
            for j, i in enumerate(group):
                rec = records[i]
                caches[i] = CloudCache(
                    centers=patches.centers[j],
                    rel_points=patches.relative_points[j],
                    patch_colors=patches.patch_colors[j],
                    perm_a=(pa.forward[j], pa.inverse[j]),
                    perm_b=(pb.forward[j], pb.inverse[j]),
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
    centers = np.stack([b.centers for b in batch])
    perm_a = (np.stack([b.perm_a[0] for b in batch]), np.stack([b.perm_a[1] for b in batch]))
    perm_b = (np.stack([b.perm_b[0] for b in batch]), np.stack([b.perm_b[1] for b in batch]))
    image = np.stack([b.image_feature for b in batch])
    text = np.stack([b.text_features[pick] for b, pick in zip(batch, text_pick)])
    return feats, centers, perm_a, perm_b, image, text


def encode_batch(feats: np.ndarray, centers: np.ndarray, perm_a, perm_b,
                 model: ModelState) -> Tensor:
    tokens = mini_pointnet_embed(Tensor(feats), model.encoder.pointnet)
    seq = TokenSequence(tokens=tokens, centers=centers)
    return encoder_forward(seq, model.encoder_config, model.encoder,
                           permutations=(perm_a, perm_b))


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

    feats, centers, perm_a, perm_b, image, text = _batch_arrays(
        batch, drop_mask, text_pick, cfg.color_constant
    )
    z_point = encode_batch(feats, centers, perm_a, perm_b, model)
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


def run_pretraining(dataset: TripletDataset, encoder_config: EncoderConfig,
                    train_config: TrainConfig, model: ModelState | None = None,
                    log=None) -> tuple[ModelState, list[dict]]:
    """Full deterministic training run; returns the model and per-step metrics."""
    train_set, _ = dataset.split_views(train_config.holdout_views)
    if not train_set.records:
        raise InvalidInput("no training records after the view split")
    if model is None:
        model = init_model(encoder_config, train_config)
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
            feats, centers, pa, pb, _, _ = _batch_arrays(
                group, np.zeros(len(group), dtype=bool),
                np.zeros(len(group), dtype=np.int64), COLOR_CONSTANT,
            )
            z = encode_batch(feats, centers, pa, pb, model)
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
# Gradient checking


def grad_check(op_id: str, h: float = 1e-5, seed: int = 0,
               samples_per_tensor: int = 6) -> float:
    """Worst relative error between analytic and central-difference gradients
    for the named operation's parameters. Registered ops: affine,
    mini_pointnet, conv1d, selective_scan, block, heads, tau, total_loss."""
    if op_id not in GRAD_CHECK_OPS:
        raise InvalidInput(f"unknown op {op_id!r}; have {sorted(GRAD_CHECK_OPS)}")
    params, fn = GRAD_CHECK_OPS[op_id](seed)

    loss = fn()
    for t in params.values():
        t.zero_grad()
    loss.backward()
    analytic = {k: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
                for k, t in params.items()}

    rng = np.random.Generator(np.random.PCG64([seed, 0xFD]))
    worst = 0.0
    for name, t in params.items():
        flat = t.data.ravel()
        gflat = analytic[name].ravel()
        count = min(samples_per_tensor, flat.size)
        idxs = rng.choice(flat.size, size=count, replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + h
            fp = float(fn().data)
            flat[i] = orig - h
            fm = float(fn().data)
            flat[i] = orig
            fd = (fp - fm) / (2.0 * h)
            if not np.isfinite(fd):
                raise NumericalError(f"non-finite finite-difference for {op_id}:{name}")
            # Floor the denominator at 1e-5: entries whose true gradient is at
            # the cancellation noise level of the central difference would
            # otherwise compare noise against noise.
            denom = max(abs(fd), abs(gflat[i]), 1e-5)
            worst = max(worst, abs(fd - gflat[i]) / denom)
    return worst


def _gc_affine(seed):
    rng = np.random.default_rng(seed)
    w = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    x = rng.normal(size=(7, 5))
    target = rng.normal(size=(7, 3))

    def fn():
        out = ad.affine(Tensor(x), w, b)
        return ad.tensor_sum(ad.square(out - Tensor(target)))

    return {"w": w, "b": b}, fn


def _gc_mini_pointnet(seed):
    rng = np.random.default_rng(seed)
    params = init_mini_pointnet(8, rng, hidden=6)
    feats = rng.normal(size=(2, 4, 5, 6))

    def fn():
        return ad.tensor_sum(ad.square(mini_pointnet_embed(Tensor(feats), params)))

    return dict(named_parameters(params)), fn


def _gc_conv1d(seed):
    rng = np.random.default_rng(seed)
    kernel = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    bias = Tensor(rng.normal(size=4), requires_grad=True)
    x = rng.normal(size=(2, 9, 4))

    def fn():
        out = ad.depthwise_conv1d(Tensor(x), kernel, bias, 2, 2)
        return ad.tensor_sum(ad.square(out))

    return {"kernel": kernel, "bias": bias}, fn


def _gc_selective_scan(seed):
    rng = np.random.default_rng(seed)
    params = init_s6(4, 4, rng)
    x = rng.normal(size=(16, 4))

    def fn():
        return ad.tensor_sum(ad.square(selective_scan(Tensor(x), params)))

    return dict(named_parameters(params)), fn


def _gc_block(seed):
    rng = np.random.default_rng(seed)
    cfg = toy_config(c_dim=6, s_tokens=5, n_state=3, l_blocks=1)
    block = init_block(cfg, rng)
    # The training init zeroes out_w (identity blocks); gradient checking
    # needs a nontrivial output path.
    block.out_w.data = rng.normal(size=block.out_w.shape) * block.out_w.shape[0] ** -0.5
    x = rng.normal(size=(5, 6))
    centers = rng.uniform(-1, 1, size=(5, 3))
    perms = compute_permutations(centers, cfg)

    def fn():
        out = block_forward(Tensor(x), perms[0], perms[1], block, cfg)
        return ad.tensor_sum(ad.square(out))

    return dict(named_parameters(block)), fn


def _gc_heads(seed):
    rng = np.random.default_rng(seed)
    heads = init_alignment_heads(6, rng)
    z_point = rng.normal(size=(4, 6))
    image = rng.normal(size=(4, 6))
    text = rng.normal(size=(4, 6))

    def fn():
        emb = build_embedding_batch(Tensor(z_point), image, text, heads)
        loss, _ = total_loss(emb, heads.temperature.value(), reduction="mean")
        return loss

    return dict(named_parameters(heads)), fn


def _gc_tau(seed):
    rng = np.random.default_rng(seed)
    tau_param = init_alignment_heads(6, rng).temperature
    za = rng.normal(size=(4, 6))
    za /= np.linalg.norm(za, axis=1, keepdims=True)
    zb = rng.normal(size=(4, 6))
    zb /= np.linalg.norm(zb, axis=1, keepdims=True)

    def fn():
        return cross_modal_loss(za, zb, tau_param.value(), "mean")

    return {"log_tau": tau_param.log_tau}, fn


def _gc_total_loss(seed):
    rng = np.random.default_rng(seed)
    cfg = toy_config(c_dim=6, s_tokens=5, k_neighbors=3, n_state=3,
                     l_blocks=1, embed_dim=5)
    tc = TrainConfig(seed=seed, batch_size=3, epochs=1, warmup_epochs=0)
    model = init_model(cfg, tc)
    for block in model.encoder.blocks:
        block.out_w.data = rng.normal(size=block.out_w.shape) * 0.5
    feats = rng.normal(size=(3, cfg.s_tokens, cfg.k_neighbors, 6))
    centers = rng.uniform(-1, 1, size=(3, cfg.s_tokens, 3))
    perm_a, perm_b = compute_permutations(centers, cfg)
    image = rng.normal(size=(3, cfg.embed_dim))
    text = rng.normal(size=(3, cfg.embed_dim))

    def fn():
        z = encode_batch(feats, centers, perm_a, perm_b, model)
        emb = build_embedding_batch(z, image, text, model.heads)
        loss, _ = total_loss(emb, model.heads.temperature.value(), "mean")
        return loss

    return model.params(), fn


GRAD_CHECK_OPS = {
    "affine": _gc_affine,
    "mini_pointnet": _gc_mini_pointnet,
    "conv1d": _gc_conv1d,
    "selective_scan": _gc_selective_scan,
    "block": _gc_block,
    "heads": _gc_heads,
    "tau": _gc_tau,
    "total_loss": _gc_total_loss,
}


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
