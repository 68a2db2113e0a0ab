"""Deterministic desk-scale pretraining plus zero-shot and probe evaluation.

Every learnable tensor lives in one parameter tree (encoder + projection
heads + temperature); AdamW with decoupled weight decay, a linear-warmup
cosine schedule, and an EMA shadow copy drive the updates. Runs are bit-exact
given (config, seed): all randomness flows from per-(purpose, step) child
generators of the run seed, so resuming from a checkpoint continues the exact
trajectory.

The parameters live in one float64 vector, the parameter store, in
`named_parameters` order: each tensor's `.data` is a view of its span, and
the AdamW moments and the EMA shadow are vectors of the same layout
(`FlatViews`, indexable by name). `init_model` allocates the store once and
fills it as the model is drawn, each block copied into its span as soon as it
is drawn; `load_checkpoint` lays the model and its four vectors over the
buffer it reads the file into, with no copy. AdamW and the EMA are
whole-vector ops, `use_ema_weights` swaps the one vector, and a checkpoint
holds the four vectors whole. Parameter values are therefore written in
place: a tensor whose `.data` is rebound is cut off from the store, and the
optimizer, the EMA and `save_checkpoint` refuse it with a `ConfigError`.

Training and evaluation read one table, `Tokens`: every cloud's patches
and its two curve orders, with its label, object id and features, stacked
by record as the token cache file stores them (`build_cache`,
`load_or_build_cache`). Numpy indexing of its leading axis selects records:
a split is a mask by held-out view (`split_tokens`), a batch is the row
array `make_batches` gives, and an eval chunk is a slice.

Batches draw at most one view per object and keep classes disjoint whenever
the batch fits (see `make_batches`): at desk scale the object count is small,
and rows whose fixtures are near-identical would otherwise act as false
negatives, putting a floor under the contrastive loss that says nothing
about the encoder.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .container import dtype_name, read_container_file, write_container_file
from .contrastive import (
    AlignmentHeads,
    build_embedding_batch,
    init_alignment_heads,
    normalize_rows,
    project,
    total_loss,
)
from .curves import sort_by_curve
from .dataset import N_VIEWS, TripletDataset, TripletRecord, heldout_view
from .encoder import (
    EncoderConfig,
    EncoderParams,
    check_number_fields,
    count_params,
    encoder_forward,
    init_encoder,
    named_parameters,
)
from .errors import ConfigError, FormatError, InvalidInput, NumericalError
from .tokenizer import (
    COLOR_CONSTANT,
    farthest_point_sampling,
    knn_group,
    mini_pointnet_embed,
)


# The one recipe every run trains with: AdamW (Loshchilov & Hutter, arXiv
# 1711.05101) with these betas, eps and decoupled weight decay, an EMA shadow
# of this decay, and colors replaced by tokenizer.COLOR_CONSTANT in this share
# of each batch's clouds.
WEIGHT_DECAY = 0.05
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
EMA_DECAY = 0.9995
COLOR_DROP_PROB = 0.5


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    epochs: int = 200  # desk runs use 50
    warmup_epochs: int = 10
    base_lr: float = 7e-4
    holdout_views: int = 2
    seed: int = 0

    def __post_init__(self):
        check_number_fields(self)
        # A batch of one gives an identically zero contrastive loss.
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if not 1 <= self.holdout_views <= N_VIEWS - 1:
            raise ConfigError(
                f"holdout_views must be in [1, {N_VIEWS - 1}], got {self.holdout_views}"
            )
        # A negative count or rate would run (gradient ascent) and exit 0.
        for name in ("epochs", "warmup_epochs", "base_lr"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
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


class FlatViews(dict):
    """Name -> reshaped view of its span of one float64 vector, `flat`, with
    the spans laid out in the order they are added, from `shapes` on."""

    def __init__(self, flat: np.ndarray, shapes=()):
        super().__init__()
        self.flat, self.end = flat, 0
        for name, shape in shapes:
            self.add(name, shape)

    def add(self, name: str, shape) -> np.ndarray:
        """The view of the next span, of `shape`, under `name`."""
        size = math.prod(shape)
        self[name] = self.flat[self.end : self.end + size].reshape(shape)
        self.end += size
        return self[name]

    def like(self, flat: np.ndarray) -> "FlatViews":
        """These spans, over another vector."""
        return FlatViews(flat, ((k, a.shape) for k, a in self.items()))

    def zeros_like(self) -> "FlatViews":
        return self.like(np.zeros(self.flat.size))


def _check_views(params: dict[str, Tensor], weights: FlatViews) -> None:
    if params.keys() != weights.keys():
        raise ConfigError("the parameters are not the ones the parameter store holds")
    for name, t in params.items():
        if t.data is not weights[name]:
            raise ConfigError(f"parameter {name} no longer views the parameter store: "
                              f"its .data was rebound; write into it in place instead")


@dataclass
class AdamWState:
    """AdamW moments laid out as the parameter store `weights` they update;
    zero unless given."""

    weights: FlatViews
    m: FlatViews = None
    v: FlatViews = None
    step: int = 0

    def __post_init__(self):
        self.m = self.weights.zeros_like() if self.m is None else self.m
        self.v = self.weights.zeros_like() if self.v is None else self.v

    @cached_property
    def scratch(self) -> tuple[FlatViews, np.ndarray]:
        """adamw_step's gathered gradient and temporary, made at the first step:
        a fresh temporary per whole-vector op costs more than a per-tensor loop."""
        return self.weights.zeros_like(), np.empty(self.weights.flat.size)


def adamw_step(params: dict[str, Tensor], state: AdamWState, lr: float) -> None:
    """One decoupled-weight-decay Adam update of the whole parameter store;
    zero-grad tensors still decay. Per element it is, op for op, the
    per-tensor update in `tests/reference.py`."""
    _check_views(params, state.weights)
    grad, tmp = state.scratch
    for name, t in params.items():
        grad[name][...] = 0.0 if t.grad is None else t.grad
    state.step += 1
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    g, m, v, p = grad.flat, state.m.flat, state.v.flat, state.weights.flat
    m *= b1
    m += np.multiply(g, 1.0 - b1, out=tmp)
    v *= b2
    np.multiply(g, 1.0 - b2, out=tmp)
    v += np.multiply(tmp, g, out=tmp)
    denom = np.sqrt(np.divide(v, bc2, out=tmp), out=tmp)
    denom += eps
    update = np.divide(np.divide(m, bc1, out=g), denom, out=g)   # g is spent
    update *= lr
    update += np.multiply(p, lr * WEIGHT_DECAY, out=tmp)
    p -= update


@dataclass
class EmaState:
    """Shadow of the parameter store `weights`, zero unless given, with the
    update shadow <- d*shadow + (1-d)*param.

    `use_ema_weights` debiases it by 1/(1 - d^t) so the average is
    meaningful from the first steps even when the decay horizon exceeds the
    run length; with constant parameters the raw shadow converges to them
    geometrically at rate (1 - decay) per step either way.
    """

    weights: FlatViews
    decay: float
    shadow: FlatViews = None
    updates: int = 0

    def __post_init__(self):
        self.shadow = self.weights.zeros_like() if self.shadow is None else self.shadow

    @cached_property
    def scratch(self) -> np.ndarray:
        return np.empty(self.weights.flat.size)

    def update(self, params: dict[str, Tensor]) -> None:
        _check_views(params, self.weights)
        self.updates += 1
        self.shadow.flat *= self.decay
        self.shadow.flat += np.multiply(self.weights.flat, 1.0 - self.decay, out=self.scratch)


@contextmanager
def use_ema_weights(params: dict[str, Tensor], ema: EmaState):
    """Evaluate with the (debiased) EMA weights written into the parameter
    store; the parameters are written back on exit."""
    _check_views(params, ema.weights)
    saved = ema.weights.flat.copy()
    if ema.updates > 0:
        np.divide(ema.shadow.flat, 1.0 - ema.decay ** ema.updates, out=ema.weights.flat)
    try:
        yield
    finally:
        ema.weights.flat[...] = saved


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


def store_size(config: EncoderConfig) -> int:
    """P, the length of the parameter store: the encoder's parameters and the
    alignment heads' (two D -> D heads, one 2D -> D head and the temperature)."""
    d = config.embed_dim
    return count_params(config) + 2 * (d * d + d) + (2 * d * d + d) + 1


def _build(encoder_config: EncoderConfig, train_config: TrainConfig, flat: np.ndarray,
           fill: bool) -> tuple[ModelState, FlatViews]:
    """The model drawn from its seed, one piece at a time, with each piece's
    parameters laid over the next spans of the (P,) vector `flat` as soon as
    it is drawn, so that the pieces are never all held at once. With `fill`
    the drawn values are copied in; without it `flat` keeps its own. Returns
    the model, without optimizer and EMA, and the parameter store."""
    rng = np.random.Generator(np.random.PCG64([train_config.seed, 0x10D3]))
    weights = FlatViews(flat)

    def place(name, piece):
        for key, t in named_parameters(piece, name):
            view = weights.add(key, t.data.shape)
            if fill:
                view[...] = t.data
            t.data = view
        return piece

    encoder = init_encoder(encoder_config, rng,
                           lambda name, piece: place(f"encoder.{name}", piece))
    heads = place("heads", init_alignment_heads(encoder_config.embed_dim, rng))
    return ModelState(encoder_config, train_config, encoder, heads), weights


def init_model(encoder_config: EncoderConfig, train_config: TrainConfig) -> ModelState:
    model, weights = _build(encoder_config, train_config,
                            np.empty(store_size(encoder_config)), fill=True)
    model.opt = AdamWState(weights)
    model.ema = EmaState(weights, EMA_DECAY)
    return model


# ---------------------------------------------------------------------------
# Tokens: geometry is fixed per (object, view); only colors and weights change
# during training.


def curve_orders(centers: np.ndarray, config: EncoderConfig) -> np.ndarray:
    """Sort orders of (B, S, 3) token centers along curve a, then curve b:
    (2, B, S). ``x[order]`` sorts a row; ``np.argsort(order)`` is its unsort."""
    return np.stack([sort_by_curve(centers, kind)
                     for kind in (config.curve_a, config.curve_b)])


@dataclass(frozen=True, eq=False)
class Tokens:
    """R tokenized clouds, stacked by record: the four geometry arrays the
    token cache file stores, and each record's label, object id and features.

    Indexing selects records as numpy indexes a leading axis: a mask or an
    index array gives a Tokens of those rows, a slice a Tokens of views, and
    an int one record's unbatched row.
    """

    centers: np.ndarray         # (R, S, 3)
    rel_points: np.ndarray      # (R, S, k, 3)
    patch_colors: np.ndarray    # (R, S, k, 3)
    orders: np.ndarray          # (R, 2, S): curve a, then curve b (see curve_orders)
    labels: np.ndarray          # (R,)
    object_ids: np.ndarray      # (R,) object id strings
    image_features: np.ndarray  # (R, D)
    text_features: np.ndarray   # (R, T, D)

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, rows) -> "Tokens":
        return Tokens(*(getattr(self, f.name)[rows] for f in fields(self)))

    def __iter__(self):
        return (self[i] for i in range(len(self)))


# Each chunk's (clouds x S x N) kNN distance block stays within this many
# elements; the chunk size never changes a cache.
_TOKENIZE_BLOCK_LIMIT = 1 << 19


def _tokenize(records: list[TripletRecord], config: EncoderConfig) -> dict[str, np.ndarray]:
    """FPS, kNN grouping and curve orders of every record's cloud: the
    geometry arrays of Tokens, by name.

    Clouds with equal point counts are tokenized together, in chunks of up
    to _TOKENIZE_BLOCK_LIMIT / (S * N) clouds; each cloud gets bitwise what
    it gets alone.
    """
    s, k = config.s_tokens, config.k_neighbors
    by_size: dict[int, list[int]] = {}
    for i, rec in enumerate(records):
        by_size.setdefault(len(rec.points), []).append(i)
    if by_size and k > min(by_size):
        # Checked before the (R, S, k, 3) arrays are allocated.
        raise ConfigError(f"k_neighbors={k} exceeds the smallest cloud's {min(by_size)} points")
    r = len(records)
    centers, rel_points = np.empty((r, s, 3)), np.empty((r, s, k, 3))
    patch_colors, orders = np.empty((r, s, k, 3)), np.empty((r, 2, s), dtype=np.int64)
    for n, members in by_size.items():
        chunk = max(1, _TOKENIZE_BLOCK_LIMIT // (s * n))
        for start in range(0, len(members), chunk):
            group = members[start : start + chunk]
            points = np.stack([records[i].points for i in group])
            colors = np.stack([records[i].colors for i in group])
            centers_idx = farthest_point_sampling(points, s)
            patches = knn_group(points, colors, centers_idx, k)
            centers[group] = patches.centers
            rel_points[group] = patches.relative_points
            patch_colors[group] = patches.patch_colors
            orders[group] = np.swapaxes(curve_orders(patches.centers, config), 0, 1)
    return dict(centers=centers, rel_points=rel_points, patch_colors=patch_colors,
                orders=orders)


def _with_records(geometry: dict[str, np.ndarray], records: list[TripletRecord]) -> Tokens:
    # np.array, not np.stack: a dataset may hold no records.
    return Tokens(**geometry,
                  labels=np.array([rec.label for rec in records], dtype=np.int64),
                  object_ids=np.array([rec.object_id for rec in records], dtype=object),
                  image_features=np.array([rec.image_feature for rec in records]),
                  text_features=np.array([rec.text_features for rec in records]))


def build_cache(dataset: TripletDataset, config: EncoderConfig) -> Tokens:
    """The tokens of every record, in record order (see _tokenize)."""
    return _with_records(_tokenize(dataset.records, config), dataset.records)


def split_tokens(dataset: TripletDataset, tokens: Tokens,
                 holdout_views: int) -> tuple[Tokens, Tokens]:
    """The tokens of every record of `dataset` split as
    `dataset.split_views(holdout_views)` splits the records: (train, heldout)."""
    held = np.array([heldout_view(rec.view_id, holdout_views) for rec in dataset.records],
                    dtype=bool)
    return tokens[~held], tokens[held]


# ---------------------------------------------------------------------------
# Token cache file: a dataset's tokens, kept beside it as an OCCT sidecar
# named <data file name>.tokens-<tag>.occt. The tag hashes the tokenizer
# fields; the metadata holds them, the dataset file's sha256 and the record
# count, and the file is used only when all of them match.

_TOKENS_FORMAT = "occpoint-tokens/2"
_TOKENIZER_FIELDS = ("s_tokens", "k_neighbors", "curve_a", "curve_b")


def _tokenizer_fields(config: EncoderConfig) -> dict:
    doc = config.to_dict()
    return {name: doc[name] for name in _TOKENIZER_FIELDS}


def token_cache_path(data_path, config: EncoderConfig) -> Path:
    """<data file name>.tokens-<tag>.occt beside the data file; the tag is
    a short hash of the tokenizer fields of `config`."""
    doc = json.dumps(_tokenizer_fields(config), sort_keys=True).encode("utf-8")
    tag = hashlib.sha256(doc).hexdigest()[:12]
    data_path = Path(data_path)
    return data_path.with_name(f"{data_path.name}.tokens-{tag}.occt")


def _file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _read_tokens(path: Path, meta: dict, config: EncoderConfig) -> dict[str, np.ndarray] | None:
    """The geometry stored at `path` if its metadata is `meta` and its tensors
    have the shapes `meta` implies; None (with a warning unless the file is
    missing or belongs to other dataset bytes) otherwise."""
    try:
        entries, stored = read_container_file(path)
    except FileNotFoundError:
        return None
    except (OSError, FormatError) as exc:
        _warn(f"rebuilding unreadable token cache {path}: {exc}")
        return None
    if stored.get("dataset_sha256") != meta["dataset_sha256"]:
        return None  # the dataset file changed: a stale cache, rebuilt quietly
    r, s, k = meta["records"], config.s_tokens, config.k_neighbors
    want = {"centers": ((r, s, 3), np.float64), "rel_points": ((r, s, k, 3), np.float64),
            "patch_colors": ((r, s, k, 3), np.float64), "orders": ((r, 2, s), np.uint64)}
    problem = None
    if stored != meta:
        problem = f"metadata {stored} does not match {meta}"
    elif entries.keys() != want.keys() or any(
            entries[n].shape != shape or entries[n].dtype != dtype
            for n, (shape, dtype) in want.items()):
        problem = "tensors do not match the metadata"
    elif not np.array_equal(np.sort(entries["orders"], axis=-1),
                            np.broadcast_to(np.arange(s, dtype=np.uint64), (r, 2, s))):
        problem = "curve orders are not permutations"
    if problem is not None:
        _warn(f"rebuilding token cache {path}: {problem}")
        return None
    return dict(entries, orders=entries["orders"].view(np.int64))


def load_or_build_cache(path, dataset: TripletDataset,
                        config: EncoderConfig) -> tuple[Tokens, dict]:
    """(tokens, inputs): build_cache(dataset, config), read from the token
    cache file of the dataset file `path` when it holds this file's and this
    config's tokens. Otherwise the tokens are computed and the file
    (re)written; a file that cannot be written is skipped with a warning.

    `inputs` is what the run manifests record of the dataset and the file:
    {"dataset_sha256": ..., "token_cache": {"path": ..., "hit": ...}}.
    """
    sidecar = token_cache_path(path, config)
    meta = {"format": _TOKENS_FORMAT, "dataset_sha256": _file_sha256(path),
            "tokenizer": _tokenizer_fields(config), "records": len(dataset.records)}
    geometry = _read_tokens(sidecar, meta, config)
    inputs = {"dataset_sha256": meta["dataset_sha256"],
              "token_cache": {"path": str(sidecar), "hit": geometry is not None}}
    if geometry is None:
        geometry = _tokenize(dataset.records, config)
        # OCCT has no signed ints.
        entries = dict(geometry, orders=geometry["orders"].view(np.uint64))
        try:
            write_container_file(sidecar, entries, meta)
        except OSError as exc:
            _warn(f"token cache not written: {exc.filename}: {exc.strerror or exc}")
    return _with_records(geometry, dataset.records), inputs


def encode_batch(rel_points: np.ndarray, colors: np.ndarray, orders: np.ndarray,
                 model: ModelState) -> Tensor:
    """(B, D) point embeddings of a batch as `Tokens` stores it: (B, S, k, 3)
    relative points and colors, and (B, 2, S) curve orders.
    The patch features are the points and colors side by side."""
    feats = np.concatenate([rel_points, colors], axis=-1)
    tokens = mini_pointnet_embed(Tensor(feats), model.encoder.pointnet)
    return encoder_forward(tokens, np.swapaxes(orders, 0, 1), model.encoder,
                           model.encoder_config)


def train_step(batch: Tokens, model: ModelState, step: int,
               steps_per_epoch: int, total_steps: int) -> dict:
    """One optimizer step over a batch of tokens; returns the metrics row."""
    cfg = model.train_config
    rng = np.random.Generator(np.random.PCG64([cfg.seed, 0xD207, step]))
    drop_mask = rng.random(len(batch)) < COLOR_DROP_PROB
    text_pick = rng.integers(0, batch.text_features.shape[1], size=len(batch))

    colors = np.where(drop_mask[:, None, None, None], COLOR_CONSTANT, batch.patch_colors)
    z_point = encode_batch(batch.rel_points, colors, batch.orders, model)
    text = batch.text_features[np.arange(len(batch)), text_pick]
    emb = build_embedding_batch(z_point, Tensor(batch.image_features), Tensor(text),
                                model.heads)
    tau = model.heads.temperature.value()
    loss, terms = total_loss(emb, tau, reduction="mean")

    if not np.isfinite(loss.data):
        stages = {"point_embedding": z_point, "z_text": emb.z_text,
                  "z_image": emb.z_image, "z_mixed": emb.z_mixed}
        stage = next((k for k, t in stages.items() if not np.all(np.isfinite(t.data))), "loss")
        raise NumericalError(f"non-finite loss at step {step}; first bad tensor: {stage}")

    params = model.params()
    for t in params.values():
        t.zero_grad()
    loss.backward()

    lr = lr_at(step, total_steps, cfg, steps_per_epoch)
    adamw_step(params, model.opt, lr)
    model.ema.update(params)
    model.step = step + 1
    return {
        "step": step,
        "lr": lr,
        "loss": float(loss.data),
        "tau": float(tau.data),  # the tau the loss used, before the update
        **terms,
    }


def make_batches(tokens: Tokens, batch_size: int, epoch: int,
                 seed: int) -> list[np.ndarray]:
    """Batches for one epoch, as arrays of rows of `tokens`: every view used
    once, one view per object per batch, and no two objects of the same
    class inside a batch whenever it holds no more objects than there are
    classes. Objects are numbered by their first appearance in `tokens`.

    Each pass over the objects is cut into batches of batch_size; the last
    one holds the rest, and a rest of one object joins the batch before it.
    Fewer than two objects are refused: a batch of one has an identically
    zero contrastive loss.

    Same-class collisions matter at desk scale: with per-object text/image
    fixtures, a color-dropped cloud and its same-class partner are near
    indistinguishable, and treating one as the other's negative puts a hard
    floor under the contrastive loss that says nothing about the encoder. At
    full scale the object count makes such collisions negligible; here the
    sampler has to engineer them away.
    """
    rng = np.random.Generator(np.random.PCG64([seed, 0xBA7C, epoch]))
    by_object: dict[str, list[int]] = {}
    for row, object_id in enumerate(tokens.object_ids):
        by_object.setdefault(object_id, []).append(row)
    objects = list(by_object.values())  # rows of object i, in first-appearance order
    if len(objects) < 2:
        raise ConfigError(f"a contrastive batch needs at least two objects; the training "
                          f"split has {len(objects)}")
    views = {object_id: len(rows) for object_id, rows in by_object.items()}
    fewest, most = min(views, key=views.get), max(views, key=views.get)
    if views[fewest] != views[most]:
        raise ConfigError(f"object {fewest} has {views[fewest]} views and object {most} "
                          f"{views[most]}: every object needs the same view count to use "
                          f"each view once per epoch")
    views_per_object = views[fewest]
    view_orders = [rng.permutation(len(rows)) for rows in objects]
    by_class: dict[int, list[int]] = {}
    for obj, rows in enumerate(objects):
        by_class.setdefault(int(tokens.labels[rows[0]]), []).append(obj)

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
        if len(groups[-1]) == 1:
            lone = groups.pop()
            groups[-1] += lone
        batches.extend(np.array([objects[obj][view_orders[obj][v]] for obj in group])
                       for group in groups)
    return batches


def epoch_steps(tokens: Tokens, train_config: TrainConfig, start: int = 0) -> int:
    """Steps per epoch over a training split. A split that no epoch can be
    cut from is refused: one with no records (`InvalidInput`), and the ones
    `make_batches` refuses (`ConfigError`). So is a run of fewer steps than
    the `start` step it resumes at (`ConfigError`)."""
    if not len(tokens):
        raise InvalidInput("no training records after the view split")
    steps = len(make_batches(tokens, train_config.batch_size, 0, train_config.seed))
    if start > steps * train_config.epochs:
        raise ConfigError(f"cannot resume at step {start} with epochs={train_config.epochs}: "
                          f"that run ends at step {steps * train_config.epochs}")
    return steps


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
                    log=None, tokens: Tokens | None = None,
                    ) -> tuple[ModelState, list[dict]]:
    """Full deterministic training run; returns the model and per-step metrics.

    Given a model, the run resumes it at its step, mid-epoch too: the configs
    must be the model's own, except that `epochs` may extend the run (see
    `check_resume`). Given tokens, they stand for the training split's
    build_cache (as `split_tokens` gives them), and are only checked for
    count and shape.
    """
    train_set, _ = dataset.split_views(train_config.holdout_views)
    if tokens is not None:
        shape = (encoder_config.s_tokens, encoder_config.k_neighbors, 3)
        if len(tokens) != len(train_set.records):
            raise ConfigError(f"{len(tokens)} token caches for "
                              f"{len(train_set.records)} training records")
        if tokens.rel_points.shape[1:] != shape:
            raise ConfigError(f"token caches have (S, k) = {tokens.rel_points.shape[1:3]}, "
                              f"the encoder config asks for {shape[:2]}")
    if model is None:
        model = init_model(encoder_config, train_config)
    else:
        check_resume(model, encoder_config, train_config)
    if tokens is None:
        tokens = build_cache(train_set, encoder_config)

    steps_per_epoch = epoch_steps(tokens, train_config, model.step)
    model.train_config = train_config
    total_steps = steps_per_epoch * train_config.epochs
    metrics = []
    step = model.step
    for epoch in range(step // steps_per_epoch, train_config.epochs):
        batches = make_batches(tokens, train_config.batch_size, epoch, train_config.seed)
        # A model stepped mid-epoch skips the batches it has seen.
        for rows in batches[step - epoch * steps_per_epoch:]:
            row = train_step(tokens[rows], model, step, steps_per_epoch, total_steps)
            metrics.append(row)
            if log is not None:
                log(row)
            step += 1
    return model, metrics


# ---------------------------------------------------------------------------
# Evaluation


# Byte budget of one (2, b, S, C_inner) float64 stream array in embed_clouds.
EMBED_BLOCK_BYTES = 1 << 19


def embed_batch_size(config: EncoderConfig) -> int:
    """Clouds per forward pass in `embed_clouds`: as many as keep one stream
    array within EMBED_BLOCK_BYTES, and at least one."""
    per_cloud = 2 * config.s_tokens * config.c_inner * 8
    return max(1, EMBED_BLOCK_BYTES // per_cloud)


def embed_clouds(tokens: Tokens, model: ModelState) -> np.ndarray:
    """Unit-norm point embeddings (M, D) of tokenized clouds, without gradients.

    The clouds run in passes of `embed_batch_size` clouds (8 for the toy
    preset, 1 for the desk preset), so that each pass's working set stays
    small: more clouds per pass cost more per cloud, not less. The pass size
    changes only the GEMMs' row counts, and the embeddings are bitwise the
    same for any pass size (tests/test_train.py).
    """
    out = np.empty((len(tokens), model.encoder_config.embed_dim))
    step = embed_batch_size(model.encoder_config)
    with ad.no_grad():
        for start in range(0, len(tokens), step):
            chunk = tokens[start : start + step]
            z = encode_batch(chunk.rel_points, chunk.patch_colors, chunk.orders, model)
            out[start : start + step] = normalize_rows(z).data
    return out


def zero_shot_classify(point_embeddings: np.ndarray, class_text_features: np.ndarray,
                       heads: AlignmentHeads) -> np.ndarray:
    """Rank classes per embedding by cosine against projected class text features.

    Returns (M, K) class indices, best first. Callers evaluate with EMA
    weights in place (see `use_ema_weights`).
    """
    if class_text_features.shape[0] < 1:
        raise InvalidInput("need at least one candidate class")
    with ad.no_grad():
        z_cls = project(heads.text, Tensor(class_text_features)).data
    sims = point_embeddings @ z_cls.T
    return np.argsort(-sims, axis=1, kind="stable")


def top_k_accuracy(ranked: np.ndarray, labels: np.ndarray, k: int) -> float:
    hits = (ranked[:, :k] == np.asarray(labels)[:, None]).any(axis=1)
    return float(hits.mean())


# The probe's full-batch gradient descent: steps, step size and L2 weight.
PROBE_ITERATIONS = 1000
PROBE_LR = 0.1
PROBE_L2 = 1e-4


def linear_probe(train_features: np.ndarray, train_labels: np.ndarray,
                 test_features: np.ndarray, test_labels: np.ndarray,
                 n_shot: int, seed: int = 0) -> float:
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
    for _ in range(PROBE_ITERATIONS):
        logits = x @ w + b
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        gl = (p - onehot) / x.shape[0]
        w -= PROBE_LR * (x.T @ gl + PROBE_L2 * w)
        b -= PROBE_LR * gl.sum(axis=0)
    pred = (test_features @ w + b).argmax(axis=1)
    return float((pred == np.asarray(test_labels)).mean())


# ---------------------------------------------------------------------------
# Checkpointing


def _stores(model: ModelState) -> dict[str, np.ndarray]:
    """The four (P,) float64 vectors a checkpoint holds, by entry name."""
    return {"param": model.opt.weights.flat, "ema": model.ema.shadow.flat,
            "opt/m": model.opt.m.flat, "opt/v": model.opt.v.flat}


def _layout_sha256(weights: FlatViews) -> str:
    """sha256 of the JSON list [[name, shape], ...] of the store, in order."""
    layout = [[name, list(view.shape)] for name, view in weights.items()]
    return hashlib.sha256(json.dumps(layout).encode("utf-8")).hexdigest()


def save_checkpoint(path, model: ModelState) -> None:
    """Write the `_stores` whole, each from its `.flat`, so the file is the
    only copy made; the header holds both configs, the step and the
    `layout_sha256` that names the spans of the four vectors."""
    _check_views(model.params(), model.opt.weights)
    write_container_file(path, _stores(model), {
        "encoder_config": model.encoder_config.to_dict(),
        "train_config": model.train_config.to_dict(),
        "step": model.step, "layout_sha256": _layout_sha256(model.opt.weights)})


def load_checkpoint(path) -> ModelState:
    entries, meta = read_container_file(path)
    try:
        encoder_config = EncoderConfig.from_dict(meta["encoder_config"])
        train_config = TrainConfig(**meta["train_config"])
        step, layout = meta["step"], meta["layout_sha256"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"checkpoint {path}: missing or malformed metadata {exc}") from exc
    if isinstance(step, bool) or not isinstance(step, numbers.Integral) or step < 0:
        raise ConfigError(f"checkpoint {path}: step must be a non-negative integer, "
                          f"got {step!r}")
    # Checked before anything is built: a header is not covered by the
    # checksum, and its config may ask for any size of model.
    p = store_size(encoder_config)
    found = {name: f"{dtype_name(a)} {list(a.shape)}" for name, a in entries.items()}
    wanted = {name: f"f64 [{p}]" for name in ("param", "ema", "opt/m", "opt/v")}
    if found != wanted:
        raise ConfigError(f"checkpoint {path}: its encoder_config has {p} parameters, "
                          f"so its entries must be {wanted}, not {found}")
    model, weights = _build(encoder_config, train_config, entries["param"], fill=False)
    if layout != _layout_sha256(weights):
        raise ConfigError(f"checkpoint {path}: layout_sha256 {layout!r} is not the "
                          f"layout of its encoder_config's parameters")
    # Every step runs one AdamW update and one EMA update.
    model.opt = AdamWState(weights, weights.like(entries["opt/m"]),
                           weights.like(entries["opt/v"]), step)
    model.ema = EmaState(weights, EMA_DECAY, weights.like(entries["ema"]), step)
    model.step = step
    return model
