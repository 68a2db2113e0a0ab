"""Two-stream point sequence encoder.

Each block normalizes its input, computes a SiLU gate, and runs two parallel
branches: project, reorder the tokens along one space-filling curve, mix
neighbors with a depthwise 1D convolution, run the selective scan, restore
the original order, and gate. The two branch outputs are summed, projected
back to the token width, and added to the residual stream:

    z_in = LayerNorm(z_prev)              gate = SiLU(Linear(z_in))
    h'   = Sort_a(Linear(z_in))           h''  = SiLU(Conv1D(h'))
    t'   = Sort_b(Linear(z_in))           t''  = SiLU(Conv1D(t'))
    h    = Unsort(Scan(h'')) * gate       t    = Unsort(Scan(t'')) * gate
    out  = z_prev + Linear(h + t)

The sort orders depend only on token centers, so they are computed once per
cloud (`training.curve_orders`): one (2, B, S) index array, curve a then
curve b, whose unsort `encoder_forward` derives once for all blocks. A linear
head plus average pooling turns the final tokens into one embedding vector.

The two branches run as one autodiff op (`stream_branches`) with a hand
adjoint. Its intermediates are arrays with a leading stream axis of size 2
(curve a, curve b), shape (2, B, S, C_inner): the sort and unsort gathers,
the convolution, the SiLUs and the gating act on both streams at once, the
projections take one GEMM per stream, and one recurrence loop over the
tokens serves both curves. Each weight keeps its own tensor (and checkpoint
name); the op stacks them per call.

This module also carries the closed-form parameter and FLOPs accounting used
for scale reporting, including the analytic attention-equivalent model
(4*S^2*C + 8*S*C^2 per block) that stands in for a Transformer comparison.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .curves import CurveKind
from .errors import ConfigError, ShapeError
from .ssm import S6Params, dt_rank, init_s6, selective_scan
from .tokenizer import POINTNET_HIDDEN, MiniPointNetParams, init_mini_pointnet

CONV_WIDTH_STANDARD = 5  # symmetric padding 2: same length, bidirectional
CONV_WIDTH_CAUSAL = 4    # left padding 3: strictly past-looking
CONV_MODES = ("standard", "causal", "none")


def check_number_fields(config) -> None:
    """Raise ConfigError unless each `int` field of a config dataclass holds an
    integer and each `float` field a finite real number: a bool, a string,
    None, 16.5 for an int or NaN for a float is refused, since a checkpoint's
    header is not covered by its checksum."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "int" and (isinstance(value, bool)
                                or not isinstance(value, numbers.Integral)):
            raise ConfigError(f"{f.name} must be an integer, got {value!r}")
        if f.type == "float" and (isinstance(value, bool)
                                  or not isinstance(value, numbers.Real)
                                  or not -math.inf < value < math.inf):
            raise ConfigError(f"{f.name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class EncoderConfig:
    l_blocks: int = 6
    c_dim: int = 256
    s_tokens: int = 128
    k_neighbors: int = 32
    n_state: int = 16
    expand: int = 2
    curve_a: CurveKind = CurveKind.HILBERT
    curve_b: CurveKind = CurveKind.TRANS_HILBERT
    conv_mode: str = "standard"  # one of CONV_MODES
    embed_dim: int = 64

    def __post_init__(self):
        check_number_fields(self)
        if self.l_blocks < 0:
            raise ConfigError(f"l_blocks must be >= 0, got {self.l_blocks}")
        if self.conv_mode not in CONV_MODES:
            raise ConfigError(f"unknown conv_mode {self.conv_mode!r}")
        if min(self.c_dim, self.s_tokens, self.k_neighbors, self.n_state,
               self.expand, self.embed_dim) < 1:
            raise ConfigError("encoder dimensions must be positive")

    @property
    def c_inner(self) -> int:
        return self.expand * self.c_dim

    @property
    def conv_width(self) -> int:
        return CONV_WIDTH_CAUSAL if self.conv_mode == "causal" else CONV_WIDTH_STANDARD

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["curve_a"] = self.curve_a.value
        doc["curve_b"] = self.curve_b.value
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "EncoderConfig":
        doc = dict(doc)
        doc["curve_a"] = CurveKind.from_string(doc["curve_a"])
        doc["curve_b"] = CurveKind.from_string(doc["curve_b"])
        return cls(**doc)


def desk_config(**overrides) -> EncoderConfig:
    """Default desk-scale encoder."""
    return replace(EncoderConfig(), **overrides) if overrides else EncoderConfig()


def toy_config(**overrides) -> EncoderConfig:
    """Small preset for the end-to-end desk training run (single-core budget)."""
    cfg = EncoderConfig(
        l_blocks=2, c_dim=64, s_tokens=32, k_neighbors=16, n_state=8,
        embed_dim=32,
    )
    return replace(cfg, **overrides) if overrides else cfg


def full_scale_config(**overrides) -> EncoderConfig:
    """Full-scale accounting preset: 29.14M parameters at embed_dim 1280,
    with analytic FLOPs below the attention-equivalent model for S >= 512."""
    cfg = EncoderConfig(
        l_blocks=24, c_dim=512, s_tokens=512, k_neighbors=32, n_state=16,
        expand=1, embed_dim=1280,
    )
    return replace(cfg, **overrides) if overrides else cfg


@dataclass
class BlockParams:
    norm_gain: Tensor
    norm_bias: Tensor
    gate_w: Tensor
    gate_b: Tensor
    branch_h_w: Tensor
    branch_h_b: Tensor
    branch_t_w: Tensor
    branch_t_b: Tensor
    conv_h_kernel: Tensor
    conv_h_bias: Tensor
    conv_t_kernel: Tensor
    conv_t_bias: Tensor
    s6_h: S6Params
    s6_t: S6Params
    out_w: Tensor
    out_b: Tensor


@dataclass
class EncoderParams:
    pointnet: MiniPointNetParams
    blocks: list[BlockParams]
    head_w: Tensor
    head_b: Tensor


def init_block(config: EncoderConfig, rng: np.random.Generator) -> BlockParams:
    c, ci, w = config.c_dim, config.c_inner, config.conv_width
    return BlockParams(
        norm_gain=Tensor(np.ones(c), requires_grad=True),
        norm_bias=Tensor(np.zeros(c), requires_grad=True),
        gate_w=ad.parameter((c, ci), rng),
        gate_b=Tensor(np.zeros(ci), requires_grad=True),
        branch_h_w=ad.parameter((c, ci), rng),
        branch_h_b=Tensor(np.zeros(ci), requires_grad=True),
        branch_t_w=ad.parameter((c, ci), rng),
        branch_t_b=Tensor(np.zeros(ci), requires_grad=True),
        conv_h_kernel=ad.parameter((ci, w), rng, scale=w ** -0.5),
        conv_h_bias=Tensor(np.zeros(ci), requires_grad=True),
        conv_t_kernel=ad.parameter((ci, w), rng, scale=w ** -0.5),
        conv_t_bias=Tensor(np.zeros(ci), requires_grad=True),
        s6_h=init_s6(ci, config.n_state, rng),
        s6_t=init_s6(ci, config.n_state, rng),
        # Zero output projection: every block starts as the identity map, so
        # the residual stream is well-conditioned from the first step.
        out_w=Tensor(np.zeros((ci, c)), requires_grad=True),
        out_b=Tensor(np.zeros(c), requires_grad=True),
    )


def init_encoder(config: EncoderConfig, rng: np.random.Generator,
                 place=lambda name, piece: piece) -> EncoderParams:
    """Draw the encoder one piece at a time, in `named_parameters` order: the
    mini-PointNet, each block, `head_w`, `head_b`. Each piece is handed to
    `place(name, piece)` as soon as it is drawn, and the encoder holds what
    `place` returns."""
    return EncoderParams(
        pointnet=place("pointnet", init_mini_pointnet(config.c_dim, rng)),
        blocks=[place(f"blocks.{i}", init_block(config, rng)) for i in range(config.l_blocks)],
        head_w=place("head_w", ad.parameter((config.c_dim, config.embed_dim), rng)),
        head_b=place("head_b", Tensor(np.zeros(config.embed_dim), requires_grad=True)),
    )


def _conv_padding(config: EncoderConfig) -> tuple[int, int]:
    if config.conv_mode == "causal":
        return config.conv_width - 1, 0
    w = config.conv_width
    return (w - 1) // 2, w - 1 - (w - 1) // 2


def stream_branches(z_in: Tensor, gate: Tensor, fwd: np.ndarray, inv: np.ndarray,
                     params: BlockParams, config: EncoderConfig) -> Tensor:
    """Both stream branches as one op, h + t of the module docstring.

    fwd/inv are (2, B, S) sort and unsort indices. Every intermediate is an
    array with a leading stream axis: (2, B, S, C_inner). The projections and
    the scan's projections are one GEMM per stream; the gathers, the
    convolution, the SiLU and the gating run on both streams at once, and one
    recurrence loop (inside `selective_scan`) serves both curves.
    """
    conv = config.conv_mode != "none"
    weights = (params.branch_h_w, params.branch_t_w)
    biases = (params.branch_h_b, params.branch_t_b)
    kernels, conv_biases = (((params.conv_h_kernel, params.conv_t_kernel),
                             (params.conv_h_bias, params.conv_t_bias)) if conv else ((), ()))
    s6 = (vars(params.s6_h), vars(params.s6_t))
    parents = (z_in, gate, *weights, *biases, *kernels, *conv_biases,
               *(t for tensors in s6 for t in tensors.values()))
    grad = ad.needs_grad(*parents)
    z = z_in.data
    x = ad.gather_rows(np.stack([z @ w.data + b.data for w, b in zip(weights, biases)]), fwd)
    if conv:
        pad = _conv_padding(config)[0]
        kernel = np.stack([k.data for k in kernels])
        x, padded = ad.conv1d_forward(x, kernel, np.stack([c.data for c in conv_biases]), pad)
    if grad:
        sig = ad.sigmoid_array(x)
        mixed = x * sig
    else:
        mixed = ad.silu_array(x)
    y, adjoint = selective_scan(mixed, (params.s6_h, params.s6_t))
    u = ad.gather_rows(y, inv)
    if not grad:
        u *= gate.data
        return Tensor(u[0] + u[1])
    out_data = u[0] * gate.data + u[1] * gate.data

    def backward(g):
        if gate.requires_grad:
            gate.accumulate(g * u[0] + g * u[1])
        gmixed, s6_grads = adjoint(ad.gather_rows(g * gate.data, fwd))
        gx = gmixed * (sig + mixed * (1.0 - sig))
        grads = []
        if conv:
            gx, gkernel, gbias = ad.conv1d_backward(gx, padded, kernel, pad)
            grads += [*zip(kernels, gkernel), *zip(conv_biases, gbias)]
        gpre = ad.gather_rows(gx, inv)
        grads += [(w, ad.weight_grad(z, gpre[i])) for i, w in enumerate(weights)]
        grads += [(b, gpre[i].sum(axis=(0, 1))) for i, b in enumerate(biases)]
        grads += [(t, sg[name]) for tensors, sg in zip(s6, s6_grads) for name, t in tensors.items()]
        if z_in.requires_grad:
            grads += [(z_in, gpre[i] @ w.data.T) for i, w in enumerate(weights)]
        for t, gt in grads:
            if t.requires_grad:
                t.accumulate(gt)

    return Tensor(out_data, parents=parents, backward=backward)


def block_forward(z_prev: Tensor, fwd: np.ndarray, inv: np.ndarray,
                  params: BlockParams, config: EncoderConfig) -> Tensor:
    """One two-stream block over (B, S, C) tokens. fwd is the (2, B, S) sort
    order of curve a and curve b (`training.curve_orders`), inv its unsort.
    The shapes are not checked here: `encoder_forward`, the caller, checks
    them and derives inv once for all of its blocks."""
    z_in = ad.layer_norm(z_prev, params.norm_gain, params.norm_bias)
    gate = ad.silu(ad.affine(z_in, params.gate_w, params.gate_b))
    branches = stream_branches(z_in, gate, fwd, inv, params, config)
    return ad.add(z_prev, ad.affine(branches, params.out_w, params.out_b))


def encoder_forward(tokens: Tensor, orders: np.ndarray,
                    params: EncoderParams, config: EncoderConfig) -> Tensor:
    """(B, S, C) tokens -> (B, D) embeddings.

    Every block reuses the (2, B, S) curve orders and their unsort; after the
    last block a per-token affine maps C -> embed_dim and tokens are mean-pooled.
    """
    if tokens.ndim != 3 or tokens.shape[-1] != config.c_dim:
        raise ShapeError(f"expected (B, S, {config.c_dim}) tokens, got {tokens.shape}")
    if tokens.shape[1] != config.s_tokens:
        raise ShapeError(f"got {tokens.shape[1]} tokens, config says {config.s_tokens}")
    if orders.shape != (2,) + tokens.shape[:2]:
        raise ShapeError(f"curve orders have shape {orders.shape}, "
                         f"tokens need {(2,) + tokens.shape[:2]}")
    if len(params.blocks) != config.l_blocks:
        raise ShapeError(f"{len(params.blocks)} block params for l_blocks={config.l_blocks}")
    inv = np.argsort(orders, axis=-1)
    z = tokens
    for block in params.blocks:
        z = block_forward(z, orders, inv, block, config)
    return ad.mean(ad.affine(z, params.head_w, params.head_b), axis=1)


# ---------------------------------------------------------------------------
# Scale accounting


def count_params(config: EncoderConfig) -> int:
    """Closed-form learnable-parameter count of the encoder tower
    (tokenizer + blocks + head; the contrastive projection heads are separate)."""
    c, ci, n, w = config.c_dim, config.c_inner, config.n_state, config.conv_width
    r = dt_rank(ci)
    hid = POINTNET_HIDDEN
    tokenizer = (6 * hid + hid) + (hid * c + c) + (c * c + c)
    # a_log + b/c projections + dt bottleneck (low, up, bias) + d_skip
    s6 = ci * n + 2 * (ci * n + n) + (ci * r + r * ci + ci) + ci
    block = (
        2 * c                      # layer norm gain/bias
        + 3 * (c * ci + ci)        # gate + two branch projections
        + 2 * (ci * w + ci)        # two depthwise conv kernels + biases
        + 2 * s6                   # two scan modules
        + (ci * c + c)             # output projection
    )
    head = c * config.embed_dim + config.embed_dim
    return tokenizer + config.l_blocks * block + head


def named_parameters(obj, prefix: str = ""):
    """Yield (dotted_name, Tensor) for every learnable tensor in a param tree."""
    if isinstance(obj, Tensor):
        if obj.requires_grad:
            yield prefix, obj
        return
    if isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            yield from named_parameters(item, f"{prefix}.{i}" if prefix else str(i))
        return
    if hasattr(obj, "__dataclass_fields__"):
        for f in fields(obj):
            name = f"{prefix}.{f.name}" if prefix else f.name
            yield from named_parameters(getattr(obj, f.name), name)
        return
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from named_parameters(v, f"{prefix}.{k}" if prefix else str(k))


SCAN_FLOPS_PER_STATE = 9  # exp, two mults + add for h, dot-product term, misc


def count_flops(config: EncoderConfig, s_tokens: int) -> float:
    """Analytic forward FLOPs of the encoder at a given token count.

    Affine maps cost 2*in*out per token, the depthwise conv 2*w per channel
    per token, and each scan module SCAN_FLOPS_PER_STATE per (channel, state)
    per token plus its input-dependent projections. Token count enters every
    term linearly.
    """
    c, ci, n, w = config.c_dim, config.c_inner, config.n_state, config.conv_width
    r = dt_rank(ci)
    hid = POINTNET_HIDDEN
    k = config.k_neighbors

    tokenizer = s_tokens * k * (2 * 6 * hid + 2 * hid * c) + s_tokens * 2 * c * c
    s6 = (
        2 * ci * r + 2 * r * ci    # dt bottleneck
        + 2 * (2 * ci * n)         # input-dependent B and C projections
        + SCAN_FLOPS_PER_STATE * ci * n
        + 2 * ci                   # step-size nonlinearity + skip term
    )
    conv = 0 if config.conv_mode == "none" else 2 * w * ci
    block_per_token = (
        8 * c                      # layer norm
        + 3 * (2 * c * ci)         # gate + branch projections
        + 2 * conv
        + 2 * s6
        + 2 * ci * c               # output projection
        + 6 * ci                   # SiLU activations and gating products
    )
    head = 2 * c * config.embed_dim
    return float(tokenizer + s_tokens * (config.l_blocks * block_per_token + head))


def attention_equivalent_flops(config: EncoderConfig, s_tokens: int) -> float:
    """Analytic stand-in for a Transformer encoder at the same L, C, S:
    4*S^2*C + 8*S*C^2 per block. No Transformer is implemented."""
    s, c = s_tokens, config.c_dim
    return float(config.l_blocks * (4 * s * s * c + 8 * s * c * c))
