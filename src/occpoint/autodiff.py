"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps a float64 ndarray and records the operation that produced it;
`backward()` replays the graph in reverse topological order. The op set is
exactly what the pipeline needs, each op one node with a hand adjoint: `add`,
`exp`, `silu`, the clamp `clip`, `concat`, `affine` (x @ W + b), `mean` and
`layer_norm`. Tensors define no arithmetic operators. The fused ops of
`encoder`, `tokenizer`, `ssm` and `contrastive` build on the array kernels
here: sigmoid and SiLU, row gathers, a weight gradient over leading axes and
a depthwise 1D convolution. The finer ops these were once composed of live
in `tests/composed.py` as their oracles. Everything is double precision so
analytic gradients can be held to finite-difference checks at 1e-4 relative
error.

Gradients are never copied and never updated in place. `accumulate` keeps a
node's first gradient by reference and adds later ones out of place, because
closures hand the same array to several nodes: `add` passes its `g` to both
parents and `concat` passes views of it, so two `.grad`s may share a buffer.
A closure computes nothing for a parent that does not require a gradient, and
under `no_grad` ops skip the work only the backward pass needs. `backward`
drops each interior node's `.grad` once its closure has run; leaf gradients
stay and accumulate across calls.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError


_GRAD_ENABLED = True


def grad_enabled() -> bool:
    return _GRAD_ENABLED


def needs_grad(*tensors: "Tensor") -> bool:
    """Whether an op over these inputs records a backward closure."""
    return _GRAD_ENABLED and any(t.requires_grad for t in tensors)


class no_grad:
    """Context manager: tensors created inside never record the graph."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = _GRAD_ENABLED and (
            requires_grad or any(p.requires_grad for p in parents)
        )
        self._parents = parents if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def accumulate(self, g: np.ndarray) -> None:
        # g may be shared with other nodes (see the module docstring), so it
        # is stored as it is and never added to in place.
        self.grad = g if self.grad is None else self.grad + g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        if self.data.size != 1:
            raise ShapeError("backward() expects a scalar loss")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self.accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None  # interior: its parents hold what they need

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"


def parameter(shape, rng: np.random.Generator, scale: float | None = None) -> Tensor:
    """Learnable tensor of `shape`, drawn N(0, scale) with scale defaulting to
    1/sqrt(fan_in)."""
    shape = tuple(shape)
    fan_in = shape[0] if shape else 1
    s = scale if scale is not None else fan_in ** -0.5
    return Tensor(rng.normal(0.0, s, size=shape), requires_grad=True)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient g down to `shape` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g, b.data.shape))

    return Tensor(out_data, parents=(a, b), backward=backward)


def weight_grad(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of W in a @ W from the output gradient g: one GEMM over all
    leading axes, (..., k) x (..., j) -> (k, j)."""
    return a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def exp(a: Tensor) -> Tensor:
    e = np.exp(a.data)
    return Tensor(e, parents=(a,), backward=lambda g: a.accumulate(g * e))


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), as a new array."""
    # exp overflow for very negative x saturates to 1/inf = 0, which is exact.
    out = np.negative(x)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def silu_array(x: np.ndarray) -> np.ndarray:
    """x * sigmoid(x) in place, with one temporary; returns x."""
    x *= sigmoid_array(x)
    return x


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x) (the SiLU / swish nonlinearity)."""
    s = sigmoid_array(a.data)
    if not needs_grad(a):
        s *= a.data
        return Tensor(s)
    out = a.data * s

    def backward(g):
        a.accumulate(g * (s + out * (1.0 - s)))

    return Tensor(out, parents=(a,), backward=backward)


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t.accumulate(piece)

    return Tensor(out_data, parents=tuple(tensors), backward=backward)


def gather_rows(x: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Token gather row by row: out[..., b, i, :] = x[..., b, index[..., b, i], :].

    x is (..., B, S, C) and index (..., B, S); leading axes that x lacks are
    broadcast, so one (B, S, C) array can be gathered once per stream.
    """
    lead = x.shape[:-2]
    rows = [np.arange(n).reshape((n,) + (1,) * (len(lead) - i)) for i, n in enumerate(lead)]
    return x[(*rows, index)]


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp with pass-through gradient strictly inside [lo, hi]."""
    out_data = np.clip(a.data, lo, hi)
    mask = (a.data >= lo) & (a.data <= hi)
    return Tensor(out_data, parents=(a,), backward=lambda g: a.accumulate(g * mask))


def affine(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x @ W + b. W is (in, out); x is (..., in)."""
    if x.data.shape[-1] != weight.data.shape[0]:
        raise ShapeError(
            f"affine: input dim {x.data.shape[-1]} != weight rows {weight.data.shape[0]}"
        )
    out = x.data @ weight.data
    out += bias.data

    def backward(g):
        if x.requires_grad:
            x.accumulate(g @ weight.data.T)
        if weight.requires_grad:
            weight.accumulate(weight_grad(x.data, g))
        if bias.requires_grad:
            bias.accumulate(_unbroadcast(g, bias.data.shape))

    return Tensor(out, parents=(x, weight, bias), backward=backward)


def mean(a: Tensor, axis: int) -> Tensor:
    """The sum over `axis` times 1 / its length."""
    scale = 1.0 / a.data.shape[axis]
    out = a.data.sum(axis=axis) * scale

    def backward(g):
        a.accumulate(np.broadcast_to(np.expand_dims(g * scale, axis), a.data.shape))

    return Tensor(out, parents=(a,), backward=backward)


LAYER_NORM_EPS = 1e-5  # added to the variance before the square root


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last axis, then scale and shift: xhat * gain + bias
    with xhat = (x - mu) / sqrt(var + eps). Without a gradient to take, the
    arrays are updated in place and nothing is kept. The adjoint is the
    closed form (gh - mean(gh) - xhat * mean(gh * xhat)) / sqrt(var + eps)
    with gh = g * gain."""
    scale = 1.0 / x.data.shape[-1]
    mu = x.data.sum(axis=-1, keepdims=True)
    mu *= scale
    xhat = x.data - mu
    inv = (xhat * xhat).sum(axis=-1, keepdims=True)
    inv *= scale
    inv += LAYER_NORM_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    if not needs_grad(x, gain, bias):
        xhat *= gain.data
        xhat += bias.data
        return Tensor(xhat)
    out = xhat * gain.data
    out += bias.data

    def backward(g):
        if bias.requires_grad:
            bias.accumulate(_unbroadcast(g, bias.data.shape))
        if gain.requires_grad:
            gain.accumulate(_unbroadcast(g * xhat, gain.data.shape))
        if x.requires_grad:
            gh = g * gain.data
            gx = gh - gh.sum(axis=-1, keepdims=True) * scale
            gx -= xhat * ((gh * xhat).sum(axis=-1, keepdims=True) * scale)
            gx *= inv
            x.accumulate(gx)

    return Tensor(out, parents=(x, gain, bias), backward=backward)


def conv1d_forward(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray,
                   pad_left: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel 1D convolution along the token axis, with a leading stream
    axis: x is (Z, B, S, C), kernel (Z, C, w) and bias (Z, C), one kernel per
    stream. The output has length S: the input is zero-padded by pad_left
    before and w - 1 - pad_left after. Returns the output and the padded
    input that `conv1d_backward` reads.

    Each stream runs on its own, with its taps copied to a contiguous (w, C)
    array, so that every multiply broadcasts a contiguous row of C taps. The
    taps are summed in order j = 0..w-1, then the bias."""
    s = x.shape[-2]
    xp = np.zeros(x.shape[:-2] + (s + kernel.shape[-1] - 1, x.shape[-1]))
    xp[..., pad_left : pad_left + s, :] = x
    out = np.zeros(x.shape)
    for z, taps in enumerate(_taps(kernel)):
        for j, tap in enumerate(taps):
            out[z] += xp[z, :, j : j + s, :] * tap
        out[z] += bias[z]
    return out, xp


def conv1d_backward(g: np.ndarray, xp: np.ndarray, kernel: np.ndarray,
                    pad_left: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (input, kernel, bias) of `conv1d_forward`'s output. The
    input gradient runs per stream over contiguous taps, as the forward
    does; the kernel gradient is one einsum per tap over both streams."""
    s = g.shape[-2]
    gxp = np.zeros_like(xp)
    for z, taps in enumerate(_taps(kernel)):
        for j, tap in enumerate(taps):
            gxp[z, :, j : j + s, :] += g[z] * tap
    gk = np.zeros_like(kernel)
    for j in range(kernel.shape[-1]):
        gk[:, :, j] = np.einsum("zbsc,zbsc->zc", g, xp[..., j : j + s, :])
    return gxp[..., pad_left : pad_left + s, :], gk, g.sum(axis=(1, 2))


def _taps(kernel: np.ndarray) -> np.ndarray:
    """(Z, C, w) kernel -> C-contiguous (Z, w, C) taps."""
    return np.ascontiguousarray(np.swapaxes(kernel, 1, 2))
