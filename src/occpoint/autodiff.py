"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps a float64 ndarray and records the operation that produced it;
`backward()` replays the graph in reverse topological order. The op set is
exactly what the pipeline needs (affine maps, pointwise nonlinearities,
reductions, gathers, a depthwise 1D convolution, and the selective scan,
whose recurrence gets a hand-derived adjoint in `ssm.py`). Everything is
double precision so analytic gradients can be held to finite-difference
checks at 1e-4 relative error.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError


_GRAD_ENABLED = True


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

    def item(self) -> float:
        return float(self.data)

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

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

    # Operator sugar; scalars and ndarrays are promoted to constant Tensors.
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return add(self, neg(_wrap(other)))

    def __rsub__(self, other):
        return add(_wrap(other), neg(self))

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __rtruediv__(self, other):
        return div(_wrap(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data, rng: np.random.Generator | None = None, scale: float | None = None) -> Tensor:
    """Learnable tensor; with rng given, `data` is a shape and values are drawn
    N(0, scale) with scale defaulting to 1/sqrt(fan_in)."""
    if rng is not None:
        shape = tuple(data)
        fan_in = shape[0] if shape else 1
        s = scale if scale is not None else fan_in ** -0.5
        data = rng.normal(0.0, s, size=shape)
    return Tensor(data, requires_grad=True)


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
        a.accumulate(_unbroadcast(g, a.data.shape))
        b.accumulate(_unbroadcast(g, b.data.shape))

    return Tensor(out_data, parents=(a, b), backward=backward)


def neg(a: Tensor) -> Tensor:
    return Tensor(-a.data, parents=(a,), backward=lambda g: a.accumulate(-g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def backward(g):
        a.accumulate(_unbroadcast(g * b.data, a.data.shape))
        b.accumulate(_unbroadcast(g * a.data, b.data.shape))

    return Tensor(out_data, parents=(a, b), backward=backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data / b.data

    def backward(g):
        a.accumulate(_unbroadcast(g / b.data, a.data.shape))
        b.accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return Tensor(out_data, parents=(a, b), backward=backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b with 2D b (weight matrices are always 2D here); a may be batched."""
    if b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2D right operand, got {b.data.shape}")
    out_data = a.data @ b.data

    def backward(g):
        a.accumulate(g @ b.data.T)
        b.accumulate(np.einsum("...ik,...ij->kj", a.data, g, optimize=True))

    return Tensor(out_data, parents=(a, b), backward=backward)


def exp(a: Tensor) -> Tensor:
    e = np.exp(a.data)
    return Tensor(e, parents=(a,), backward=lambda g: a.accumulate(g * e))


def log(a: Tensor) -> Tensor:
    return Tensor(np.log(a.data), parents=(a,), backward=lambda g: a.accumulate(g / a.data))


def sqrt(a: Tensor) -> Tensor:
    r = np.sqrt(a.data)
    return Tensor(r, parents=(a,), backward=lambda g: a.accumulate(g * 0.5 / r))


def square(a: Tensor) -> Tensor:
    return Tensor(a.data * a.data, parents=(a,), backward=lambda g: a.accumulate(g * 2.0 * a.data))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp overflow for very negative x saturates to 1/inf = 0, which is exact.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def sigmoid(a: Tensor) -> Tensor:
    s = _sigmoid(a.data)
    return Tensor(s, parents=(a,), backward=lambda g: a.accumulate(g * s * (1.0 - s)))


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x) (the SiLU / swish nonlinearity)."""
    s = _sigmoid(a.data)
    out = a.data * s

    def backward(g):
        a.accumulate(g * (s + out * (1.0 - s)))

    return Tensor(out, parents=(a,), backward=backward)


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(x)), computed overflow-free."""
    out = np.logaddexp(0.0, a.data)
    s = _sigmoid(a.data)
    return Tensor(out, parents=(a,), backward=lambda g: a.accumulate(g * s))


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            a.accumulate(np.broadcast_to(g, a.data.shape).copy())
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        a.accumulate(np.broadcast_to(g, a.data.shape).copy())

    return Tensor(out_data, parents=(a,), backward=backward)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.data.size if axis is None else a.data.shape[axis]
    return tensor_sum(a, axis=axis, keepdims=keepdims) * (1.0 / count)


def reshape(a: Tensor, shape) -> Tensor:
    orig = a.data.shape
    return Tensor(
        a.data.reshape(shape),
        parents=(a,),
        backward=lambda g: a.accumulate(g.reshape(orig)),
    )


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            t.accumulate(piece)

    return Tensor(out_data, parents=tuple(tensors), backward=backward)


def take_rows(a: Tensor, index: np.ndarray, axis: int) -> Tensor:
    """Gather slices along `axis` with an integer index array (same length layout).

    Used for curve sort/unsort; the index is a bijection per batch row, so the
    backward scatter has no collisions and put_along_axis is exact.
    """
    index = np.asarray(index, dtype=np.int64)
    expand = [1] * a.data.ndim
    expand[axis] = -1
    # Broadcast a (B, S) or (S,) index against (B, S, C)-style data.
    if index.ndim == a.data.ndim:
        idx = index
    elif index.ndim == a.data.ndim - 1:
        idx = np.expand_dims(index, -1)
    else:
        idx = index.reshape(expand)
    idx_full = np.broadcast_to(idx, a.data.shape)
    out_data = np.take_along_axis(a.data, idx_full, axis=axis)

    def backward(g):
        gin = np.zeros_like(a.data)
        np.put_along_axis(gin, idx_full, g, axis=axis)
        a.accumulate(gin)

    return Tensor(out_data, parents=(a,), backward=backward)


def amax(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """Max over one axis; gradient routes to the first argmax (ties are rare
    and measure-zero for continuous inputs)."""
    out_data = a.data.max(axis=axis, keepdims=keepdims)
    arg = np.expand_dims(a.data.argmax(axis=axis), axis)

    def backward(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        gin = np.zeros_like(a.data)
        np.put_along_axis(gin, arg, g, axis=axis)
        a.accumulate(gin)

    return Tensor(out_data, parents=(a,), backward=backward)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp with pass-through gradient strictly inside [lo, hi]."""
    out_data = np.clip(a.data, lo, hi)
    mask = (a.data >= lo) & (a.data <= hi)

    def backward(g):
        a.accumulate(g * mask)

    return Tensor(out_data, parents=(a,), backward=backward)


def affine(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """x @ W (+ b). W is (in, out); x is (..., in)."""
    if x.data.shape[-1] != weight.data.shape[0]:
        raise ShapeError(
            f"affine: input dim {x.data.shape[-1]} != weight rows {weight.data.shape[0]}"
        )
    out = matmul(x, weight)
    if bias is not None:
        out = add(out, bias)
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    mu = mean(x, axis=-1, keepdims=True)
    centered = x - mu
    var = mean(square(centered), axis=-1, keepdims=True)
    inv = div(Tensor(1.0), sqrt(var + eps))
    return mul(centered, inv) * gain + bias


def logsumexp(a: Tensor, axis: int) -> Tensor:
    """Stable log-sum-exp; the max shift is a constant so the gradient is exact."""
    shift = Tensor(a.data.max(axis=axis, keepdims=True))
    summed = tensor_sum(exp(a - shift), axis=axis)
    return log(summed) + Tensor(np.squeeze(shift.data, axis=axis))


def l2_normalize_rows(x: Tensor, eps: float = 0.0) -> Tensor:
    """Rows scaled to unit L2 norm. Raises on an (eps-)zero row upstream."""
    norms = sqrt(tensor_sum(square(x), axis=-1, keepdims=True) + eps)
    return div(x, norms)


def depthwise_conv1d(x: Tensor, kernel: Tensor, bias: Tensor,
                     pad_left: int, pad_right: int) -> Tensor:
    """Per-channel 1D convolution along the token axis.

    x: (B, S, C); kernel: (C, w); bias: (C,). Output length equals S, so the
    caller chooses padding: symmetric (w-1)//2 for a same-length standard
    kernel, or (w-1, 0) for a causal one.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"depthwise_conv1d expects (B, S, C), got {x.data.shape}")
    nb, s, c = x.data.shape
    w = kernel.data.shape[1]
    if pad_left + pad_right != w - 1:
        raise ShapeError(f"padding ({pad_left}, {pad_right}) incompatible with width {w}")
    xp = np.zeros((nb, s + w - 1, c))
    xp[:, pad_left : pad_left + s] = x.data
    out_data = np.zeros((nb, s, c))
    for j in range(w):
        out_data += xp[:, j : j + s, :] * kernel.data[:, j]
    out_data += bias.data

    def backward(g):
        gxp = np.zeros_like(xp)
        gk = np.zeros_like(kernel.data)
        for j in range(w):
            gxp[:, j : j + s, :] += g * kernel.data[:, j]
            gk[:, j] = np.einsum("bsc,bsc->c", g, xp[:, j : j + s, :])
        x.accumulate(gxp[:, pad_left : pad_left + s])
        kernel.accumulate(gk)
        bias.accumulate(g.sum(axis=(0, 1)))

    return Tensor(out_data, parents=(x, kernel, bias), backward=backward)
