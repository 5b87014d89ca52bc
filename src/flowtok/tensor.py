"""Dense tensors with reverse-mode automatic differentiation.

NumPy arrays provide storage and arithmetic; this module adds the
gradient tape. Every differentiable operation records its parents and a
backward closure on its output tensor, and every tensor carries a
creation index, so reverse creation order is a valid topological order
for the chain rule (an operation's inputs always exist before its
output).

float32 is the working precision for training. Verification code builds
its tensors as float64 so finite-difference comparisons stay tight.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np

DEFAULT_DTYPE = np.dtype(np.float32)

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class NumericFault(ArithmeticError):
    """A non-finite value appeared where the contract requires finite ones."""


_nan_checks = False


def set_nan_checks(enabled: bool) -> None:
    """Toggle non-finite detection on every op output.

    Off by default: the check costs a full scan per operation.
    """
    global _nan_checks
    _nan_checks = bool(enabled)


_grad_enabled = True


class no_grad:
    """Context manager that suspends tape recording.

    Forward values are unaffected; outputs simply carry no history.
    """

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, exc_type, exc, tb):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


_creation_counter = itertools.count()


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_vjp", "_order")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.op = "leaf"
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], tuple] | None = None
        self._order = next(_creation_counter)

    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._not_scalar()

    def _not_scalar(self):
        raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, op={self.op!r}{flag})"

    # ------------------------------------------------------------------
    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into .grad of every requires_grad ancestor.

        Repeated calls keep accumulating; zero_grad resets. The root must
        hold exactly one element.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar root, got shape {self.shape}")
        if not self.requires_grad:
            return
        nodes: list[Tensor] = []
        seen: set[int] = set()
        stack: list[Tensor] = [self]
        while stack:
            t = stack.pop()
            if id(t) in seen:
                continue
            seen.add(id(t))
            nodes.append(t)
            stack.extend(t._parents)
        nodes.sort(key=lambda t: t._order, reverse=True)

        # Per-call flow accumulator, kept apart from .grad so that a second
        # backward() doubles leaf gradients instead of compounding stale flow.
        flowing: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for t in nodes:
            g = flowing.pop(id(t), None)
            if g is None:
                continue
            if t.requires_grad:
                t.grad = g.copy() if t.grad is None else t.grad + g
            if t._vjp is None:
                continue
            for parent, pg in zip(t._parents, t._vjp(g)):
                if pg is None or not parent.requires_grad:
                    continue
                if pg.shape != parent.data.shape:
                    raise ShapeError(
                        f"{t.op}: backward produced shape {pg.shape} for parent of shape {parent.data.shape}"
                    )
                pid = id(parent)
                acc = flowing.get(pid)
                flowing[pid] = pg if acc is None else acc + pg

    # ------------------------------------------------------------------
    # operator sugar; real work lives in the module-level functions
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_wrap(other, self), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_wrap(other, self), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, p):
        return power(self, p)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims: bool = False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def swapaxes(self, a, b):
        return swapaxes(self, a, b)


def _record(op: str, out: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    if _nan_checks and not np.all(np.isfinite(out)):
        raise NumericFault(f"{op} produced non-finite values")
    t = Tensor.__new__(Tensor)
    t.data = out
    t.grad = None
    t.op = op
    t._order = next(_creation_counter)
    if _grad_enabled and any(p.requires_grad for p in parents):
        t.requires_grad = True
        t._parents = parents
        t._vjp = vjp
    else:
        t.requires_grad = False
        t._parents = ()
        t._vjp = None
    return t


def _wrap(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Invert broadcasting: sum g over the axes that were expanded to reach its shape."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


# ----------------------------------------------------------------------
# elementwise and arithmetic ops


def add(a: Tensor, b) -> Tensor:
    b = _wrap(b, a)
    _check_broadcast(a, b, "add")
    out = a.data + b.data

    def vjp(g):
        return _reduce_to(g, a.data.shape), _reduce_to(g, b.data.shape)

    return _record("add", out, (a, b), vjp)


def sub(a: Tensor, b) -> Tensor:
    b = _wrap(b, a)
    _check_broadcast(a, b, "sub")
    out = a.data - b.data

    def vjp(g):
        return _reduce_to(g, a.data.shape), _reduce_to(-g, b.data.shape)

    return _record("sub", out, (a, b), vjp)


def mul(a: Tensor, b) -> Tensor:
    b = _wrap(b, a)
    _check_broadcast(a, b, "mul")
    out = a.data * b.data

    def vjp(g):
        return _reduce_to(g * b.data, a.data.shape), _reduce_to(g * a.data, b.data.shape)

    return _record("mul", out, (a, b), vjp)


def div(a: Tensor, b) -> Tensor:
    b = _wrap(b, a)
    _check_broadcast(a, b, "div")
    out = a.data / b.data

    def vjp(g):
        return (
            _reduce_to(g / b.data, a.data.shape),
            _reduce_to(-g * a.data / (b.data * b.data), b.data.shape),
        )

    return _record("div", out, (a, b), vjp)


def neg(a: Tensor) -> Tensor:
    out = -a.data

    def vjp(g):
        return (-g,)

    return _record("neg", out, (a,), vjp)


def scale(a: Tensor, s: float) -> Tensor:
    """Multiply by a plain python scalar."""
    s = float(s)
    out = a.data * s

    def vjp(g):
        return (g * s,)

    return _record("scale", out, (a,), vjp)


def power(a: Tensor, p: float) -> Tensor:
    p = float(p)
    out = a.data**p

    def vjp(g):
        return (g * p * a.data ** (p - 1.0),)

    return _record("power", out, (a,), vjp)


def square(a: Tensor) -> Tensor:
    out = a.data * a.data

    def vjp(g):
        return (g * 2.0 * a.data,)

    return _record("square", out, (a,), vjp)


def texp(a: Tensor) -> Tensor:
    out = np.exp(a.data)

    def vjp(g):
        return (g * out,)

    return _record("exp", out, (a,), vjp)


def tlog(a: Tensor) -> Tensor:
    out = np.log(a.data)

    def vjp(g):
        return (g / a.data,)

    return _record("log", out, (a,), vjp)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def vjp(g):
        return (g * (1.0 - out * out),)

    return _record("tanh", out, (a,), vjp)


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_K = 0.044715


def gelu(a: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh form (smooth everywhere)."""
    x = a.data
    inner = _GELU_C * (x + _GELU_K * (x * x * x))
    th = np.tanh(inner)
    out = 0.5 * x * (1.0 + th)

    def vjp(g):
        d_inner = _GELU_C * (1.0 + 3.0 * _GELU_K * x * x)
        return (g * (0.5 * (1.0 + th) + 0.5 * x * (1.0 - th * th) * d_inner),)

    return _record("gelu", out, (a,), vjp)


# ----------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs ndim >= 2 operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} vs {b.shape}")
    out = a.data @ b.data

    def vjp(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return _reduce_to(ga, a.data.shape), _reduce_to(gb, b.data.shape)

    return _record("matmul", out, (a, b), vjp)


# ----------------------------------------------------------------------
# reductions


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.data.shape),)

    return _record("sum", np.asarray(out), (a,), vjp)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.mean(axis=axis, keepdims=keepdims)
    n = a.data.size if axis is None else a.data.size // np.asarray(out).size

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g / n, a.data.shape),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg / n, a.data.shape),)

    return _record("mean", np.asarray(out), (a,), vjp)


# ----------------------------------------------------------------------
# shape ops


def reshape(a: Tensor, shape) -> Tensor:
    out = a.data.reshape(shape)

    def vjp(g):
        return (g.reshape(a.data.shape),)

    return _record("reshape", out, (a,), vjp)


def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    out = np.swapaxes(a.data, ax1, ax2)

    def vjp(g):
        return (np.swapaxes(g, ax1, ax2),)

    return _record("swapaxes", out, (a,), vjp)


def broadcast_to(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    try:
        out = np.broadcast_to(a.data, shape).copy()
    except ValueError:
        raise ShapeError(f"broadcast_to: cannot expand {a.shape} to {shape}") from None

    def vjp(g):
        return (_reduce_to(g, a.data.shape),)

    return _record("broadcast_to", out, (a,), vjp)


def concat(parts: Sequence[Tensor], axis: int = -1) -> Tensor:
    parts = list(parts)
    if not parts:
        raise ShapeError("concat of zero tensors")
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    cuts = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, cuts, axis=axis))

    return _record("concat", out, tuple(parts), vjp)


# ----------------------------------------------------------------------
# indexing


def take_rows(table: Tensor, indices) -> Tensor:
    """Row lookup table[indices]; the embedding primitive.

    indices may have any shape; output shape is indices.shape + (row_dim,).
    Backward scatter-adds, so repeated indices accumulate.
    """
    if table.ndim != 2:
        raise ShapeError(f"take_rows expects a 2-D table, got {table.shape}")
    idx = np.asarray(indices)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeError(
            f"take_rows: index out of range [0, {table.shape[0]}), got extremes "
            f"({idx.min()}, {idx.max()})"
        )
    out = table.data[idx]

    def vjp(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        return (gt,)

    return _record("take_rows", out, (table,), vjp)


def take_along_last(a: Tensor, indices) -> Tensor:
    """Pick one element per row along the last axis: out[...] = a[..., idx[...]]."""
    idx = np.asarray(indices)
    if idx.shape != a.shape[:-1]:
        raise ShapeError(f"take_along_last: index shape {idx.shape} vs data shape {a.shape}")
    ii = np.expand_dims(idx, -1)
    out = np.take_along_axis(a.data, ii, axis=-1).squeeze(-1)

    def vjp(g):
        ga = np.zeros_like(a.data)
        np.put_along_axis(ga, ii, np.expand_dims(g, -1), axis=-1)
        return (ga,)

    return _record("take_along_last", np.asarray(out), (a,), vjp)


# ----------------------------------------------------------------------
# fused numerically-stable reductions over the last axis


def logsumexp(a: Tensor) -> Tensor:
    """log(sum(exp(a))) along the last axis, max-shifted for stability."""
    m = a.data.max(axis=-1, keepdims=True)
    ex = np.exp(a.data - m)
    s = ex.sum(axis=-1, keepdims=True)
    out = (np.log(s) + m).squeeze(-1)

    def vjp(g):
        return (np.expand_dims(g, -1) * (ex / s),)

    return _record("logsumexp", np.asarray(out), (a,), vjp)


def softmax(a: Tensor) -> Tensor:
    """Softmax along the last axis."""
    m = a.data.max(axis=-1, keepdims=True)
    ex = np.exp(a.data - m)
    out = ex / ex.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return ((g - dot) * out,)

    return _record("softmax", out, (a,), vjp)


# ----------------------------------------------------------------------
# finite-difference verification


def grad_check(fn: Callable[..., Tensor], inputs: Sequence[np.ndarray], eps: float = 1e-5) -> float:
    """Worst relative error between reverse-mode and central-difference gradients.

    fn maps Tensors (one per input array) to a scalar Tensor. All math runs
    in float64. Error per element is |analytic - numeric| /
    max(|analytic|, |numeric|, 1e-8); the max over every element of every
    input is returned.
    """
    base = [np.array(x, dtype=np.float64) for x in inputs]
    xs = [Tensor(b.copy(), requires_grad=True) for b in base]
    y = fn(*xs)
    if y.data.size != 1:
        raise ShapeError("grad_check target must return a scalar")
    y.backward()
    analytic = [x.grad if x.grad is not None else np.zeros_like(x.data) for x in xs]

    def value(arrays) -> float:
        with no_grad():
            return fn(*[Tensor(a) for a in arrays]).item()

    worst = 0.0
    for i, arr in enumerate(base):
        flat = arr.reshape(-1)
        ana = analytic[i].reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            up = value(base)
            flat[j] = orig - eps
            down = value(base)
            flat[j] = orig
            numeric = (up - down) / (2.0 * eps)
            err = abs(ana[j] - numeric) / max(abs(ana[j]), abs(numeric), 1e-8)
            if err > worst:
                worst = err
    return worst


def _suite_cases() -> list[tuple[str, Callable[..., Tensor], list[np.ndarray]]]:
    rng = np.random.default_rng(20250817)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    row = rng.normal(size=(4,))
    pos = rng.uniform(0.5, 2.0, size=(3, 4))
    signed_away = np.where(b < 0, b - 0.5, b + 0.5)
    idx_rows = np.array([0, 2, 1, 2])
    idx_last = rng.integers(0, 4, size=(3,))
    pick = Tensor(rng.normal(size=(3, 4)))

    cases: list[tuple[str, Callable[..., Tensor], list[np.ndarray]]] = []

    def case(name, fn, *arrays):
        cases.append((name, fn, [np.asarray(x, dtype=np.float64) for x in arrays]))

    case("add", lambda x, y: (x + y).sum(), a, b)
    case("add_broadcast", lambda x, y: (x + y).sum(), a, row)
    case("sub", lambda x, y: (x - y).sum(), a, b)
    case("mul", lambda x, y: (x * y).sum(), a, b)
    case("div", lambda x, y: (x / y).sum(), a, signed_away)
    case("neg", lambda x: neg(x).sum(), a)
    case("scale", lambda x: scale(x, -2.5).sum(), a)
    case("power", lambda x: power(x, 1.7).sum(), pos)
    case("square", lambda x: square(x).sum(), a)
    case("exp", lambda x: texp(x).sum(), a)
    case("log", lambda x: tlog(x).sum(), pos)
    case("tanh", lambda x: tanh(x).sum(), a)
    case("gelu", lambda x: gelu(x).sum(), a)
    case("matmul", lambda x, y: (x @ y).sum(), rng.normal(size=(3, 4)), rng.normal(size=(4, 2)))
    case(
        "matmul_batched",
        lambda x, y: (x @ y).sum(),
        rng.normal(size=(2, 3, 4)),
        rng.normal(size=(4, 2)),
    )
    case("sum_axis", lambda x: square(tsum(x, axis=0)).sum(), a)
    case("mean_axis", lambda x: square(tmean(x, axis=-1, keepdims=True)).sum(), a)
    case("reshape", lambda x: square(x.reshape(2, 6)).sum(), a)
    case("swapaxes", lambda x: (x.swapaxes(0, 1) @ x).sum(), a)
    case("broadcast_to", lambda x: square(broadcast_to(x, (3, 4))).sum(), row)
    case("concat", lambda x, y: square(concat([x, y], axis=-1)).sum(), a, b)
    case("take_rows", lambda t: square(take_rows(t, idx_rows)).sum(), a)
    case("take_along_last", lambda x: square(take_along_last(x, idx_last)).sum(), a)
    case("logsumexp", lambda x: square(logsumexp(x)).sum(), a)
    case("softmax", lambda x: (softmax(x) * pick).sum(), a)
    return cases


def run_gradient_suite(eps: float = 1e-5) -> dict[str, float]:
    """Finite-difference check of every registered differentiable op.

    Returns op name -> worst relative error (float64 throughout).
    """
    return {name: grad_check(fn, arrays, eps=eps) for name, fn, arrays in _suite_cases()}
