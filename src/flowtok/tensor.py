"""Dense tensors with reverse-mode automatic differentiation.

NumPy arrays provide storage and arithmetic; this module adds the
gradient tape. Every differentiable operation records on its output one
edge per input that requires a gradient: the input and that input's
vector-Jacobian product. An input that needs no gradient gets no edge, so
its VJP never runs. A tensor with edges requires a gradient; a leaf is a
tensor with no edges. Every tensor carries a creation index, and an
operation's inputs always exist before its output, so reverse creation
order is a valid topological order for the chain rule: backward pops
nodes from a heap keyed on it.

`layer_norm`, `scaled_dot_product` (multi-head attention) and `dense`
(x W + b) are fused: one tape node each, with closed-form VJPs, forwards
and VJPs bit-identical to the composites of simpler ops they replace.
`dense` and `matmul` with a 2-D right operand fold the leading axes
into rows, so the forward and each VJP are one GEMM. Those forwards,
gelu's and take_rows' are array kernels (`*_forward`): the tape op
records what its kernel returns, and a decoding cache calls them bare.
Binary ops, and the operators `+`, `-`, `*` and `@`, take two Tensors; a
Python scalar enters through `scale`.

float32 is the working precision for training. Verification code builds
its tensors as float64 so finite-difference comparisons stay tight.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
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


def is_grad_enabled() -> bool:
    """Whether ops record on the tape, i.e. no no_grad block is active."""
    return _grad_enabled


_creation_counter = itertools.count()


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "op", "_edges", "_order")

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
        self._edges: Sequence[tuple[Tensor, Callable[[np.ndarray], np.ndarray]]] = ()
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

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, op={self.op!r}{flag})"

    # ------------------------------------------------------------------
    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into .grad of every requires_grad leaf.

        The walk follows edges only, and each edge's VJP runs once, so no
        gradient is formed for an input that needs none. Only leaves, the
        tensors with no edges, get .grad; intermediate results keep none.
        Repeated calls keep accumulating. The root must hold exactly one
        element.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar root, got shape {self.shape}")
        if not self.requires_grad:
            return
        # Per-call flow accumulator, kept apart from .grad so that a second
        # backward() doubles leaf gradients instead of compounding stale flow.
        # A node enters the heap when flow first reaches it; every node that
        # feeds it flow is newer, so it has all its flow when it is popped.
        flowing: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        heap = [(-self._order, self)]
        while heap:
            _, t = heapq.heappop(heap)
            g = flowing.pop(id(t))
            if not t._edges:
                t.grad = g.copy() if t.grad is None else t.grad + g
                continue
            for parent, vjp in t._edges:
                pg = vjp(g)
                if pg.shape != parent.data.shape:
                    raise ShapeError(
                        f"{t.op}: backward produced shape {pg.shape} for parent of shape {parent.data.shape}"
                    )
                pid = id(parent)
                acc = flowing.get(pid)
                if acc is None:
                    heapq.heappush(heap, (-parent._order, parent))
                flowing[pid] = pg if acc is None else acc + pg

    # ------------------------------------------------------------------
    # operator sugar over two Tensors; real work lives in the op functions
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

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


def _record(op: str, out: np.ndarray, *edges: tuple[Tensor, Callable]) -> Tensor:
    """The output of op, keeping the (input, vjp) edges whose input
    requires a gradient; it requires one itself exactly when it keeps any."""
    if _nan_checks and not np.all(np.isfinite(out)):
        raise NumericFault(f"{op} produced non-finite values")
    t = Tensor.__new__(Tensor)
    t.data = out
    t.grad = None
    t.op = op
    t._order = next(_creation_counter)
    t._edges = [e for e in edges if e[0].requires_grad] if _grad_enabled else ()
    t.requires_grad = bool(t._edges)
    return t


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Invert broadcasting: sum g over the axes that were expanded to reach its shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _binary(op: str, a: Tensor, b: Tensor, fn) -> np.ndarray:
    """fn(a.data, b.data), with a broadcast failure as a ShapeError."""
    if not (isinstance(a, Tensor) and isinstance(b, Tensor)):
        raise TypeError(f"{op} takes two Tensors; a scalar goes through scale")
    try:
        return fn(a.data, b.data)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


# ----------------------------------------------------------------------
# elementwise and arithmetic ops


def add(a: Tensor, b: Tensor) -> Tensor:
    out = _binary("add", a, b, operator.add)
    return _record("add", out,
                   (a, lambda g: _reduce_to(g, a.data.shape)),
                   (b, lambda g: _reduce_to(g, b.data.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = _binary("sub", a, b, operator.sub)
    return _record("sub", out,
                   (a, lambda g: _reduce_to(g, a.data.shape)),
                   (b, lambda g: _reduce_to(-g, b.data.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = _binary("mul", a, b, operator.mul)
    return _record("mul", out,
                   (a, lambda g: _reduce_to(g * b.data, a.data.shape)),
                   (b, lambda g: _reduce_to(g * a.data, b.data.shape)))


def div(a: Tensor, b: Tensor) -> Tensor:
    out = _binary("div", a, b, operator.truediv)
    return _record("div", out,
                   (a, lambda g: _reduce_to(g / b.data, a.data.shape)),
                   (b, lambda g: _reduce_to(-g * a.data / (b.data * b.data), b.data.shape)))


def neg(a: Tensor) -> Tensor:
    return _record("neg", -a.data, (a, lambda g: -g))


def scale(a: Tensor, s: float) -> Tensor:
    """Multiply by a plain python scalar."""
    s = float(s)
    return _record("scale", a.data * s, (a, lambda g: g * s))


def power(a: Tensor, p: float) -> Tensor:
    p = float(p)
    return _record("power", a.data**p, (a, lambda g: g * p * a.data ** (p - 1.0)))


def square(a: Tensor) -> Tensor:
    return _record("square", a.data * a.data, (a, lambda g: g * 2.0 * a.data))


def texp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _record("exp", out, (a, lambda g: g * out))


def tlog(a: Tensor) -> Tensor:
    return _record("log", np.log(a.data), (a, lambda g: g / a.data))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return _record("tanh", out, (a, lambda g: g * (1.0 - out * out)))


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_K = 0.044715


def gelu_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    th = x * x
    th *= x
    th *= _GELU_K
    th += x
    th *= _GELU_C
    np.tanh(th, out=th)
    out = th + 1.0
    out *= x
    out *= 0.5
    return out, th


def gelu(a: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh form (smooth everywhere):
    0.5 * x * (1 + tanh(C * (x + K * x**3))). Forward and VJP compute in
    place, in the operation order of the plain expressions."""
    x = a.data
    out, th = gelu_forward(x)

    def vjp(g):
        # g * (0.5 * (1 + th) + 0.5 * x * (1 - th * th) * C * (1 + 3K * x * x)),
        # in that expression's operation order.
        d_inner = x * (3.0 * _GELU_K)
        d_inner *= x
        d_inner += 1.0
        d_inner *= _GELU_C
        sech2 = th * th
        np.subtract(1.0, sech2, out=sech2)
        dx = x * 0.5
        dx *= sech2
        dx *= d_inner
        np.add(th, 1.0, out=d_inner)
        d_inner *= 0.5
        dx += d_inner
        dx *= g
        return dx

    return _record("gelu", out, (a, vjp))


# ----------------------------------------------------------------------
# linear algebra


def dense_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    out = x.reshape(-1, x.shape[-1]) @ w
    if b is not None:
        out += b
    return out.reshape(x.shape[:-1] + (w.shape[1],))


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """a @ b over the last two axes. A 2-D b (a dense layer's weight) folds
    a's leading axes into rows, so the forward and each VJP are one GEMM.
    A bias, which needs a 2-D b of N columns and the shape (N,), is added
    to the GEMM's output in place, and the node is `dense` (see dense)."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs ndim >= 2 operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} vs {b.shape}")
    if b.ndim == 2:
        x, n = a.data, b.data.shape[1]
        if bias is not None and bias.data.shape != (n,):
            raise ShapeError(f"dense: bias of shape {bias.shape} for a weight of shape {b.shape}")
        out = dense_forward(x, b.data, None if bias is None else bias.data)
        edges = ((a, lambda g: (g.reshape(-1, n) @ b.data.T).reshape(x.shape)),
                 (b, lambda g: x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, n)))
        if bias is None:
            return _record("matmul", out, *edges)
        return _record("dense", out, *edges,
                       (bias, lambda g: g.sum(axis=tuple(range(g.ndim - 1)))))
    if bias is not None:
        raise ShapeError(f"dense needs a 2-D weight, got {b.shape}")
    return _record("matmul", a.data @ b.data,
                   (a, lambda g: _reduce_to(g @ np.swapaxes(b.data, -1, -2), a.data.shape)),
                   (b, lambda g: _reduce_to(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)))


def dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for a (D, N) weight and an (N,) bias, as one tape node, bit
    for bit matmul followed by add; the bias VJP is a column sum. It runs
    inside matmul, so a profiler's span around matmul sees every GEMM."""
    return matmul(x, w, b)


# ----------------------------------------------------------------------
# reductions


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        gg = g if axis is None or keepdims else np.expand_dims(g, axis)
        return np.broadcast_to(gg, a.data.shape)

    return _record("sum", np.asarray(out), (a, vjp))


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.mean(axis=axis, keepdims=keepdims)
    n = a.data.size if axis is None else a.data.size // np.asarray(out).size

    def vjp(g):
        gg = g if axis is None or keepdims else np.expand_dims(g, axis)
        return np.broadcast_to(gg / n, a.data.shape)

    return _record("mean", np.asarray(out), (a, vjp))


# ----------------------------------------------------------------------
# shape ops


def reshape(a: Tensor, shape) -> Tensor:
    return _record("reshape", a.data.reshape(shape), (a, lambda g: g.reshape(a.data.shape)))


def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    return _record("swapaxes", np.swapaxes(a.data, ax1, ax2),
                   (a, lambda g: np.swapaxes(g, ax1, ax2)))


def broadcast_to(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    try:
        out = np.broadcast_to(a.data, shape).copy()
    except ValueError:
        raise ShapeError(f"broadcast_to: cannot expand {a.shape} to {shape}") from None
    return _record("broadcast_to", out, (a, lambda g: _reduce_to(g, a.data.shape)))


def concat(parts: Sequence[Tensor], axis: int = -1) -> Tensor:
    parts = list(parts)
    if not parts:
        raise ShapeError("concat of zero tensors")
    out = np.concatenate([p.data for p in parts], axis=axis)
    # Each part's edge copies its own span of g out, contiguous.
    lead = (slice(None),) * (axis % out.ndim)
    edges = []
    start = 0
    for p in parts:
        stop = start + p.data.shape[axis]
        span = lead + (slice(start, stop),)
        edges.append((p, lambda g, span=span: np.ascontiguousarray(g[span])))
        start = stop
    return _record("concat", out, *edges)


# ----------------------------------------------------------------------
# indexing


def take_rows_forward(table: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """table[idx], refusing an index NumPy would wrap or fail on."""
    if table.ndim != 2:
        raise ShapeError(f"take_rows expects a 2-D table, got {table.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeError(f"take_rows: index out of range [0, {table.shape[0]}), got extremes "
                         f"({idx.min()}, {idx.max()})")
    return table[idx]


def take_rows(table: Tensor, indices) -> Tensor:
    """Row lookup table[indices]; the embedding primitive.

    indices may have any shape; output shape is indices.shape + (row_dim,).
    Backward scatter-adds, so repeated indices accumulate.
    """
    idx = np.asarray(indices)

    def vjp(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        return gt

    return _record("take_rows", take_rows_forward(table.data, idx), (table, vjp))


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
        return ga

    return _record("take_along_last", np.asarray(out), (a, vjp))


# ----------------------------------------------------------------------
# fused numerically-stable reductions over the last axis


def logsumexp(a: Tensor) -> Tensor:
    """log(sum(exp(a))) along the last axis, max-shifted for stability."""
    m = a.data.max(axis=-1, keepdims=True)
    ex = np.exp(a.data - m)
    s = ex.sum(axis=-1, keepdims=True)
    out = (np.log(s) + m).squeeze(-1)
    return _record("logsumexp", np.asarray(out), (a, lambda g: np.expand_dims(g, -1) * (ex / s)))


def softmax(a: Tensor) -> Tensor:
    """Softmax along the last axis."""
    m = a.data.max(axis=-1, keepdims=True)
    ex = np.exp(a.data - m)
    out = ex / ex.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (g - dot) * out

    return _record("softmax", out, (a, vjp))


def layer_norm_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float):
    n = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True)
    mu /= n
    centered = x - mu
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True)
    var /= n
    rstd = (var + x.dtype.type(eps)) ** -0.5
    xhat = centered * rstd
    return xhat * gamma + beta, xhat, rstd


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then
    x_hat * gamma + beta, as one tape node (Ba et al., 2016).

    The VJPs are the closed form: with d = g * gamma,
    dx = rstd * (d - mean(d) - x_hat * mean(d * x_hat)).
    """
    n = x.shape[-1]
    out, xhat, rstd = layer_norm_forward(x.data, gamma.data, beta.data, eps)

    def vjp_x(g):
        d = g * gamma.data
        mean_d = np.add.reduce(d, axis=-1, keepdims=True)
        mean_d /= n
        dx = d - mean_d
        mean_dx = np.add.reduce(d * xhat, axis=-1, keepdims=True)
        mean_dx /= n
        dx -= xhat * mean_dx
        dx *= rstd
        return dx

    return _record("layer_norm", out,
                   (x, vjp_x),
                   (gamma, lambda g: _reduce_to(g * xhat, gamma.data.shape)),
                   (beta, lambda g: _reduce_to(g, beta.data.shape)))


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """(B, T, H) -> (B, n_heads, T, H / n_heads)."""
    return x.reshape(*x.shape[:2], n_heads, x.shape[2] // n_heads).swapaxes(1, 2)


def scaled_dot_product_forward(q: np.ndarray, k: np.ndarray, v: np.ndarray, n_heads: int,
                               mask: np.ndarray | None):
    """(out, p, (qh, kh, vh)): p is the softmax, qh, kh and vh per head."""
    qh, kh, vh = _split_heads(q, n_heads), _split_heads(k, n_heads), _split_heads(v, n_heads)
    p = qh @ kh.swapaxes(-1, -2)
    p *= kh.shape[-1] ** -0.5
    if mask is not None:
        p += mask
    p -= np.maximum.reduce(p, axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    return (p @ vh).swapaxes(1, 2).reshape(q.shape), p, (qh, kh, vh)


def scaled_dot_product(q: Tensor, k: Tensor, v: Tensor, n_heads: int,
                       mask: np.ndarray | None = None) -> Tensor:
    """softmax(q k^T / sqrt(head_dim) + mask) v per head, as one tape node.

    q is (B, T, H) and k, v are (B, Tk, H), H split into n_heads; mask,
    when given, is added to the (T, Tk) scores. The q and k VJPs share
    dS = P * (dP - rowsum(dP * P)) * scale, formed once per incoming
    gradient; the v VJP is P^T g.
    """
    out, p, (qh, kh, vh) = scaled_dot_product_forward(q.data, k.data, v.data, n_heads, mask)
    factor = kh.shape[-1] ** -0.5
    memo: dict[str, np.ndarray] = {}

    def merged(x: np.ndarray, like: Tensor) -> np.ndarray:
        return x.swapaxes(1, 2).reshape(like.shape)

    def d_scores(g: np.ndarray) -> np.ndarray:
        if memo.get("g") is not g:
            dp = _split_heads(g, n_heads) @ vh.swapaxes(-1, -2)
            dp -= np.add.reduce(dp * p, axis=-1, keepdims=True)
            dp *= p
            dp *= factor
            memo["g"], memo["ds"] = g, dp
        return memo["ds"]

    return _record("scaled_dot_product", out,
                   (q, lambda g: merged(d_scores(g) @ kh, q)),
                   (k, lambda g: merged(d_scores(g).swapaxes(-1, -2) @ qh, k)),
                   (v, lambda g: merged(p.swapaxes(-1, -2) @ _split_heads(g, n_heads), v)))


# ----------------------------------------------------------------------
# finite-difference verification


def grad_check(fn: Callable[..., Tensor], inputs: Sequence[np.ndarray]) -> float:
    """Worst relative error between reverse-mode and central-difference gradients.

    fn maps Tensors (one per input array) to a scalar Tensor. All math runs
    in float64, with each input element moved by +-eps. Error per element
    is |analytic - numeric| / max(|analytic|, |numeric|, 1e-8); the max
    over every element of every input is returned.
    """
    eps = 1e-5
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
    # A constant operand: its edge is dropped, so only the other one's VJP runs.
    frozen = Tensor(b)

    cases: list[tuple[str, Callable[..., Tensor], list[np.ndarray]]] = []

    def case(name, fn, *arrays):
        cases.append((name, fn, [np.asarray(x, dtype=np.float64) for x in arrays]))

    case("add", lambda x, y: (x + y).sum(), a, b)
    case("add_broadcast", lambda x, y: (x + y).sum(), a, row)
    case("sub", lambda x, y: (x - y).sum(), a, b)
    case("mul", lambda x, y: (x * y).sum(), a, b)
    case("mul_const", lambda x: square(x * frozen).sum(), a)
    case("div", lambda x, y: div(x, y).sum(), a, signed_away)
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
    case("matmul_const_right", lambda x: square(x @ swapaxes(frozen, 0, 1)).sum(), a)
    case("sum_axis", lambda x: square(tsum(x, axis=0)).sum(), a)
    case("mean_axis", lambda x: square(tmean(x, axis=-1, keepdims=True)).sum(), a)
    case("reshape", lambda x: square(x.reshape(2, 6)).sum(), a)
    case("swapaxes", lambda x: (swapaxes(x, 0, 1) @ x).sum(), a)
    case("broadcast_to", lambda x: square(broadcast_to(x, (3, 4))).sum(), row)
    case("concat", lambda x, y: square(concat([x, y], axis=-1)).sum(), a, b)
    case("concat_const_part", lambda x: square(concat([frozen, x], axis=0)).sum(), a)
    case("take_rows", lambda t: square(take_rows(t, idx_rows)).sum(), a)
    case("take_along_last", lambda x: square(take_along_last(x, idx_last)).sum(), a)
    case("logsumexp", lambda x: square(logsumexp(x)).sum(), a)
    case("softmax", lambda x: (softmax(x) * pick).sum(), a)
    case("layer_norm", lambda x, w, c: (layer_norm(x, w, c, 1e-5) * pick).sum(), a, row, b[0])
    # Three queries over four keys under a causal mask: the rows a KV cache
    # feeds, with the mask's last rows.
    causal = np.triu(np.full((4, 4), -1e9), 1)[1:]
    probe = Tensor(rng.normal(size=(1, 3, 4)))
    case("attention", lambda q, k, v: (scaled_dot_product(q, k, v, 2, causal) * probe).sum(),
         rng.normal(size=(1, 3, 4)), rng.normal(size=(1, 4, 4)), rng.normal(size=(1, 4, 4)))
    case("dense", lambda x, w, c: square(dense(x, w, c)).sum(), a, rng.normal(size=(4, 2)),
         rng.normal(size=(2,)))
    case("dense_batched", lambda x, w, c: square(dense(x, w, c)).sum(),
         rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 2)), rng.normal(size=(2,)))
    case("dense_const_input", lambda w, c: square(dense(frozen, w, c)).sum(),
         rng.normal(size=(4, 2)), rng.normal(size=(2,)))
    return cases


def run_gradient_suite() -> dict[str, float]:
    """Finite-difference check of every registered differentiable op.

    Returns op name -> worst relative error (float64 throughout).
    """
    return {name: grad_check(fn, arrays) for name, fn, arrays in _suite_cases()}
