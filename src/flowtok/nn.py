"""Transformer building blocks, the AdamW optimizer and the training loop.

All blocks are pre-norm (norm, sublayer, residual) with a GELU MLP
MLP_RATIO times the model width, assembled from the autodiff primitives in
`tensor`: a dense layer, a LayerNorm and an attention each run as one
fused tape op (`tensor.dense`, `tensor.layer_norm`,
`tensor.scaled_dot_product`) once this module has checked shapes and
chosen the mask. For inference an attention layer can hold its q, k and
v projections merged into one (H, 3H) weight, run as one GEMM
(`AttentionLayer.qkv`, set by `lm.folded_adapters`). The stack owns the
learned absolute position table and the length check. Modules build in
DEFAULT_DTYPE; `Module.double` recasts one to float64 for
finite-difference checks.
Causal masking uses a finite -1e9 additive constant: exp underflows to
+0.0 for masked scores, so changing later positions leaves a prefix's
outputs bit-identical at the same length. Dropping later positions, or
feeding them one at a time through KVEntry buffers, changes the
reduction shapes, so a prefix's outputs then agree only up to rounding.

AdamW steps all trainable parameters as one flat vector, in cache-sized
blocks, with the numbers of a loop over them one at a time. `fit` walks
the model once per call; its rollback point is the arrays themselves,
which nothing in a training step writes into. Importing this module sets
glibc's allocator policy for the whole process (`_keep_freed_memory`).
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .tensor import (
    DEFAULT_DTYPE,
    NumericFault,
    ShapeError,
    Tensor,
    dense,
    gelu,
    grad_check,
    is_grad_enabled,
    layer_norm,
    matmul,
    scaled_dot_product,
    square,
    take_rows,
)


class Module:
    """Minimal container: tensors found on attributes are the state.

    Attribute walking follows insertion order, recursing through child
    modules and through lists of modules, so the name -> tensor mapping is
    deterministic. Trainable parameters are the subset with requires_grad.
    """

    def _walk(self, prefix: str = "") -> Iterator[tuple[str, Tensor | Module]]:
        """Every tensor and module below self as (name, value), in attribute
        order; a module comes just before its own contents."""
        for key, value in self.__dict__.items():
            name = f"{prefix}{key}"
            if isinstance(value, Tensor):
                yield name, value
            elif isinstance(value, Module):
                yield name, value
                yield from value._walk(f"{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield f"{name}.{i}", item
                        yield from item._walk(f"{name}.{i}.")

    def named_tensors(self) -> Iterator[tuple[str, Tensor]]:
        for name, value in self._walk():
            if isinstance(value, Tensor):
                yield name, value

    def modules(self) -> Iterator[Module]:
        """self, then every module below it, in attribute order."""
        yield self
        for _, value in self._walk():
            if isinstance(value, Module):
                yield value

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        for name, t in self.named_tensors():
            if t.requires_grad:
                yield name, t

    def double(self) -> "Module":
        """Recast every tensor to float64 in place; returns self."""
        for _, t in self.named_tensors():
            t.data = t.data.astype(np.float64)
        return self


# Width of the MLP's hidden layer, in multiples of the model width.
MLP_RATIO = 4


@dataclass
class TransformerConfig:
    """Shape of a block stack. hidden_dim must be a multiple of head_dim."""

    n_blocks: int = 2
    hidden_dim: int = 128
    head_dim: int = 32
    causal: bool = False
    max_len: int = 512

    def __post_init__(self):
        if self.hidden_dim % self.head_dim != 0:
            raise ShapeError(
                f"hidden_dim {self.hidden_dim} not divisible by head_dim {self.head_dim}"
            )
        if self.n_blocks < 1:
            raise ValueError("n_blocks must be positive")

    @property
    def n_heads(self) -> int:
        return self.hidden_dim // self.head_dim


class Linear(Module):
    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        self.weight = Tensor(rng.normal(0.0, d_in**-0.5, size=(d_in, d_out)),
                             requires_grad=True, dtype=DEFAULT_DTYPE)
        self.bias = Tensor(np.zeros(d_out), requires_grad=True, dtype=DEFAULT_DTYPE)

    def __call__(self, x: Tensor) -> Tensor:
        return dense(x, self.weight, self.bias)


LAYER_NORM_EPS = 1e-5


class LayerNorm(Module):
    """Normalizes the last axis to zero mean / unit variance, then affine."""

    def __init__(self, dim: int):
        self.gamma = Tensor(np.ones(dim), requires_grad=True, dtype=DEFAULT_DTYPE)
        self.beta = Tensor(np.zeros(dim), requires_grad=True, dtype=DEFAULT_DTYPE)

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta, LAYER_NORM_EPS)


_MASK_FILL = -1e9


# Each batch width and prompt length needs its own; only the recent ones stay.
@functools.lru_cache(maxsize=16)
def causal_mask(t: int, dtype=DEFAULT_DTYPE) -> np.ndarray:
    m = np.where(np.arange(t)[None, :] > np.arange(t)[:, None], _MASK_FILL, 0.0).astype(dtype)
    m.flags.writeable = False  # every caller shares the cached array
    return m


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, causal: bool) -> Tensor:
    """Scaled dot-product attention over already-projected q/k/v.

    Inputs are (B, T, H) with H split into n_heads; k and v may hold more
    positions than q, whose rows are then the last of k's. Scores are
    scaled by 1/sqrt(head_dim) and softmaxed per query row.
    """
    if k.shape != v.shape:
        raise ShapeError(f"attention: k/v shapes differ, {k.shape} {v.shape}")
    if q.ndim != 3 or k.ndim != 3:
        raise ShapeError(f"attention expects (B, T, H) inputs, got {q.shape} {k.shape}")
    b, t, h = q.shape
    tk = k.shape[1]
    if (k.shape[0], k.shape[2]) != (b, h) or tk < t:
        raise ShapeError(f"attention: keys {k.shape} do not cover queries {q.shape}")
    if h % n_heads != 0:
        raise ShapeError(f"width {h} not divisible by {n_heads} heads")
    # The last query row of a causal mask is all zeros, so one query needs none.
    mask = causal_mask(tk, q.dtype)[tk - t:] if causal and t > 1 else None
    return scaled_dot_product(q, k, v, n_heads, mask)


class AttentionLayer(Module):
    def __init__(self, cfg: TransformerConfig, rng: np.random.Generator, linear=Linear):
        h = cfg.hidden_dim
        self.wq = linear(h, h, rng)
        self.wk = linear(h, h, rng)
        self.wv = linear(h, h, rng)
        self.wo = linear(h, h, rng)
        self.n_heads = cfg.n_heads
        self.causal = cfg.causal
        # wq, wk and wv merged into one (H, 3H) weight and (3H,) bias, plain
        # arrays outside the model's tensors. Only inference sets them
        # (lm.folded_adapters): the q, k and v split from the one GEMM
        # carry no tape history.
        self.qkv: tuple[np.ndarray, np.ndarray] | None = None

    def __call__(self, x: Tensor, cache: KVEntry | None = None) -> Tensor:
        if self.qkv is not None:
            w, b = self.qkv
            qkv = dense(x, Tensor(w), Tensor(b)).data
            h = qkv.shape[-1] // 3
            q, k, v = Tensor(qkv[..., :h]), Tensor(qkv[..., h:2 * h]), Tensor(qkv[..., 2 * h:])
        else:
            # q before k and v: backward runs in reverse creation order, so
            # this order fixes how the input's gradient sums.
            q, k, v = self.wq(x), self.wk(x), self.wv(x)
        if cache is not None:
            k, v = cache.extend(k, v)
        return self.wo(attention(q, k, v, self.n_heads, self.causal))


class Mlp(Module):
    def __init__(self, cfg: TransformerConfig, rng: np.random.Generator, linear=Linear):
        h = cfg.hidden_dim
        self.fc1 = linear(h, MLP_RATIO * h, rng)
        self.fc2 = linear(MLP_RATIO * h, h, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(gelu(self.fc1(x)))


class TransformerBlock(Module):
    """Pre-norm residual block: x + attn(ln(x)), then x + mlp(ln(x)).

    `linear` builds all six dense layers; it is called as
    linear(d_in, d_out, rng).
    """

    def __init__(self, cfg: TransformerConfig, rng: np.random.Generator, linear=Linear):
        self.ln1 = LayerNorm(cfg.hidden_dim)
        self.attn = AttentionLayer(cfg, rng, linear=linear)
        self.ln2 = LayerNorm(cfg.hidden_dim)
        self.mlp = Mlp(cfg, rng, linear=linear)

    def __call__(self, x: Tensor, cache: KVEntry | None = None) -> Tensor:
        x = x + self.attn(self.ln1(x), cache)
        return x + self.mlp(self.ln2(x))


class KVEntry:
    """One attention layer's keys and values for every position fed so far.

    The first extend allocates a (B, max_len, H) key buffer and a value
    buffer of the same shape; every extend writes its positions into them
    in place, so a new token copies one position, not the whole context.
    The tensors extend returns are views of the filled prefix with no tape
    history, so a cache serves inference only.
    """

    def __init__(self, max_len: int):
        self.max_len = max_len
        self.k: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self.length = 0

    def __len__(self) -> int:
        return self.length

    def extend(self, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        """Write this call's positions; returns the keys and values of all."""
        if self.k is None:
            self.k = np.empty((k.shape[0], self.max_len, k.shape[2]), dtype=k.dtype)
            self.v = np.empty_like(self.k)
        start, stop = self.length, self.length + k.shape[1]
        if k.shape[::2] != self.k.shape[::2] or stop > self.max_len:
            raise ShapeError(f"KVEntry: positions {start}..{stop} of shape {k.shape} do not "
                             f"fit the {self.k.shape} buffer")
        self.k[:, start:stop] = k.data
        self.v[:, start:stop] = v.data
        self.length = stop
        return Tensor(self.k[:, :stop]), Tensor(self.v[:, :stop])


class TransformerStack(Module):
    """Learned absolute positions, cfg.n_blocks blocks, then a final LayerNorm.

    Takes (T, H) or (B, T, H) and returns the input's shape; an unbatched
    input runs as a batch of one. With a cache, one KVEntry per block, the
    input holds the positions after the cached ones, which the call writes
    in, so a new token costs one position; cached plus new stay within
    cfg.max_len, and the call must run under no_grad.
    """

    def __init__(self, cfg: TransformerConfig, rng: np.random.Generator, linear=Linear):
        self.pos = Tensor(rng.normal(0.0, 0.02, size=(cfg.max_len, cfg.hidden_dim)),
                          requires_grad=True, dtype=DEFAULT_DTYPE)
        self.blocks = [TransformerBlock(cfg, rng, linear=linear) for _ in range(cfg.n_blocks)]
        self.ln_f = LayerNorm(cfg.hidden_dim)

    def __call__(self, x: Tensor, cache: list[KVEntry] | None = None) -> Tensor:
        if x.ndim not in (2, 3):
            raise ShapeError(f"transformer stack expects (T, H) or (B, T, H), got {x.shape}")
        if x.shape[-2] == 0:
            raise ShapeError(f"transformer stack needs at least one position, got {x.shape}")
        if cache is not None and is_grad_enabled():
            # Cached keys and values carry no tape edges: the gradient
            # through earlier positions would be lost without a word.
            raise ValueError("a KV cache serves inference only; run the cached call under no_grad")
        if cache is not None and len(cache) != len(self.blocks):
            raise ShapeError(f"cache holds {len(cache)} entries for {len(self.blocks)} blocks")
        start = len(cache[0]) if cache else 0
        tlen = start + x.shape[-2]
        if tlen > self.pos.shape[0]:
            raise ShapeError(f"sequence length {tlen} exceeds max_len {self.pos.shape[0]}")
        unbatched = x.ndim == 2
        if unbatched:
            x = x.reshape(1, *x.shape)
        x = x + take_rows(self.pos, np.arange(start, tlen))
        entries = [None] * len(self.blocks) if cache is None else cache
        for block, entry in zip(self.blocks, entries):
            x = block(x, entry)
        x = self.ln_f(x)
        return x.reshape(x.shape[1:]) if unbatched else x


# ----------------------------------------------------------------------
# timestep conditioning


def timestep_features(t, dim: int, dtype=DEFAULT_DTYPE) -> Tensor:
    """Raw sinusoidal features of a diffusion time in [0, 1].

    Half the channels are sines, half cosines, over frequencies spaced
    geometrically from 1 to 1e4. Scalar t gives (dim,), a batch of times
    gives (B, dim). Output is a constant (no gradient flows into t).
    """
    if dim % 2 != 0:
        raise ShapeError(f"timestep feature dim must be even, got {dim}")
    tt = np.asarray(t, dtype=np.float64)
    if np.any(tt < 0.0) or np.any(tt > 1.0):
        raise ValueError(f"timestep outside [0, 1]: {tt.min()}..{tt.max()}")
    half = dim // 2
    if half == 1:
        freqs = np.ones(1)
    else:
        freqs = 10.0 ** (4.0 * np.arange(half) / (half - 1))
    ang = tt[..., None] * freqs
    feats = np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)
    return Tensor(feats.astype(dtype))


class TimestepEmbedding(Module):
    """Sinusoidal features pushed through a 2-layer MLP of the same width."""

    def __init__(self, dim: int, rng: np.random.Generator):
        if dim % 2 != 0:
            raise ShapeError(f"timestep embedding dim must be even, got {dim}")
        self.fc1 = Linear(dim, dim, rng)
        self.fc2 = Linear(dim, dim, rng)
        self.dim = dim

    def __call__(self, t: np.ndarray) -> Tensor:
        """t: (B,) times in [0, 1]. Returns (B, dim)."""
        feats = timestep_features(t, self.dim, dtype=self.fc1.weight.dtype)
        return self.fc2(gelu(self.fc1(feats)))


# ----------------------------------------------------------------------
# optimizer


# Elements per block of AdamW's flat update: the six float32 blocks a
# step touches at once (gradient, moments, parameters, two temporaries)
# fit a 2 MiB L2 cache. On the tok-desk model (833k float32 parameters,
# one core) the step took 5.7 ms as a loop over its 85 parameters, 5.7 ms
# in 2^20-element blocks, 4.2 ms in 2^17 and 4.0 ms in 2^16 (this size),
# and 4.9 ms in 2^14; the toy tokenizer (30k) and the fusion LM (140k)
# read the same from 2^15 up.
ADAMW_BLOCK = 1 << 16


class AdamW:
    """Adam with bias-corrected moments and decoupled weight decay, over
    the trainable parameters of model:

    p <- p - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * p)

    The parameters are stepped as one flat vector, in ADAMW_BLOCK-element
    blocks. Elementwise IEEE arithmetic does not depend on layout, so every
    number equals a loop over the parameters one at a time. Each step gives
    every parameter a fresh array, a view of that step's new flat buffer,
    and never writes into an array a caller may still hold, such as `fit`'s
    rollback point. The flat buffers need one dtype, each parameter
    reachable under one name, and at least one parameter; anything else is
    refused at construction.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, model: Module, lr: float = 1e-4, weight_decay: float = 0.0):
        params = list(model.named_parameters())
        if not params:
            raise ValueError("AdamW: the model has no trainable parameters")
        names: dict[int, str] = {}
        for name, t in params:
            if id(t) in names:
                raise ValueError(f"AdamW: one tensor is reachable as both {names[id(t)]!r} and "
                                 f"{name!r}; it would be stepped twice")
            names[id(t)] = name
        dtypes = sorted({t.dtype.name for _, t in params})
        if len(dtypes) > 1:
            raise ValueError(f"AdamW: parameters of different dtypes ({', '.join(dtypes)}) "
                             f"cannot share one flat buffer")
        self._params: list[tuple[str, Tensor]] = params
        self._dtype = params[0][1].dtype
        # Each parameter's (start, stop, shape) in the flat vectors.
        bounds = np.cumsum([0] + [t.size for _, t in params]).tolist()
        self._spans = [(a, b, t.shape) for a, b, (_, t) in zip(bounds, bounds[1:], params)]
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        n = bounds[-1]
        self._m_flat = np.zeros(n, self._dtype)
        self._v_flat = np.zeros(n, self._dtype)
        self._scratch = np.empty((2, min(n, ADAMW_BLOCK)), self._dtype)

    def step(self) -> None:
        for (name, p), (_, _, shape) in zip(self._params, self._spans):
            g = p.grad
            if g is None:
                raise ValueError(f"parameter {name!r} has no gradient; run backward first")
            if not (g.shape == p.shape == shape and g.dtype == p.dtype == self._dtype):
                raise ValueError(f"parameter {name!r} has a {g.dtype} {g.shape} gradient; it is "
                                 f"{p.dtype} {p.shape} and steps as {self._dtype} {shape}")
        self.step_count += 1
        bc1 = 1.0 - self.beta1**self.step_count
        bc2 = 1.0 - self.beta2**self.step_count
        g = np.concatenate([p.grad.reshape(-1) for _, p in self._params])
        w = np.concatenate([p.data.reshape(-1) for _, p in self._params])
        # The expression of a per-parameter loop, op for op, in place:
        # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g),
        # u = (m/bc1) / (sqrt(v/bc2) + eps) + wd*w, w = w - lr*u.
        for a in range(0, w.size, ADAMW_BLOCK):
            blk = slice(a, a + ADAMW_BLOCK)
            gb, mb, vb, wb = g[blk], self._m_flat[blk], self._v_flat[blk], w[blk]
            t, u = self._scratch[0, :gb.size], self._scratch[1, :gb.size]
            mb *= self.beta1
            mb += np.multiply(gb, 1.0 - self.beta1, out=t)
            np.multiply(gb, gb, out=t)
            t *= 1.0 - self.beta2
            vb *= self.beta2
            vb += t
            np.divide(vb, bc2, out=t)
            np.sqrt(t, out=t)
            t += self.eps
            np.divide(mb, bc1, out=u)
            u /= t
            if self.weight_decay:
                u += np.multiply(wb, self.weight_decay, out=t)
            u *= self.lr
            wb -= u
        for (_, p), (a, b, shape) in zip(self._params, self._spans):
            p.data = w[a:b].reshape(shape)

    def zero_grad(self) -> None:
        for _, p in self._params:
            p.grad = None


# ----------------------------------------------------------------------
# training loop


# glibc's mallopt parameters (malloc.h) and the largest mmap threshold
# 64-bit glibc accepts (DEFAULT_MMAP_THRESHOLD_MAX).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_MAX = 32 * 1024 * 1024


def _keep_freed_memory() -> None:
    """Stop glibc from handing freed heap memory back to the OS; runs once,
    when this module is imported.

    glibc sets its trim threshold to twice the largest mmapped chunk freed
    so far, so the tens of MB a training step or an encode frees at once are
    trimmed away and faulted in again, zero-filled, by the next. Any mallopt
    call switches those dynamic thresholds off, so the order matters: the
    mmap threshold goes to its maximum first, and only if glibc accepts that
    is trimming turned off. Turning trimming off alone would freeze the mmap
    threshold at 128 KiB and map every larger array afresh.
    Where mallopt is missing (macOS, Windows) or refuses (musl returns 0),
    nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library to ask, or no mallopt in it
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX):
        mallopt(_M_TRIM_THRESHOLD, -1)


_keep_freed_memory()


class DivergenceError(NumericFault):
    """Training loss went non-finite; the model holds the last good state."""


@dataclass
class TrainReport:
    step_losses: list[float]
    final: dict[str, float]

    @property
    def steps_run(self) -> int:
        return len(self.step_losses)


def fit(model: Module, n_items: int, loss_fn: Callable, *, rng: np.random.Generator,
        epochs: int, batch_size: int, lr: float, weight_decay: float, metrics=None,
        after_update: Callable | None = None,
        epoch_metrics: Callable[[], dict[str, float]] | None = None,
        checkpoint: Callable[[], None] | None = None) -> TrainReport:
    """Shuffled minibatch AdamW training; deterministic for a fixed rng.

    Every epoch walks one permutation of range(n_items) drawn from rng in
    batches. loss_fn(rows) returns (loss, terms, aux): the scalar loss
    tensor, per-step floats that include "loss", and whatever
    after_update(aux) needs once the optimizer has stepped. Each epoch's
    means of the terms, followed by epoch_metrics() when given, go to
    metrics, and the last epoch's become report.final; checkpoint() runs
    after every epoch.

    On a non-finite loss the model is rolled back to the most recent state
    that produced a finite loss, checkpoint() runs on that state, and
    DivergenceError is raised. That state is the arrays the tensors held,
    not copies, so nothing in a training step may write into one.
    """
    opt = AdamW(model, lr=lr, weight_decay=weight_decay)
    tensors = [t for _, t in model.named_tensors()]
    last_good = [t.data for t in tensors]
    step_losses: list[float] = []
    final: dict[str, float] = {}
    for _ in range(epochs):
        order = rng.permutation(n_items)
        sums: dict[str, float] = {}
        n_batches = 0
        for start in range(0, n_items, batch_size):
            loss, terms, aux = loss_fn(order[start:start + batch_size])
            if not math.isfinite(terms["loss"]):
                for t, saved in zip(tensors, last_good):
                    t.data = saved
                if checkpoint is not None:
                    checkpoint()
                raise DivergenceError(
                    f"non-finite loss at step {len(step_losses)}; rolled back to the last "
                    f"state with a finite loss")
            # A finite loss makes the held arrays the rollback point.
            last_good = [t.data for t in tensors]
            opt.zero_grad()
            loss.backward()
            del loss  # frees this step's graph before the next forward
            opt.step()
            if after_update is not None:
                after_update(aux)
            step_losses.append(terms["loss"])
            for key, value in terms.items():
                sums[key] = sums.get(key, 0.0) + value
            n_batches += 1
        final = {key: value / n_batches for key, value in sums.items()}
        if epoch_metrics is not None:
            final.update(epoch_metrics())
        if metrics is not None:
            for key, value in final.items():
                metrics.add(len(step_losses), "train", key, value)
        if checkpoint is not None:
            checkpoint()
    return TrainReport(step_losses=step_losses, final=final)


# ----------------------------------------------------------------------
# composite finite-difference checks (feed the grad-check suite)


def block_gradient_checks() -> dict[str, float]:
    """Finite-difference verification of the composite blocks in float64."""
    rng = np.random.default_rng(31)
    cfg = TransformerConfig(n_blocks=1, hidden_dim=8, head_dim=4, causal=False, max_len=16)
    results: dict[str, float] = {}

    ln = LayerNorm(8).double()
    x = rng.normal(size=(2, 3, 8))
    # probe with a random linear functional; sum of squares of a normalized
    # vector is nearly input-invariant, which starves the gradient
    probe = Tensor(rng.normal(size=(2, 3, 8)))
    results["layer_norm"] = grad_check(lambda t: (ln(t) * probe).sum(), [x])

    def attn_target(q, k, v):
        return square(attention(q, k, v, n_heads=2, causal=False)).sum()

    qkv = [rng.normal(size=(1, 4, 8)) for _ in range(3)]
    results["attention"] = grad_check(attn_target, qkv)

    def causal_target(q, k, v):
        return square(attention(q, k, v, n_heads=2, causal=True)).sum()

    results["attention_causal"] = grad_check(causal_target, qkv)

    mlp = Mlp(cfg, rng).double()
    results["mlp"] = grad_check(lambda t: square(mlp(t)).sum(), [rng.normal(size=(2, 3, 8))])

    block = TransformerBlock(cfg, rng).double()
    results["transformer_block"] = grad_check(lambda t: square(block(t)).sum(),
                                              [rng.normal(size=(1, 4, 8))])

    temb = TimestepEmbedding(8, rng).double()

    def temb_target(w):
        saved = temb.fc1.weight
        temb.fc1.weight = w
        try:
            return square(temb(np.array([0.375]))).sum()
        finally:
            temb.fc1.weight = saved

    results["timestep_mlp"] = grad_check(temb_target, [temb.fc1.weight.data.copy()])

    # A frozen dense layer beside a low-rank path on the same input, the
    # factored form of a LoRA layer: only the input and the factor learn.
    frozen = Linear(8, 8, rng).double()
    frozen.weight.requires_grad = frozen.bias.requires_grad = False
    down = Tensor(rng.normal(size=(8, 2)))
    results["frozen_dense_low_rank"] = grad_check(
        lambda t, up: square(frozen(t) + matmul(matmul(t, down), up)).sum(),
        [rng.normal(size=(2, 3, 8)), rng.normal(size=(2, 8))])
    return results
