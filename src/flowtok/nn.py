"""Transformer building blocks, the AdamW optimizer and the training loop.

All blocks are pre-norm (norm, sublayer, residual) with a 4x GELU MLP,
assembled from the autodiff primitives in `tensor`; each model owns its
learned absolute position table. Causal masking uses a finite -1e9 additive
constant: exp underflows to +0.0 for masked scores, which keeps prefix
outputs bit-identical whether or not later positions are present.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .tensor import (
    DEFAULT_DTYPE,
    NumericFault,
    ShapeError,
    Tensor,
    gelu,
    grad_check,
    matmul,
    power,
    scale,
    softmax,
    square,
    swapaxes,
    tmean,
)


class Module:
    """Minimal container: tensors found on attributes are the state.

    Attribute walking follows insertion order, recursing through child
    modules and through lists of modules, so the name -> tensor mapping is
    deterministic. Trainable parameters are the subset with requires_grad.
    """

    def named_tensors(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for key, value in self.__dict__.items():
            name = f"{prefix}{key}"
            if isinstance(value, Tensor):
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_tensors(f"{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Tensor):
                        yield f"{name}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_tensors(f"{name}.{i}.")

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        for name, t in self.named_tensors():
            if t.requires_grad:
                yield name, t

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def zero_grad(self) -> None:
        for _, t in self.named_tensors():
            t.grad = None

    def parameter_count(self) -> int:
        return sum(t.size for _, t in self.named_parameters())


@dataclass
class TransformerConfig:
    """Shape of a block stack. hidden_dim must be a multiple of head_dim."""

    n_blocks: int = 2
    hidden_dim: int = 128
    head_dim: int = 32
    causal: bool = False
    max_len: int = 512
    mlp_ratio: int = 4

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

    @classmethod
    def paper_preset(cls, causal: bool, max_len: int = 512) -> "TransformerConfig":
        return cls(n_blocks=12, hidden_dim=768, head_dim=64, causal=causal, max_len=max_len)


class Linear(Module):
    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator, dtype=DEFAULT_DTYPE):
        self.weight = Tensor(rng.normal(0.0, d_in**-0.5, size=(d_in, d_out)),
                             requires_grad=True, dtype=dtype)
        self.bias = Tensor(np.zeros(d_out), requires_grad=True, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return matmul(x, self.weight) + self.bias


class LayerNorm(Module):
    """Normalizes the last axis to zero mean / unit variance, then affine."""

    def __init__(self, dim: int, eps: float = 1e-5, dtype=DEFAULT_DTYPE):
        self.gamma = Tensor(np.ones(dim), requires_grad=True, dtype=dtype)
        self.beta = Tensor(np.zeros(dim), requires_grad=True, dtype=dtype)
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        centered = x - tmean(x, axis=-1, keepdims=True)
        var = tmean(square(centered), axis=-1, keepdims=True)
        normed = centered * power(var + self.eps, -0.5)
        return normed * self.gamma + self.beta


_MASK_FILL = -1e9
_mask_cache: dict[tuple[int, str], np.ndarray] = {}


def causal_mask(t: int, dtype=DEFAULT_DTYPE) -> np.ndarray:
    key = (t, np.dtype(dtype).name)
    m = _mask_cache.get(key)
    if m is None:
        m = np.where(np.arange(t)[None, :] > np.arange(t)[:, None], _MASK_FILL, 0.0).astype(dtype)
        _mask_cache[key] = m
    return m


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, causal: bool) -> Tensor:
    """Scaled dot-product attention over already-projected q/k/v.

    Inputs are (B, T, H) with H split into n_heads. Scores are scaled by
    1/sqrt(head_dim) and softmaxed per query row.
    """
    if not (q.shape == k.shape == v.shape):
        raise ShapeError(f"attention: q/k/v shapes differ, {q.shape} {k.shape} {v.shape}")
    if q.ndim != 3:
        raise ShapeError(f"attention expects (B, T, H) inputs, got {q.shape}")
    b, t, h = q.shape
    if h % n_heads != 0:
        raise ShapeError(f"width {h} not divisible by {n_heads} heads")
    dh = h // n_heads

    def split(x: Tensor) -> Tensor:
        return swapaxes(x.reshape(b, t, n_heads, dh), 1, 2)

    qh, kh, vh = split(q), split(k), split(v)
    scores = scale(matmul(qh, swapaxes(kh, -1, -2)), dh**-0.5)
    if causal:
        scores = scores + Tensor(causal_mask(t, q.dtype))
    out = matmul(softmax(scores), vh)
    return swapaxes(out, 1, 2).reshape(b, t, h)


class AttentionLayer(Module):
    def __init__(self, cfg: TransformerConfig, rng: np.random.Generator, dtype=DEFAULT_DTYPE,
                 linear=Linear):
        h = cfg.hidden_dim
        self.wq = linear(h, h, rng, dtype=dtype)
        self.wk = linear(h, h, rng, dtype=dtype)
        self.wv = linear(h, h, rng, dtype=dtype)
        self.wo = linear(h, h, rng, dtype=dtype)
        self.n_heads = cfg.n_heads
        self.causal = cfg.causal

    def __call__(self, x: Tensor) -> Tensor:
        return self.wo(attention(self.wq(x), self.wk(x), self.wv(x), self.n_heads, self.causal))


class Mlp(Module):
    def __init__(self, cfg: TransformerConfig, rng: np.random.Generator, dtype=DEFAULT_DTYPE,
                 linear=Linear):
        h = cfg.hidden_dim
        self.fc1 = linear(h, cfg.mlp_ratio * h, rng, dtype=dtype)
        self.fc2 = linear(cfg.mlp_ratio * h, h, rng, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(gelu(self.fc1(x)))


class TransformerBlock(Module):
    """Pre-norm residual block: x + attn(ln(x)), then x + mlp(ln(x)).

    `linear` builds all six dense layers; it is called as
    linear(d_in, d_out, rng, dtype=dtype).
    """

    def __init__(self, cfg: TransformerConfig, rng: np.random.Generator, dtype=DEFAULT_DTYPE,
                 linear=Linear):
        self.ln1 = LayerNorm(cfg.hidden_dim, dtype=dtype)
        self.attn = AttentionLayer(cfg, rng, dtype=dtype, linear=linear)
        self.ln2 = LayerNorm(cfg.hidden_dim, dtype=dtype)
        self.mlp = Mlp(cfg, rng, dtype=dtype, linear=linear)

    def __call__(self, x: Tensor) -> Tensor:
        x = x + self.attn(self.ln1(x))
        return x + self.mlp(self.ln2(x))


class TransformerStack(Module):
    """cfg.n_blocks blocks, then a final LayerNorm."""

    def __init__(self, cfg: TransformerConfig, rng: np.random.Generator, dtype=DEFAULT_DTYPE,
                 linear=Linear):
        self.blocks = [TransformerBlock(cfg, rng, dtype=dtype, linear=linear)
                       for _ in range(cfg.n_blocks)]
        self.ln_f = LayerNorm(cfg.hidden_dim, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        for block in self.blocks:
            x = block(x)
        return self.ln_f(x)


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

    def __init__(self, dim: int, rng: np.random.Generator, dtype=DEFAULT_DTYPE):
        if dim % 2 != 0:
            raise ShapeError(f"timestep embedding dim must be even, got {dim}")
        self.fc1 = Linear(dim, dim, rng, dtype=dtype)
        self.fc2 = Linear(dim, dim, rng, dtype=dtype)
        self.dim = dim
        self._dtype = dtype

    def __call__(self, t) -> Tensor:
        feats = timestep_features(t, self.dim, dtype=self._dtype)
        if feats.ndim == 1:
            feats = feats.reshape(1, self.dim)
        return self.fc2(gelu(self.fc1(feats)))


# ----------------------------------------------------------------------
# optimizer


class AdamW:
    """Adam with bias-corrected moments and decoupled weight decay.

    p <- p - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * p)

    params is a Module (its trainable parameters) or (name, tensor) pairs.
    """

    def __init__(self, params, lr: float = 1e-4, betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        self._params: list[tuple[str, Tensor]] = (
            list(params.named_parameters()) if isinstance(params, Module) else list(params))
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = [np.zeros_like(t.data) for _, t in self._params]
        self._v = [np.zeros_like(t.data) for _, t in self._params]

    def step(self) -> None:
        self.step_count += 1
        bc1 = 1.0 - self.beta1**self.step_count
        bc2 = 1.0 - self.beta2**self.step_count
        for i, (name, p) in enumerate(self._params):
            g = p.grad
            if g is None:
                raise ValueError(f"parameter {name!r} has no gradient; run backward first")
            m = self._m[i] = self.beta1 * self._m[i] + (1.0 - self.beta1) * g
            v = self._v[i] = self.beta2 * self._v[i] + (1.0 - self.beta2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data = p.data - self.lr * update

    def zero_grad(self) -> None:
        for _, p in self._params:
            p.grad = None


# ----------------------------------------------------------------------
# training loop


class DivergenceError(NumericFault):
    """Training loss went non-finite; the model holds the last good state."""


@dataclass
class TrainReport:
    epochs_run: int
    steps_run: int
    step_losses: list[float]
    final: dict[str, float]


def fit(model: Module, n_items: int, loss_fn: Callable, *, rng: np.random.Generator,
        epochs: int, batch_size: int, lr: float, weight_decay: float, metrics=None,
        max_steps: int | None = None, after_update: Callable | None = None,
        epoch_metrics: Callable[[], dict[str, float]] | None = None,
        checkpoint: Callable[[], None] | None = None) -> TrainReport:
    """Shuffled minibatch AdamW training; deterministic for a fixed rng.

    Every epoch walks one permutation of range(n_items) drawn from rng in
    batches. loss_fn(rows) returns (loss, terms, aux): the scalar loss
    tensor, per-step floats that include "loss", and whatever
    after_update(aux) needs once the optimizer has stepped. The epoch means
    of the terms, followed by epoch_metrics() when given, become
    report.final and go to metrics; checkpoint() runs after every epoch.

    On a non-finite loss the model is rolled back to the most recent state
    that produced a finite loss, checkpoint() runs on that state, and
    DivergenceError is raised.
    """
    opt = AdamW(model, lr=lr, weight_decay=weight_decay)
    last_good = {name: t.data.copy() for name, t in model.named_tensors()}
    step_losses: list[float] = []
    final: dict[str, float] = {}
    steps_run = 0
    epochs_run = 0
    for epoch in range(epochs):
        order = rng.permutation(n_items)
        sums: dict[str, float] = {}
        n_batches = 0
        for start in range(0, n_items, batch_size):
            loss, terms, aux = loss_fn(order[start:start + batch_size])
            if not math.isfinite(terms["loss"]):
                for name, t in model.named_tensors():
                    t.data = last_good[name]
                if checkpoint is not None:
                    checkpoint()
                raise DivergenceError(
                    f"non-finite loss at step {steps_run}; rolled back to the last "
                    f"state with a finite loss")
            # A finite loss certifies the current parameters; they become the
            # rollback point before the optimizer mutates them.
            for name, t in model.named_tensors():
                np.copyto(last_good[name], t.data)
            opt.zero_grad()
            loss.backward()
            opt.step()
            if after_update is not None:
                after_update(aux)
            step_losses.append(terms["loss"])
            for key, value in terms.items():
                sums[key] = sums.get(key, 0.0) + value
            n_batches += 1
            steps_run += 1
            if max_steps is not None and steps_run >= max_steps:
                break
        final = {key: value / n_batches for key, value in sums.items()}
        if epoch_metrics is not None:
            final.update(epoch_metrics())
        if metrics is not None:
            for key, value in final.items():
                metrics.add(steps_run, "train", key, value)
        epochs_run = epoch + 1
        if checkpoint is not None:
            checkpoint()
        if max_steps is not None and steps_run >= max_steps:
            break
    return TrainReport(epochs_run=epochs_run, steps_run=steps_run,
                       step_losses=step_losses, final=final)


# ----------------------------------------------------------------------
# composite finite-difference checks (feed the grad-check suite)


def block_gradient_checks(eps: float = 1e-5) -> dict[str, float]:
    """Finite-difference verification of the composite blocks in float64."""
    rng = np.random.default_rng(31)
    cfg = TransformerConfig(n_blocks=1, hidden_dim=8, head_dim=4, causal=False, max_len=16)
    results: dict[str, float] = {}

    ln = LayerNorm(8, dtype=np.float64)
    x = rng.normal(size=(2, 3, 8))
    # probe with a random linear functional; sum of squares of a normalized
    # vector is nearly input-invariant, which starves the gradient
    probe = Tensor(rng.normal(size=(2, 3, 8)))
    results["layer_norm"] = grad_check(lambda t: (ln(t) * probe).sum(), [x], eps=eps)

    def attn_target(q, k, v):
        return square(attention(q, k, v, n_heads=2, causal=False)).sum()

    qkv = [rng.normal(size=(1, 4, 8)) for _ in range(3)]
    results["attention"] = grad_check(attn_target, qkv, eps=eps)

    def causal_target(q, k, v):
        return square(attention(q, k, v, n_heads=2, causal=True)).sum()

    results["attention_causal"] = grad_check(causal_target, qkv, eps=eps)

    mlp = Mlp(cfg, rng, dtype=np.float64)
    results["mlp"] = grad_check(lambda t: square(mlp(t)).sum(), [rng.normal(size=(2, 3, 8))], eps=eps)

    block = TransformerBlock(cfg, rng, dtype=np.float64)
    results["transformer_block"] = grad_check(
        lambda t: square(block(t)).sum(), [rng.normal(size=(1, 4, 8))], eps=eps
    )

    temb = TimestepEmbedding(8, rng, dtype=np.float64)

    def temb_target(w):
        saved = temb.fc1.weight
        temb.fc1.weight = w
        try:
            return square(temb(0.375)).sum()
        finally:
            temb.fc1.weight = saved

    results["timestep_mlp"] = grad_check(temb_target, [temb.fc1.weight.data.copy()], eps=eps)
    return results
