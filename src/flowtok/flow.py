"""Conditional flow matching with the optimal-transport path, plus the
conditional transformer decoder that regresses the velocity field.

The probability path runs from a standard Gaussian at t=0 to a thin
Gaussian around the data at t=1:

    x_t = ((1 - t) + sigma_min * t) * x0 + t * x1
    u_t = x1 - (1 - sigma_min) * x0

The path coefficient is written as (1 - t) + sigma_min * t rather than
1 - (1 - sigma_min) * t so the endpoint identities x_0 = x0 and
x_1 = sigma_min * x0 + x1 hold exactly in floating point, not just to
rounding. Sampling integrates the learned field with fixed-step Euler.

The deterministic regression baseline is this objective on the path
pinned at t = 0 from a zero state, where x_t = 0 and u_t = x1: the same
decoder regresses the clip itself, so both objectives train exactly the
same parameter set with the same loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import Linear, Module, TimestepEmbedding, TransformerConfig, TransformerStack
from .tensor import NumericFault, ShapeError, Tensor, concat, square

OBJECTIVE_FLOW = "fm"
OBJECTIVE_MSE = "mse"
OBJECTIVES = (OBJECTIVE_FLOW, OBJECTIVE_MSE)


@dataclass
class OtCfmConfig:
    """Path width and sampler resolution."""

    sigma_min: float = 1e-4
    # Euler steps, one decoder pass each. Gate: frame Fréchet (over all N*T
    # frames, `frechet_frame` of `flowtok eval`) within 25% of 32 steps'.
    # Two converged gen-data `fm` tokenizers, val split, mean of noise seeds
    # 0-2, ratio to 32 steps: 16 steps read 1.075 (120 epochs at lr 1e-4)
    # and 1.014 (40 epochs at 3e-4); 8 steps failed the first at 1.27.
    n_sample_steps: int = 16

    def __post_init__(self):
        if not 0.0 <= self.sigma_min < 1.0:
            raise ValueError(f"sigma_min must be in [0, 1), got {self.sigma_min}")
        if self.n_sample_steps < 1:
            raise ValueError(f"n_sample_steps must be >= 1, got {self.n_sample_steps}")


@dataclass
class FlowSample:
    """One training draw: time, interpolant, and target velocity."""

    t: np.ndarray | float
    x_t: np.ndarray
    u_t: np.ndarray


def sample_path(x1: np.ndarray, rng: np.random.Generator, cfg: OtCfmConfig,
                t=None, x0: np.ndarray | None = None) -> FlowSample:
    """Draw (t, x0) and build the interpolant and its target velocity.

    t defaults to U[0,1] (scalar for a single clip, one value per leading
    item when x1 is batched); x0 defaults to a standard normal. The
    regression objective pins both (t = 0, x0 = 0), and then nothing is
    drawn from rng.
    """
    x1 = np.asarray(x1)
    batched = x1.ndim == 3
    if t is None:
        t = rng.uniform(size=x1.shape[0]) if batched else float(rng.uniform())
    if x0 is None:
        x0 = rng.standard_normal(x1.shape)
    x0 = np.asarray(x0, dtype=x1.dtype)
    if x0.shape != x1.shape:
        raise ShapeError(f"sample_path: x0 shape {x0.shape} vs x1 shape {x1.shape}")
    t_arr = np.asarray(t, dtype=x1.dtype)
    coeff = (1.0 - t_arr) + cfg.sigma_min * t_arr
    if t_arr.ndim:
        coeff = coeff.reshape(t_arr.shape + (1,) * (x1.ndim - t_arr.ndim))
    x_t = coeff * x0 + t_arr.reshape(coeff.shape if t_arr.ndim else ()) * x1
    u_t = x1 - (1.0 - cfg.sigma_min) * x0
    return FlowSample(t=t, x_t=x_t, u_t=u_t)


def cfm_loss(predicted: Tensor, target) -> Tensor:
    """Mean squared error between predicted and target velocity fields."""
    target = target if isinstance(target, Tensor) else Tensor(np.asarray(target, dtype=predicted.dtype))
    if predicted.shape != target.shape:
        raise ShapeError(f"cfm_loss: shapes differ, {predicted.shape} vs {target.shape}")
    return square(predicted - target.detach()).mean()


class DitDecoder(Module):
    """Non-causal conditional velocity network.

    The noisy state and the conditioning sequence are concatenated along
    channels, projected to the hidden width, and every position receives
    the same projected timestep embedding; the stack then adds its learned
    position embedding. The output projection maps back to the data width.
    """

    def __init__(self, data_dim: int, cond_dim: int, cfg: TransformerConfig,
                 timestep_dim: int, rng: np.random.Generator):
        if cfg.causal:
            raise ValueError("the decoder attends bidirectionally; pass a non-causal config")
        self.in_proj = Linear(data_dim + cond_dim, cfg.hidden_dim, rng)
        self.t_embed = TimestepEmbedding(timestep_dim, rng)
        self.t_proj = Linear(timestep_dim, cfg.hidden_dim, rng)
        self.stack = TransformerStack(cfg, rng)
        self.out_proj = Linear(cfg.hidden_dim, data_dim, rng)
        self.data_dim = data_dim

    def __call__(self, x_t, t, cond) -> Tensor:
        """x_t: (B, T, data_dim) or (T, data_dim); t: scalar or (B,);
        cond: matching (.., T, cond_dim). Returns the velocity, same shape
        as x_t."""
        x_t = x_t if isinstance(x_t, Tensor) else Tensor(np.asarray(x_t, dtype=np.float32))
        cond = cond if isinstance(cond, Tensor) else Tensor(np.asarray(cond, dtype=np.float32))
        if x_t.shape[:-1] != cond.shape[:-1]:
            raise ShapeError(
                f"decoder: state {x_t.shape} and conditioning {cond.shape} disagree on (B, T)"
            )
        batch = x_t.shape[:-2]
        if np.ndim(t) and np.shape(t) != (batch or (1,)):
            raise ShapeError(f"decoder: timestep shape {np.shape(t)} vs state {x_t.shape}")
        times = np.broadcast_to(np.asarray(t, dtype=np.float64), batch or (1,))
        te = self.t_proj(self.t_embed(times))
        h = self.in_proj(concat([x_t, cond], axis=-1)) + te.reshape(*batch, 1, te.shape[-1])
        return self.out_proj(self.stack(h))


def euler_sample(cond, velocity, cfg: OtCfmConfig, rng: np.random.Generator,
                 x0: np.ndarray | None = None, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """Integrate dx/dt = velocity(x, t, cond) from t=0 to 1 in fixed steps.

    x0 defaults to a standard normal of `shape` (itself defaulting to the
    conditioning's shape), rounded to the conditioning's dtype, so float32
    conditioning keeps a float32 state. Any non-finite state aborts with the
    step named.
    """
    cond_arr = cond.data if isinstance(cond, Tensor) else np.asarray(cond)
    if x0 is None:
        x0 = rng.standard_normal(shape if shape is not None else cond_arr.shape)
        x0 = x0.astype(cond_arr.dtype)
    x = np.array(x0, dtype=np.float64 if np.asarray(x0).dtype == np.float64 else np.float32)
    n = cfg.n_sample_steps
    for i in range(n):
        v = velocity(x, i / n, cond)
        v = v.data if isinstance(v, Tensor) else np.asarray(v)
        x = x + v.astype(x.dtype) / n
        if not np.all(np.isfinite(x)):
            raise NumericFault(f"non-finite state at integration step {i} of {n}")
    return x


def mse_reconstruct(cond, model) -> np.ndarray:
    """Deterministic single-shot decode: timestep 0, zero state input."""
    cond_arr = cond.data if isinstance(cond, Tensor) else np.asarray(cond)
    out = model(np.zeros_like(cond_arr, shape=cond_arr.shape[:-1] + (model.data_dim,)), 0.0, cond)
    return out.data if isinstance(out, Tensor) else np.asarray(out)
