"""Causal tokenizer: encoder, quantizer, and generative decoder as one model.

The encoder reads latent clips left to right under a causal mask, so the
token at frame t depends only on frames up to t. The decoder reconstructs
clips from the quantized codes, either as a velocity field integrated from
noise ("flow") or as a single deterministic regression pass ("mse"). Both
variants share the architecture, parameter count and decoder loss; the
regression trains on the flow path pinned at t = 0 from a zero state, so
only the path draw and the decode rule differ. `decode_tokens` draws the
flow's start noise; its caller sets the Euler step count, not the model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import LatentDataset, MetricsLog, save_checkpoint
from .flow import OBJECTIVE_FLOW, OBJECTIVE_MSE, OBJECTIVES, DitDecoder, N_SAMPLE_STEPS, cfm_loss, euler_sample, mse_reconstruct, sample_path
from .nn import Linear, Module, TrainReport, TransformerConfig, TransformerStack, fit
from .tensor import DEFAULT_DTYPE, ShapeError, Tensor, no_grad, scale
from .vq import Codebook, codebook_maintenance, codebook_perplexity, index_histogram, nearest_entries, quantize, straight_through


@dataclass
class TokenizerConfig:
    frames: int = 32
    data_dim: int = 16
    code_dim: int = 16
    codebook_size: int = 256
    objective: str = OBJECTIVE_FLOW
    encoder: TransformerConfig = field(
        default_factory=lambda: TransformerConfig(n_blocks=2, hidden_dim=128, head_dim=32,
                                                  causal=True, max_len=32))
    decoder: TransformerConfig = field(
        default_factory=lambda: TransformerConfig(n_blocks=2, hidden_dim=128, head_dim=32,
                                                  causal=False, max_len=32))
    sigma_min: float = 1e-4  # width of the flow path at the data end
    timestep_dim: int = 64
    lr: float = 1e-4
    weight_decay: float = 0.01
    epochs: int = 10
    batch_size: int = 16
    commitment_weight: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {sorted(OBJECTIVES)}, got {self.objective!r}")
        if not 0.0 <= self.sigma_min < 1.0:
            raise ValueError(f"sigma_min must be in [0, 1), got {self.sigma_min}")
        if not self.encoder.causal:
            raise ValueError("encoder config must be causal")
        if self.decoder.causal:
            raise ValueError("decoder config must be non-causal")
        for cfg_name, cfg in (("encoder", self.encoder), ("decoder", self.decoder)):
            if cfg.max_len < self.frames:
                raise ValueError(f"{cfg_name} max_len {cfg.max_len} < frames {self.frames}")


class CausalEncoder(Module):
    """Maps a latent clip (T, D) or a batch (B, T, D) to continuous codes of
    width code_dim, with position t a function of frames 0..t only."""

    def __init__(self, data_dim: int, code_dim: int, cfg: TransformerConfig,
                 rng: np.random.Generator):
        if not cfg.causal:
            raise ShapeError("CausalEncoder requires a causal transformer config")
        self.in_proj = Linear(data_dim, cfg.hidden_dim, rng)
        self.stack = TransformerStack(cfg, rng)
        self.out_proj = Linear(cfg.hidden_dim, code_dim, rng)
        self.data_dim = data_dim

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1:] != (self.data_dim,):
            raise ShapeError(f"encoder expects data dim {self.data_dim}, got shape {x.shape}")
        return self.out_proj(self.stack(self.in_proj(x)))


class TokenizerModel(Module):
    def __init__(self, cfg: TokenizerConfig, rng: np.random.Generator | None = None):
        rng = np.random.default_rng(cfg.seed) if rng is None else rng
        self.encoder = CausalEncoder(cfg.data_dim, cfg.code_dim, cfg.encoder, rng)
        self.codebook = Codebook(cfg.codebook_size, cfg.code_dim, rng)
        self.decoder = DitDecoder(cfg.data_dim, cfg.code_dim, cfg.decoder, cfg.timestep_dim, rng)
        self.cfg = cfg


def encode_to_tokens(z, model: TokenizerModel) -> np.ndarray:
    """Latent clip(s) to discrete token indices, (T,) or (B, T)."""
    z = Tensor(z, dtype=DEFAULT_DTYPE)
    with no_grad():
        codes = model.encoder(z)
        flat = codes.data.reshape(-1, model.codebook.dim)
        indices = nearest_entries(flat, model.codebook.entries.data)
    return indices.reshape(z.shape[:-1])


def check_tokens(indices: np.ndarray, model: TokenizerModel) -> None:
    """Refuse token ids decode_tokens cannot decode: not integers, not one
    clip (T,) or a batch (B, T), T outside 1..decoder max_len, or an id
    outside [0, K) (IndexError)."""
    # bool would index as a mask, a float would not index at all.
    if not np.issubdtype(indices.dtype, np.integer):
        raise ValueError(f"token ids must be integers, got dtype {indices.dtype}")
    if indices.ndim not in (1, 2):
        raise ShapeError(f"token ids must be (T,) or (B, T), got shape {indices.shape}")
    max_len = model.cfg.decoder.max_len
    if not 1 <= indices.shape[-1] <= max_len:
        raise ShapeError(f"token ids hold {indices.shape[-1]} frames, need 1 to {max_len}")
    k = model.codebook.k
    if indices.size and (indices.min() < 0 or indices.max() >= k):
        bad = int(indices.min()) if indices.min() < 0 else int(indices.max())
        raise IndexError(f"token id {bad} outside codebook range [0, {k})")


def decode_tokens(indices, model: TokenizerModel, rng: np.random.Generator | None = None,
                  n_steps: int | None = None) -> np.ndarray:
    """Token indices back to a latent clip of the same length.

    Flow mode integrates the learned velocity field for n_steps (default
    N_SAMPLE_STEPS) Euler steps from seeded noise; MSE mode is a single
    deterministic pass, whatever n_steps says.
    """
    indices = np.asarray(indices)
    check_tokens(indices, model)
    cond = Tensor(model.codebook.entries.data[indices])
    cfg = model.cfg
    with no_grad():
        if cfg.objective == OBJECTIVE_MSE:
            return mse_reconstruct(cond, model.decoder)
        n_steps = N_SAMPLE_STEPS if n_steps is None else n_steps
        rng = np.random.default_rng(0) if rng is None else rng
        x0 = rng.standard_normal(indices.shape + (model.decoder.data_dim,)).astype(cond.dtype)
        return euler_sample(cond, model.decoder, n_steps, x0)


def _loss_terms(batch: np.ndarray, model: TokenizerModel, cfg: TokenizerConfig,
                rng: np.random.Generator):
    """One training batch through encoder, quantizer, and decoder.

    Returns (total loss, per-term floats, flat code indices, flat code values)."""
    b, tlen, _ = batch.shape
    codes = model.encoder(Tensor(batch))
    flat = codes.reshape(b * tlen, cfg.code_dim)
    q = quantize(flat, model.codebook)
    tokens = straight_through(flat, q.quantized).reshape(b, tlen, cfg.code_dim)

    if cfg.objective == OBJECTIVE_FLOW:
        fs = sample_path(batch, rng, cfg.sigma_min)
    else:
        # Regression: at t = 0 from a zero state the path gives x_t = 0 and
        # u_t = x1, with no draw from rng.
        fs = sample_path(batch, rng, cfg.sigma_min, t=np.zeros(b), x0=np.zeros_like(batch))
    decoder_loss = cfm_loss(model.decoder(fs.x_t, fs.t, tokens), fs.u_t)

    # Unweighted as in VQ-VAE: this term alone trains the entries, and AdamW is scale-blind.
    loss = decoder_loss + q.codebook_loss + scale(q.commitment_loss, cfg.commitment_weight)
    terms = {
        "decoder_loss": float(decoder_loss.data),
        "codebook_loss": float(q.codebook_loss.data),
        "commitment_loss": float(q.commitment_loss.data),
        "loss": float(loss.data),
    }
    return loss, terms, q.indices, flat.data


def train_tokenizer(dataset: LatentDataset, model: TokenizerModel, cfg: TokenizerConfig,
                    metrics: MetricsLog | None = None, checkpoint_path=None) -> TrainReport:
    """Single-worker training loop; fully deterministic for a fixed config.

    Dead codebook entries are restarted after every update, and each epoch
    reports the codebook perplexity of its assignments and the number of
    entries it restarted. The model is written to checkpoint_path, when
    given, after every epoch. On a non-finite loss the model is rolled back
    to the most recent state that produced a finite loss, that state is
    written to checkpoint_path, and DivergenceError is raised.
    """
    if len(dataset) == 0:
        raise ValueError("train_tokenizer: empty dataset")
    rng = np.random.default_rng(cfg.seed)
    counts = np.zeros(cfg.codebook_size)
    restarts = 0

    def loss_fn(rows):
        loss, terms, indices, flat_codes = _loss_terms(dataset.values[rows], model, cfg, rng)
        return loss, terms, (indices, flat_codes)

    def after_update(step) -> None:
        nonlocal restarts
        indices, flat_codes = step
        restarts += codebook_maintenance(model.codebook, indices, flat_codes, rng).size
        counts[:] += index_histogram(indices, cfg.codebook_size)

    def epoch_codebook_stats() -> dict[str, float]:
        nonlocal restarts
        stats = {"perplexity": codebook_perplexity(counts), "restarts": float(restarts)}
        counts[:] = 0.0
        restarts = 0
        return stats

    checkpoint = None if checkpoint_path is None else (
        lambda: save_checkpoint(checkpoint_path, model))
    return fit(model, len(dataset), loss_fn, rng=rng, epochs=cfg.epochs,
               batch_size=cfg.batch_size, lr=cfg.lr, weight_decay=cfg.weight_decay,
               metrics=metrics, after_update=after_update,
               epoch_metrics=epoch_codebook_stats, checkpoint=checkpoint)


def bitrate(tokens_per_clip: int, clip_seconds: float, codebook_size: int) -> float:
    """Bits per second of the token stream: tokens * log2(K) / seconds."""
    if tokens_per_clip <= 0 or clip_seconds <= 0 or codebook_size < 1:
        raise ValueError(f"bitrate needs a positive tokens_per_clip, clip_seconds and "
                         f"codebook_size, got {tokens_per_clip}, {clip_seconds:g}, {codebook_size}")
    return tokens_per_clip * math.log2(codebook_size) / clip_seconds
