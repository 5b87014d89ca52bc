"""Causal tokenizer: encoder, quantizer, and generative decoder as one model.

The encoder reads latent clips left to right under a causal mask, so the
token at frame t never depends on later frames and a stream can be
tokenized incrementally. The decoder reconstructs clips from the quantized
codes, either as a velocity field integrated from noise ("flow") or as a
single deterministic regression pass ("mse"). Both variants share the
architecture and parameter count, differing only in loss and decode rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import LatentDataset, MetricsLog, save_checkpoint
from .flow import OBJECTIVE_FLOW, OBJECTIVE_MSE, OBJECTIVES, DitDecoder, OtCfmConfig, cfm_loss, euler_sample, mse_reconstruct, sample_path
# DivergenceError is re-exported for callers of train_tokenizer.
from .nn import DivergenceError, Linear, Module, TrainReport, TransformerConfig, TransformerStack, fit
from .tensor import DEFAULT_DTYPE, ShapeError, Tensor, no_grad, scale, square, take_rows
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
    flow: OtCfmConfig = field(default_factory=OtCfmConfig)
    timestep_dim: int = 64
    lr: float = 1e-4
    weight_decay: float = 0.01
    epochs: int = 10
    batch_size: int = 16
    codebook_loss_weight: float = 1.0
    commitment_weight: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {sorted(OBJECTIVES)}, got {self.objective!r}")
        if not self.encoder.causal:
            raise ValueError("encoder config must be causal")
        if self.decoder.causal:
            raise ValueError("decoder config must be non-causal")
        for cfg_name, cfg in (("encoder", self.encoder), ("decoder", self.decoder)):
            if cfg.max_len < self.frames:
                raise ValueError(f"{cfg_name} max_len {cfg.max_len} < frames {self.frames}")

    @classmethod
    def paper(cls, objective: str = OBJECTIVE_FLOW) -> "TokenizerConfig":
        """Full-scale configuration: 215x64 clips, 8196 codes, 12-block towers."""
        return cls(
            frames=215,
            data_dim=64,
            code_dim=64,
            codebook_size=8196,
            objective=objective,
            encoder=TransformerConfig.paper_preset(causal=True, max_len=215),
            decoder=TransformerConfig.paper_preset(causal=False, max_len=215),
            epochs=75,
            lr=1e-4,
        )


class CausalEncoder(Module):
    """Maps a latent clip (T, D) to continuous codes (T, code_dim), with
    position t a function of frames 0..t only."""

    def __init__(self, data_dim: int, code_dim: int, cfg: TransformerConfig,
                 rng: np.random.Generator, dtype=DEFAULT_DTYPE):
        if not cfg.causal:
            raise ShapeError("CausalEncoder requires a causal transformer config")
        self.in_proj = Linear(data_dim, cfg.hidden_dim, rng, dtype=dtype)
        self.pos = Tensor(rng.normal(0.0, 0.02, size=(cfg.max_len, cfg.hidden_dim)),
                          requires_grad=True, dtype=dtype)
        self.stack = TransformerStack(cfg, rng, dtype=dtype)
        self.out_proj = Linear(cfg.hidden_dim, code_dim, rng, dtype=dtype)
        self.data_dim = data_dim
        self.code_dim = code_dim
        self.max_len = cfg.max_len

    def __call__(self, x) -> Tensor:
        x = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=DEFAULT_DTYPE))
        squeeze = x.ndim == 2
        if squeeze:
            x = x.reshape(1, *x.shape)
        if x.ndim != 3:
            raise ShapeError(f"encoder expects (T, D) or (B, T, D), got {x.shape}")
        b, tlen, d = x.shape
        if d != self.data_dim:
            raise ShapeError(f"encoder expects data dim {self.data_dim}, got {d}")
        if tlen > self.max_len:
            raise ShapeError(f"sequence length {tlen} exceeds max_len {self.max_len}")
        h = self.in_proj(x) + take_rows(self.pos, np.arange(tlen))
        h = self.stack(h)
        out = self.out_proj(h)
        return out.reshape(tlen, self.code_dim) if squeeze else out


class TokenizerModel(Module):
    def __init__(self, cfg: TokenizerConfig, rng: np.random.Generator | None = None,
                 dtype=DEFAULT_DTYPE):
        rng = np.random.default_rng(cfg.seed) if rng is None else rng
        self.encoder = CausalEncoder(cfg.data_dim, cfg.code_dim, cfg.encoder, rng, dtype=dtype)
        self.codebook = Codebook(cfg.codebook_size, cfg.code_dim, rng, dtype=dtype)
        self.decoder = DitDecoder(cfg.data_dim, cfg.code_dim, cfg.decoder,
                                  cfg.timestep_dim, rng, dtype=dtype)
        self.cfg = cfg
        # One width runs end to end: encoder codes are codebook queries are
        # decoder conditioning.
        assert self.encoder.code_dim == self.codebook.dim == self.decoder.cond_dim


def encode_to_tokens(z, model: TokenizerModel) -> np.ndarray:
    """Latent clip(s) to discrete token indices, (T,) or (B, T)."""
    z_arr = np.asarray(z.data if isinstance(z, Tensor) else z, dtype=DEFAULT_DTYPE)
    batched = z_arr.ndim == 3
    with no_grad():
        codes = model.encoder(z_arr)
        flat = codes.data.reshape(-1, model.codebook.dim)
        indices = nearest_entries(flat, model.codebook.entries.data)
    return indices.reshape(z_arr.shape[:-1]) if batched else indices


def decode_tokens(indices, model: TokenizerModel, rng: np.random.Generator | None = None,
                  n_steps: int | None = None) -> np.ndarray:
    """Token indices back to a latent clip of the same length.

    Flow mode integrates the learned velocity field from seeded noise; MSE
    mode is a single deterministic pass.
    """
    indices = np.asarray(indices)
    k = model.codebook.k
    if indices.size and (indices.min() < 0 or indices.max() >= k):
        bad = int(indices.min()) if indices.min() < 0 else int(indices.max())
        raise IndexError(f"token id {bad} outside codebook range [0, {k})")
    cond = model.codebook.entries.data[indices]
    cfg = model.cfg
    with no_grad():
        if cfg.objective == OBJECTIVE_MSE:
            return mse_reconstruct(cond, model.decoder)
        rng = np.random.default_rng(0) if rng is None else rng
        flow_cfg = cfg.flow if n_steps is None else replace(cfg.flow, n_sample_steps=n_steps)
        shape = indices.shape + (model.decoder.data_dim,)
        return euler_sample(cond, model.decoder, flow_cfg, rng, shape=shape)


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
        fs = sample_path(batch, rng, cfg.flow)
        predicted = model.decoder(fs.x_t, fs.t, tokens)
        decoder_loss = cfm_loss(predicted, fs.u_t)
    else:
        zero_state = np.zeros_like(batch)
        predicted = model.decoder(zero_state, 0.0, tokens)
        decoder_loss = square(predicted - Tensor(batch)).mean()

    loss = (decoder_loss
            + scale(q.codebook_loss, cfg.codebook_loss_weight)
            + scale(q.commitment_loss, cfg.commitment_weight))
    terms = {
        "decoder_loss": float(decoder_loss.data),
        "codebook_loss": float(q.codebook_loss.data),
        "commitment_loss": float(q.commitment_loss.data),
        "loss": float(loss.data),
    }
    return loss, terms, q.indices, flat.data


def train_tokenizer(dataset: LatentDataset, model: TokenizerModel, cfg: TokenizerConfig,
                    metrics: MetricsLog | None = None, checkpoint_path=None,
                    max_steps: int | None = None) -> TrainReport:
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
               metrics=metrics, max_steps=max_steps, after_update=after_update,
               epoch_metrics=epoch_codebook_stats, checkpoint=checkpoint)


def bitrate(tokens_per_clip: int, clip_seconds: float, codebook_size: int) -> float:
    """Bits per second of the token stream: tokens * log2(K) / seconds."""
    if tokens_per_clip <= 0 or clip_seconds <= 0 or codebook_size < 1:
        raise ValueError("bitrate arguments must be positive")
    return tokens_per_clip * math.log2(codebook_size) / clip_seconds
