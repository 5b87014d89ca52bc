"""Reconstruction error, Fréchet distance over embedding statistics, and
the tokenizer comparison behind `flowtok eval`: compare_tokenizers
decodes every split with every model through decode_split, scores it
with split_metrics, and returns the rows as a data.MetricsLog table with
columns (split, model, metric, value), for one model or several.

All statistics run in float64 regardless of model precision, and
eigendecompositions use NumPy's symmetric solvers (LAPACK syevd).
Eigenvalue clamping is never silent: every routine that clamps takes a
ClampLog, and every clamp is counted into it.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .data import LatentDataset, MetricsLog
from .pipeline import TokenizerModel, decode_tokens, encode_to_tokens
from .tensor import ShapeError


# Largest asymmetry matrix_sqrt_psd accepts, relative to the largest entry.
SYMMETRY_TOL = 1e-8


@dataclass
class ClampLog:
    """Tally of negative-value clamps performed during matrix routines."""

    events: int = 0
    worst: float = 0.0

    def record(self, values: np.ndarray) -> np.ndarray:
        """Clamp negatives to zero, counting how many and how far below."""
        values = np.asarray(values, dtype=np.float64)
        negative = values < 0.0
        if negative.any():
            self.events += int(negative.sum())
            self.worst = min(self.worst, float(values[negative].min()))
        return np.where(negative, 0.0, values)


# ----------------------------------------------------------------------
# basic statistics


def reconstruction_error(z, z_hat) -> float:
    """Mean over all elements of the squared difference."""
    z = np.asarray(z, dtype=np.float64)
    z_hat = np.asarray(z_hat, dtype=np.float64)
    if z.shape != z_hat.shape:
        raise ShapeError(f"reconstruction_error: shapes differ, {z.shape} vs {z_hat.shape}")
    return float(np.mean((z - z_hat) ** 2))


@dataclass
class GaussianStats:
    mean: np.ndarray
    covariance: np.ndarray
    count: int

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.covariance = np.asarray(self.covariance, dtype=np.float64)
        if self.count < 2:
            raise ValueError(f"GaussianStats needs count >= 2, got {self.count}")
        d = self.mean.shape[0]
        if self.covariance.shape != (d, d):
            raise ShapeError(f"covariance shape {self.covariance.shape} vs mean dim {d}")
        if np.abs(self.covariance - self.covariance.T).max() > 1e-9:
            raise ValueError("covariance not symmetric within 1e-9")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def gaussian_stats(embeddings: np.ndarray) -> GaussianStats:
    """Sample mean and unbiased covariance of row vectors."""
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"gaussian_stats expects (N, d), got {x.shape}")
    n = x.shape[0]
    if n < 2:
        raise ValueError(f"gaussian_stats needs at least 2 rows, got {n}")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (n - 1)
    cov = 0.5 * (cov + cov.T)
    return GaussianStats(mean=mean, covariance=cov, count=n)


def matrix_sqrt_psd(matrix: np.ndarray, clamp_log: ClampLog) -> np.ndarray:
    """Symmetric square root of a PSD matrix via eigendecomposition.

    Slightly negative eigenvalues (round-off) are clamped to zero and
    counted; genuine asymmetry is an error, not a repair.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"matrix_sqrt_psd expects a square matrix, got {m.shape}")
    if np.abs(m - m.T).max() > SYMMETRY_TOL * max(1.0, np.abs(m).max()):
        raise ValueError("matrix_sqrt_psd: input not symmetric within tolerance")
    eigenvalues, vectors = np.linalg.eigh(0.5 * (m + m.T))
    eigenvalues = clamp_log.record(eigenvalues)
    root = (vectors * np.sqrt(eigenvalues)) @ vectors.T
    return 0.5 * (root + root.T)


def frechet_distance(s1: GaussianStats, s2: GaussianStats, clamp_log: ClampLog) -> float:
    """Squared Fréchet distance between two Gaussians.

    The cross term uses the symmetric product S1^(1/2) S2 S1^(1/2), whose
    trace-of-square-root reduces to the sum of the square roots of its
    eigenvalues; no second matrix square root is formed.
    """
    if s1.dim != s2.dim:
        raise ShapeError(f"frechet_distance: dims differ, {s1.dim} vs {s2.dim}")
    root1 = matrix_sqrt_psd(s1.covariance, clamp_log)
    inner = root1 @ s2.covariance @ root1
    inner = 0.5 * (inner + inner.T)
    eigenvalues = clamp_log.record(np.linalg.eigvalsh(inner))
    cross = 2.0 * float(np.sqrt(eigenvalues).sum())
    mean_gap = float(((s1.mean - s2.mean) ** 2).sum())
    total = mean_gap + float(np.trace(s1.covariance) + np.trace(s2.covariance)) - cross
    return float(clamp_log.record(np.array([total]))[0])


# ----------------------------------------------------------------------
# embeddings and model comparison


def mean_pool_embeddings(values: np.ndarray) -> np.ndarray:
    """Clips (N, T, D) to per-clip embeddings (N, D) by frame averaging."""
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"mean_pool_embeddings expects (N, T, D), got {x.shape}")
    return x.mean(axis=1)


def decode_split(split_name: str, dataset: LatentDataset, model: TokenizerModel,
                 seed: int, n_steps: int | None) -> np.ndarray:
    """Encode and decode the whole split in one call each. The noise stream
    is keyed by (seed, split) only, never by the model, so two models see
    identical noise and the same model twice gives identical output."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, zlib.crc32(split_name.encode()))))
    tokens = encode_to_tokens(dataset.values, model)
    return decode_tokens(tokens, model, rng=rng, n_steps=n_steps)


def split_metrics(dataset: LatentDataset, decoded: np.ndarray,
                  clamp_log: ClampLog) -> dict[str, float]:
    """recon_mse over the whole split, and the Fréchet distance from the
    split's ground truth (the reference) to its decode: `frechet` over
    mean-pooled clips, `frechet_frame` over all (N*T, D) frames."""
    values, dim = dataset.values, dataset.values.shape[-1]
    reference = gaussian_stats(mean_pool_embeddings(values))
    candidate = gaussian_stats(mean_pool_embeddings(decoded))
    reference_frames = gaussian_stats(values.reshape(-1, dim))
    candidate_frames = gaussian_stats(np.reshape(decoded, (-1, dim)))
    return {"recon_mse": reconstruction_error(values, decoded),
            "frechet": frechet_distance(reference, candidate, clamp_log),
            "frechet_frame": frechet_distance(reference_frames, candidate_frames, clamp_log)}


def compare_tokenizers(splits: dict[str, LatentDataset], models: dict[str, TokenizerModel],
                       clamp_log: ClampLog, seed: int = 0,
                       n_steps: int | None = None) -> MetricsLog:
    """split_metrics for every model on every split, as rows (split, model,
    metric, value): splits in sorted order, models in the order given.
    Eigenvalue clamps are counted into clamp_log. A split of fewer than 2
    clips, which has no covariance, is refused before anything decodes."""
    for split_name in sorted(splits):
        n = len(splits[split_name])
        if n < 2:
            raise ValueError(f"split {split_name!r} is empty" if n == 0 else
                             f"split {split_name!r} holds 1 clip; its Frechet "
                             f"statistics need at least 2")
    table = MetricsLog(("split", "model", "metric", "value"))
    for split_name in sorted(splits):
        dataset = splits[split_name]
        for model_name, model in models.items():
            decoded = decode_split(split_name, dataset, model, seed, n_steps)
            for metric, value in split_metrics(dataset, decoded, clamp_log).items():
                table.add(split_name, model_name, metric, value)
    return table
