"""Reconstruction error, Fréchet distance over embedding statistics, and
side-by-side tokenizer comparison reports. Every evaluation decodes a
split with decode_split and scores it with split_metrics.

All statistics run in float64 regardless of model precision, and
eigendecompositions use NumPy's symmetric solvers (LAPACK syevd).
Eigenvalue clamping is never silent; every clamp is counted, and
uncollected clamp events raise a warning.
"""

from __future__ import annotations

import csv
import json
import warnings
import zlib
from dataclasses import dataclass, field

import numpy as np

from .data import LatentDataset
from .pipeline import TokenizerModel, decode_tokens, encode_to_tokens
from .tensor import ShapeError


class ClampWarning(RuntimeWarning):
    """Negative eigenvalues were clamped with no ClampLog to record them."""


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


def _clamp(values: np.ndarray, log: ClampLog | None, context: str) -> np.ndarray:
    if log is not None:
        return log.record(values)
    scratch = ClampLog()
    out = scratch.record(values)
    if scratch.events:
        warnings.warn(
            f"{context}: clamped {scratch.events} negative value(s), "
            f"worst {scratch.worst:.3e}", ClampWarning, stacklevel=3)
    return out


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


def matrix_sqrt_psd(matrix: np.ndarray, clamp_log: ClampLog | None = None,
                    sym_tol: float = 1e-8) -> np.ndarray:
    """Symmetric square root of a PSD matrix via eigendecomposition.

    Slightly negative eigenvalues (round-off) are clamped to zero and
    counted; genuine asymmetry is an error, not a repair.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"matrix_sqrt_psd expects a square matrix, got {m.shape}")
    if np.abs(m - m.T).max() > sym_tol * max(1.0, np.abs(m).max()):
        raise ValueError("matrix_sqrt_psd: input not symmetric within tolerance")
    eigenvalues, vectors = np.linalg.eigh(0.5 * (m + m.T))
    eigenvalues = _clamp(eigenvalues, clamp_log, "matrix_sqrt_psd")
    root = (vectors * np.sqrt(eigenvalues)) @ vectors.T
    return 0.5 * (root + root.T)


def frechet_distance(s1: GaussianStats, s2: GaussianStats,
                     clamp_log: ClampLog | None = None) -> float:
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
    eigenvalues = np.linalg.eigvalsh(inner)
    eigenvalues = _clamp(eigenvalues, clamp_log, "frechet_distance")
    cross = 2.0 * float(np.sqrt(eigenvalues).sum())
    mean_gap = float(((s1.mean - s2.mean) ** 2).sum())
    total = mean_gap + float(np.trace(s1.covariance) + np.trace(s2.covariance)) - cross
    return float(_clamp(np.array([total]), clamp_log, "frechet_distance")[0])


# ----------------------------------------------------------------------
# embeddings and model comparison


def mean_pool_embeddings(values: np.ndarray) -> np.ndarray:
    """Clips (N, T, D) to per-clip embeddings (N, D) by frame averaging."""
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"mean_pool_embeddings expects (N, T, D), got {x.shape}")
    return x.mean(axis=1)


@dataclass
class ComparisonReport:
    rows: list[tuple[str, str, str, float]] = field(default_factory=list)
    clamp_events: int = 0

    def add(self, split: str, model: str, metric: str, value: float) -> None:
        self.rows.append((split, model, metric, float(value)))

    def value(self, split: str, model: str, metric: str) -> float:
        for row_split, row_model, row_metric, value in self.rows:
            if (row_split, row_model, row_metric) == (split, model, metric):
                return value
        raise KeyError((split, model, metric))

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["split", "model", "metric", "value"])
            for split, model, metric, value in self.rows:
                writer.writerow([split, model, metric, repr(value)])

    def write_json(self, path, **metadata) -> None:
        payload = {
            "rows": [
                {"split": s, "model": m, "metric": k, "value": v}
                for s, m, k, v in self.rows
            ],
            "clamp_events": self.clamp_events,
            **metadata,
        }
        with open(path, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")


def decode_split(split_name: str, dataset: LatentDataset, model: TokenizerModel,
                 seed: int, n_steps: int | None) -> np.ndarray:
    """Encode and decode the whole split in one call each, in the split's
    dtype. The noise stream is keyed by (seed, split) only, never by the
    model, so two models see identical noise and the same model twice
    gives identical output."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, zlib.crc32(split_name.encode()))))
    tokens = encode_to_tokens(dataset.values, model)
    decoded = decode_tokens(tokens, model, rng=rng, n_steps=n_steps)
    return decoded.astype(dataset.values.dtype, copy=False)


def split_metrics(dataset: LatentDataset, decoded: np.ndarray,
                  clamp_log: ClampLog) -> dict[str, float]:
    """recon_mse over the whole split, and the Fréchet distance from the
    split's mean-pooled ground truth (the reference) to its decode."""
    reference = gaussian_stats(mean_pool_embeddings(dataset.values))
    candidate = gaussian_stats(mean_pool_embeddings(decoded))
    return {"recon_mse": reconstruction_error(dataset.values, decoded),
            "frechet": frechet_distance(reference, candidate, clamp_log)}


def compare_tokenizers(splits: dict[str, LatentDataset], model_fm: TokenizerModel,
                       model_mse: TokenizerModel, seed: int = 0,
                       n_steps: int | None = None) -> ComparisonReport:
    """split_metrics for both models on every held-out split."""
    report = ComparisonReport()
    clamps = ClampLog()
    for split_name in sorted(splits):
        dataset = splits[split_name]
        if len(dataset) == 0:
            raise ValueError(f"split {split_name!r} is empty")
        for model_name, model in (("fm", model_fm), ("mse", model_mse)):
            decoded = decode_split(split_name, dataset, model, seed, n_steps)
            for metric, value in split_metrics(dataset, decoded, clamps).items():
                report.add(split_name, model_name, metric, value)
    report.clamp_events = clamps.events
    return report
