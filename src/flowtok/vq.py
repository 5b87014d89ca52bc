"""Vector quantization: nearest-entry assignment with a straight-through path.

The decoder trains on quantized vectors while the encoder receives the
identity gradient; the codebook itself learns only from the codebook
loss. Entries whose usage decays away are re-seeded from live encoder
outputs so the book cannot silently die.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import Module
from .tensor import DEFAULT_DTYPE, ShapeError, Tensor, _record, square, take_rows


class Codebook(Module):
    """K learnable entries of dimension dim, plus a usage EMA per entry.

    Fresh entries start with zero usage: they must earn assignments before
    the first maintenance pass or be re-seeded from batch vectors. Re-seeded
    entries restart with full usage credit so they get a grace period of
    log(RESTART_THRESHOLD)/log(USAGE_DECAY) steps before becoming eligible
    again.
    """

    def __init__(self, k: int, dim: int, rng: np.random.Generator):
        if k < 1 or dim < 1:
            raise ShapeError(f"codebook needs positive k and dim, got {k}x{dim}")
        self.entries = Tensor(rng.normal(0.0, 1.0, size=(k, dim)), requires_grad=True,
                              dtype=DEFAULT_DTYPE)
        self.usage = Tensor(np.zeros(k), dtype=np.float32)

    @property
    def k(self) -> int:
        return self.entries.shape[0]

    @property
    def dim(self) -> int:
        return self.entries.shape[1]


@dataclass
class QuantizationResult:
    indices: np.ndarray          # (T,) int64 nearest-entry ids
    quantized: Tensor            # (T, dim), rows copied bitwise from the codebook
    codebook_loss: Tensor        # mean((sg(e) - q)^2), trains the entries
    commitment_loss: Tensor      # mean((e - sg(q))^2), trains the encoder


def nearest_entries(vectors: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Argmin over squared distance; ties resolve to the lowest index.

    The |e|^2 term is constant per query row and dropped, leaving
    |c_k|^2 - 2 e.c_k, which preserves the ordering.
    """
    scores = (entries * entries).sum(axis=1)[None, :] - 2.0 * (vectors @ entries.T)
    return np.argmin(scores, axis=1).astype(np.int64)


def quantize(encoded: Tensor, codebook: Codebook) -> QuantizationResult:
    if encoded.ndim != 2:
        raise ShapeError(f"quantize expects (T, dim) input, got {encoded.shape}")
    if encoded.shape[0] == 0:
        raise ShapeError("quantize: empty input")
    if encoded.shape[1] != codebook.dim:
        raise ShapeError(
            f"quantize: input dim {encoded.shape[1]} vs codebook dim {codebook.dim}"
        )
    indices = nearest_entries(encoded.data, codebook.entries.data)
    quantized = take_rows(codebook.entries, indices)
    codebook_loss = square(quantized - encoded.detach()).mean()
    commitment_loss = square(encoded - Tensor(quantized.data)).mean()
    return QuantizationResult(indices, quantized, codebook_loss, commitment_loss)


def straight_through(encoded: Tensor, quantized: Tensor) -> Tensor:
    """Forward is exactly the quantized values; backward is the identity to
    the encoder. The quantized operand gets no edge, so no gradient from
    this path."""
    if encoded.shape != quantized.shape:
        raise ShapeError(f"straight_through: shapes differ, {encoded.shape} vs {quantized.shape}")
    return _record("straight_through", quantized.data.copy(), (encoded, lambda g: g))


def index_histogram(indices: np.ndarray, k: int) -> np.ndarray:
    return np.bincount(np.asarray(indices).reshape(-1), minlength=k).astype(np.float64)


# Per-step decay of the usage EMA.
USAGE_DECAY = 0.99
# An entry whose usage EMA falls below this, unassigned in the batch, is dead.
RESTART_THRESHOLD = 1e-3


def codebook_maintenance(codebook: Codebook, batch_indices: np.ndarray,
                         batch_vectors: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Decay the usage EMA with this batch's assignment shares and re-seed
    dead entries (usage below RESTART_THRESHOLD) from random batch vectors.

    Returns the re-seeded entry ids (possibly empty). Entries assigned in
    the current batch are alive by definition and exempt, whatever their
    EMA says.
    """
    batch_vectors = np.asarray(batch_vectors).reshape(-1, codebook.dim)
    hist = index_histogram(batch_indices, codebook.k)
    share = hist / hist.sum() if hist.sum() > 0 else hist
    usage = USAGE_DECAY * codebook.usage.data.astype(np.float64) + (1.0 - USAGE_DECAY) * share
    dead = np.flatnonzero((usage < RESTART_THRESHOLD) & (hist == 0))
    if dead.size:
        picks = rng.integers(0, batch_vectors.shape[0], size=dead.size)
        entries = codebook.entries.data.copy()  # a rollback may hold the old array
        entries[dead] = batch_vectors[picks]
        codebook.entries.data = entries
        usage[dead] = 1.0
    codebook.usage.data = usage.astype(np.float32)
    return dead


def codebook_perplexity(histogram: np.ndarray) -> float:
    """exp of the entropy of the assignment distribution.

    1.0 means a single entry takes everything; k means perfectly uniform.
    """
    hist = np.asarray(histogram, dtype=np.float64)
    total = hist.sum()
    if total <= 0:
        raise ValueError("perplexity of an empty histogram")
    p = hist / total
    nz = p[p > 0]
    return float(np.exp(-(nz * np.log(nz)).sum()))
