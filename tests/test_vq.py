"""Vector quantizer: assignment, losses, straight-through, maintenance."""

import numpy as np
import pytest

from flowtok.tensor import ShapeError, Tensor
from flowtok.vq import (
    Codebook,
    codebook_maintenance,
    codebook_perplexity,
    index_histogram,
    nearest_entries,
    quantize,
    straight_through,
)


def _book(entries, rng=None):
    rng = rng or np.random.default_rng(0)
    arr = np.asarray(entries, dtype=np.float32)
    cb = Codebook(arr.shape[0], arr.shape[1], rng)
    cb.entries.data = arr.copy()
    return cb


class TestAssignment:
    def test_two_entry_example(self):
        """e=[0.9, 0.1] sits nearer [1,0]: index 0, commitment mean 0.01."""
        cb = _book([[1.0, 0.0], [0.0, 1.0]])
        res = quantize(Tensor(np.array([[0.9, 0.1]], dtype=np.float32)), cb)
        assert res.indices.tolist() == [0]
        np.testing.assert_allclose(res.commitment_loss.item(), 0.01, rtol=1e-5)
        np.testing.assert_allclose(res.codebook_loss.item(), 0.01, rtol=1e-5)

    def test_exact_entry_gives_zero_losses(self):
        cb = _book([[1.0, 0.0], [0.0, 1.0]])
        res = quantize(Tensor(np.array([[0.0, 1.0]], dtype=np.float32)), cb)
        assert res.indices.tolist() == [1]
        assert res.codebook_loss.item() == 0.0
        assert res.commitment_loss.item() == 0.0

    def test_ties_pick_lowest_index(self):
        cb = _book([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]])
        res = quantize(Tensor(np.array([[0.0, 0.0]], dtype=np.float32)), cb)
        assert res.indices.tolist() == [0]

    def test_matches_brute_force_on_random_batch(self):
        """1000 vectors against K=64: the expanded-form argmin must equal the
        plain squared-distance argmin on every row."""
        rng = np.random.default_rng(42)
        vectors = rng.normal(size=(1000, 16)).astype(np.float32)
        entries = rng.normal(size=(64, 16)).astype(np.float32)
        got = nearest_entries(vectors, entries)
        diffs = vectors[:, None, :] - entries[None, :, :]
        expected = np.argmin((diffs * diffs).sum(-1), axis=1)
        np.testing.assert_array_equal(got, expected)

    def test_quantized_rows_copied_bitwise(self):
        rng = np.random.default_rng(1)
        cb = _book(rng.normal(size=(8, 4)).astype(np.float32))
        e = Tensor(rng.normal(size=(6, 4)).astype(np.float32))
        res = quantize(e, cb)
        np.testing.assert_array_equal(res.quantized.data, cb.entries.data[res.indices])

    def test_idempotence(self):
        """Quantizing already-quantized vectors returns the same indices."""
        rng = np.random.default_rng(2)
        cb = _book(rng.normal(size=(16, 8)).astype(np.float32))
        e = Tensor(rng.normal(size=(32, 8)).astype(np.float32))
        first = quantize(e, cb)
        second = quantize(Tensor(first.quantized.data), cb)
        np.testing.assert_array_equal(first.indices, second.indices)
        np.testing.assert_array_equal(second.quantized.data, first.quantized.data)
        assert second.codebook_loss.item() == 0.0

    def test_shape_contracts(self):
        cb = _book([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ShapeError):
            quantize(Tensor(np.zeros((0, 2), dtype=np.float32)), cb)
        with pytest.raises(ShapeError):
            quantize(Tensor(np.zeros((3, 5), dtype=np.float32)), cb)


class TestGradients:
    def test_codebook_loss_reaches_entries_only(self):
        rng = np.random.default_rng(3)
        cb = _book(rng.normal(size=(4, 2)).astype(np.float32))
        e = Tensor(rng.normal(size=(5, 2)).astype(np.float32), requires_grad=True)
        res = quantize(e, cb)
        res.codebook_loss.backward()
        assert cb.entries.grad is not None
        assert e.grad is None

    def test_commitment_loss_reaches_encoder_only(self):
        rng = np.random.default_rng(4)
        cb = _book(rng.normal(size=(4, 2)).astype(np.float32))
        e = Tensor(rng.normal(size=(5, 2)).astype(np.float32), requires_grad=True)
        res = quantize(e, cb)
        res.commitment_loss.backward()
        assert e.grad is not None
        assert cb.entries.grad is None

    def test_straight_through_forward_bitwise(self):
        rng = np.random.default_rng(5)
        cb = _book(rng.normal(size=(8, 4)).astype(np.float32))
        e = Tensor(rng.normal(size=(6, 4)).astype(np.float32), requires_grad=True)
        res = quantize(e, cb)
        st = straight_through(e, res.quantized)
        np.testing.assert_array_equal(st.data, res.quantized.data)

    def test_straight_through_gradient_is_identity(self):
        """The encoder's gradient through the quantizer must be bit-equal to
        the gradient it would get if the downstream loss touched it directly."""
        rng = np.random.default_rng(6)
        cb = _book(rng.normal(size=(8, 4)).astype(np.float32))
        weights = rng.normal(size=(6, 4)).astype(np.float32)

        e1 = Tensor(rng.normal(size=(6, 4)).astype(np.float32), requires_grad=True)
        res = quantize(e1, cb)
        (straight_through(e1, res.quantized) * Tensor(weights)).sum().backward()

        e2 = Tensor(e1.data, requires_grad=True)
        (e2 * Tensor(weights)).sum().backward()

        np.testing.assert_array_equal(e1.grad, e2.grad)
        assert cb.entries.grad is None


class TestMaintenance:
    def test_never_used_entry_reseeded_within_100_steps(self):
        rng = np.random.default_rng(7)
        cb = _book(rng.normal(size=(4, 2)).astype(np.float32))
        before = cb.entries.data.copy()
        batch = rng.normal(size=(12, 2)).astype(np.float32)
        reseeded_ever = False
        for _ in range(100):
            indices = rng.choice([0, 1, 2], size=12)  # entry 3 never selected
            dead = codebook_maintenance(cb, indices, batch, rng)
            reseeded_ever = reseeded_ever or 3 in dead
        assert reseeded_ever
        np.testing.assert_array_equal(cb.entries.data[:3], before[:3])
        assert not np.array_equal(cb.entries.data[3], before[3])

    def test_all_entries_used_book_unchanged(self):
        rng = np.random.default_rng(8)
        cb = _book(rng.normal(size=(4, 2)).astype(np.float32))
        before = cb.entries.data.copy()
        batch = rng.normal(size=(8, 2)).astype(np.float32)
        dead = codebook_maintenance(cb, np.array([0, 1, 2, 3, 0, 1, 2, 3]), batch, rng)
        assert dead.size == 0
        np.testing.assert_array_equal(cb.entries.data, before)

    def test_reseeded_entry_comes_from_batch(self):
        rng = np.random.default_rng(10)
        cb = _book(rng.normal(size=(4, 2)).astype(np.float32))
        batch = rng.normal(size=(16, 2)).astype(np.float32)
        dead = codebook_maintenance(cb, np.zeros(16, dtype=int), batch, rng)
        assert dead.size > 0
        for idx in dead:
            assert any(np.array_equal(cb.entries.data[idx], row) for row in batch)


class TestPerplexity:
    def test_single_entry_is_one(self):
        assert codebook_perplexity(np.array([7.0, 0.0, 0.0])) == pytest.approx(1.0)

    def test_uniform_equals_k(self):
        assert codebook_perplexity(np.ones(8)) == pytest.approx(8.0, rel=1e-9)

    def test_skewed_example(self):
        # counts (2,1,1): H = 1.5 ln2, exp(H) = 2^1.5
        assert codebook_perplexity(np.array([2.0, 1.0, 1.0])) == pytest.approx(2.828427, rel=1e-5)

    def test_empty_histogram_rejected(self):
        with pytest.raises(ValueError):
            codebook_perplexity(np.zeros(4))

    def test_histogram_counts(self):
        hist = index_histogram(np.array([0, 0, 2]), 4)
        np.testing.assert_array_equal(hist, [2, 0, 1, 0])
