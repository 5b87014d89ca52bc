"""Transformer blocks, timestep embeddings, AdamW, the training loop."""

import numpy as np
import pytest

from flowtok.nn import (
    AdamW,
    AttentionLayer,
    DivergenceError,
    LayerNorm,
    Linear,
    TimestepEmbedding,
    TransformerBlock,
    TransformerConfig,
    TransformerStack,
    attention,
    block_gradient_checks,
    fit,
    timestep_features,
)
from flowtok.data import MetricsLog
from flowtok.tensor import ShapeError, Tensor, no_grad, square


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestAttention:
    def test_single_position_returns_value(self):
        """With one timestep the softmax weight is exactly 1, so out == v."""
        rng = _rng(1)
        q, k, v = (Tensor(rng.normal(size=(2, 1, 8)).astype(np.float32)) for _ in range(3))
        out = attention(q, k, v, n_heads=2, causal=True)
        np.testing.assert_array_equal(out.data, v.data)

    def test_identical_keys_average_values(self):
        """Equal keys give uniform attention, so every output is the value mean."""
        rng = _rng(2)
        t = 6
        k = Tensor(np.broadcast_to(rng.normal(size=(1, 1, 8)), (1, t, 8)).copy())
        q = Tensor(rng.normal(size=(1, t, 8)))
        v = Tensor(rng.normal(size=(1, t, 8)))
        out = attention(q, k, v, n_heads=2, causal=False)
        expected = np.broadcast_to(v.data.mean(axis=1, keepdims=True), out.shape)
        np.testing.assert_allclose(out.data, expected, rtol=1e-5, atol=1e-6)

    def test_causal_outputs_ignore_future_positions(self):
        """Perturbing position t+1 must leave outputs 0..t bit-identical."""
        rng = _rng(3)
        cfg = TransformerConfig(n_blocks=1, hidden_dim=16, head_dim=4, causal=True)
        layer = AttentionLayer(cfg, rng)
        x = rng.normal(size=(1, 7, 16)).astype(np.float32)
        with no_grad():
            base = layer(Tensor(x)).data
            for cut in (3, 5):
                bumped = x.copy()
                bumped[:, cut:, :] += rng.normal(size=bumped[:, cut:, :].shape).astype(np.float32)
                out = layer(Tensor(bumped)).data
                np.testing.assert_array_equal(out[:, :cut], base[:, :cut])

    def test_truncated_prefix_matches_full_sequence(self):
        """Dropping the tail leaves prefix outputs equal up to reduction-order
        rounding (the summation tree depends on sequence length)."""
        rng = _rng(4)
        cfg = TransformerConfig(n_blocks=2, hidden_dim=16, head_dim=8, causal=True)
        stack = TransformerStack(cfg, rng)
        x = rng.normal(size=(1, 9, 16)).astype(np.float32)
        with no_grad():
            full = stack(Tensor(x)).data
            short = stack(Tensor(x[:, :4])).data
        np.testing.assert_allclose(full[:, :4], short, rtol=1e-4, atol=1e-6)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            attention(Tensor(np.zeros((1, 2, 8))), Tensor(np.zeros((1, 3, 8))),
                      Tensor(np.zeros((1, 2, 8))), n_heads=2, causal=False)


class TestLayerNorm:
    def test_normalizes_each_position(self):
        rng = _rng(5)
        ln = LayerNorm(32)
        out = ln(Tensor(rng.normal(2.0, 3.0, size=(4, 7, 32)).astype(np.float32))).data
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros((4, 7)), atol=1e-4)
        np.testing.assert_allclose(out.var(axis=-1), np.ones((4, 7)), atol=1e-3)

    def test_affine_parameters_apply(self):
        rng = _rng(6)
        ln = LayerNorm(8)
        ln.gamma.data = np.full(8, 2.0, dtype=np.float32)
        ln.beta.data = np.full(8, 1.0, dtype=np.float32)
        out = ln(Tensor(rng.normal(size=(3, 8)).astype(np.float32))).data
        np.testing.assert_allclose(out.mean(axis=-1), np.ones(3), atol=1e-3)


class TestConfig:
    def test_head_count_from_dims(self):
        cfg = TransformerConfig.paper_preset(causal=True)
        assert (cfg.n_blocks, cfg.head_dim, cfg.hidden_dim, cfg.n_heads) == (12, 64, 768, 12)

    def test_indivisible_dims_rejected(self):
        with pytest.raises(ShapeError):
            TransformerConfig(hidden_dim=100, head_dim=64)


class TestTimestepEmbedding:
    def test_zero_time_raw_features(self):
        feats = timestep_features(0.0, 16).data
        np.testing.assert_array_equal(feats[:8], np.zeros(8))
        np.testing.assert_array_equal(feats[8:], np.ones(8))

    def test_frequencies_span_one_to_ten_thousand(self):
        feats = timestep_features(1.0, 8, dtype=np.float64).data
        assert feats[0] == pytest.approx(np.sin(1.0))
        assert feats[3] == pytest.approx(np.sin(1e4), rel=1e-9)

    def test_distinct_times_distinct_embeddings(self):
        emb = TimestepEmbedding(64, _rng(7))
        a = emb(0.1).data
        b = emb(0.9).data
        assert np.abs(a - b).max() > 1e-3

    def test_odd_dim_rejected(self):
        with pytest.raises(ShapeError):
            timestep_features(0.5, 15)
        with pytest.raises(ShapeError):
            TimestepEmbedding(15, _rng(8))

    def test_batched_times(self):
        emb = TimestepEmbedding(32, _rng(9))
        out = emb(np.array([0.0, 0.25, 1.0]))
        assert out.shape == (3, 32)

    def test_out_of_range_time_rejected(self):
        with pytest.raises(ValueError):
            timestep_features(1.5, 8)


class TestAdamW:
    def test_single_step_bias_corrected(self):
        """One step at lr=0.1 with unit gradient moves p by almost exactly lr."""
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([1.0], dtype=p.dtype)
        opt = AdamW([("p", p)], lr=0.1)
        opt.step()
        np.testing.assert_allclose(p.data, [0.9], atol=1e-7)

    def test_decoupled_weight_decay_with_zero_gradient(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(2, dtype=p.dtype)
        opt = AdamW([("p", p)], lr=0.1, weight_decay=0.1)
        opt.step()
        np.testing.assert_allclose(p.data, [0.99, -1.98], rtol=1e-6)

    def test_missing_gradient_is_an_error(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = AdamW([("p", p)], lr=0.1)
        with pytest.raises(ValueError, match="p"):
            opt.step()

    def test_two_parameter_groups_keep_independent_moments(self):
        rng = _rng(10)
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        opt = AdamW([("a", a), ("b", b)], lr=0.01)
        for _ in range(3):
            a.grad = np.ones(3, dtype=a.dtype)
            b.grad = -np.ones(3, dtype=b.dtype)
            opt.step()
        assert (np.sign(opt._m[0]) != np.sign(opt._m[1])).all()


class TestFit:
    def _quadratic(self, seen, nan_at=None):
        """A Linear fitted to zero output; seen records the weight at every
        loss call, and call nan_at (1-based) reports a non-finite loss."""
        layer = Linear(3, 2, _rng(5), dtype=np.float64)
        x = _rng(6).normal(size=(10, 3))

        def loss_fn(rows):
            seen.append(layer.weight.data.copy())
            loss = square(layer(Tensor(x[rows]))).mean()
            value = np.nan if len(seen) == nan_at else float(loss.data)
            return loss, {"loss": value}, rows.size

        return layer, loss_fn

    def test_max_steps_stops_mid_epoch(self):
        seen, sizes, saves = [], [], []
        layer, loss_fn = self._quadratic(seen)
        log = MetricsLog()
        report = fit(layer, 10, loss_fn, rng=_rng(7), epochs=5, batch_size=4, lr=1e-2,
                     weight_decay=0.0, metrics=log, max_steps=4,
                     after_update=sizes.append, checkpoint=lambda: saves.append(1))
        assert (report.epochs_run, report.steps_run) == (2, 4)
        assert sizes == [4, 4, 2, 4]
        assert len(report.step_losses) == 4 and len(saves) == 2
        assert [(step, metric) for step, _, metric, _ in log.rows] == [(3, "loss"), (4, "loss")]
        assert report.final["loss"] == report.step_losses[-1]

    def test_rollback_to_last_finite_state_before_checkpoint(self):
        seen, saved = [], []
        layer, loss_fn = self._quadratic(seen, nan_at=3)
        with pytest.raises(DivergenceError, match="step 2"):
            fit(layer, 10, loss_fn, rng=_rng(7), epochs=2, batch_size=4, lr=1e-2,
                weight_decay=0.0, checkpoint=lambda: saved.append(layer.weight.data.copy()))
        assert not np.array_equal(seen[1], seen[2])
        np.testing.assert_array_equal(layer.weight.data, seen[1])
        np.testing.assert_array_equal(saved[-1], seen[1])


class TestModuleRegistry:
    def test_names_are_dotted_and_deterministic(self):
        rng = _rng(11)
        cfg = TransformerConfig(n_blocks=2, hidden_dim=8, head_dim=4)
        stack = TransformerStack(cfg, rng)
        names = [n for n, _ in stack.named_parameters()]
        assert names[0].startswith("blocks.0.")
        assert names == [n for n, _ in stack.named_parameters()]
        assert "ln_f.gamma" in names

    def test_linear_bias_broadcasts(self):
        lin = Linear(4, 3, _rng(13))
        out = lin(Tensor(np.ones((5, 4), dtype=np.float32)))
        assert out.shape == (5, 3)


class TestCompositeGradients:
    def test_blocks_against_finite_differences(self):
        report = block_gradient_checks()
        assert report["layer_norm"] < 1e-5
        bad = {k: v for k, v in report.items() if v >= 1e-4}
        assert not bad, f"composite checks over tolerance: {bad}"
