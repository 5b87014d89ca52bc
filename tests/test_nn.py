"""Transformer blocks, timestep embeddings, AdamW, the training loop."""

import os
import platform
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import numpy as np
import pytest

import flowtok

from flowtok.nn import (
    ADAMW_BLOCK,
    LAYER_NORM_EPS,
    AdamW,
    AttentionLayer,
    DivergenceError,
    KVEntry,
    LayerNorm,
    Linear,
    TimestepEmbedding,
    TransformerBlock,
    TransformerConfig,
    TransformerStack,
    Module,
    _keep_freed_memory,
    attention,
    block_gradient_checks,
    causal_mask,
    fit,
    timestep_features,
)
from flowtok.data import MetricsLog
from flowtok.tensor import (
    ShapeError,
    Tensor,
    layer_norm,
    matmul,
    no_grad,
    power,
    scale,
    softmax,
    square,
    swapaxes,
    tmean,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


def _holder(**tensors) -> Module:
    """A module whose state is exactly the given tensors, in order."""
    holder = Module()
    holder.__dict__.update(tensors)
    return holder


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

    def test_cached_chunks_match_full_sequence(self):
        """Feeding a causal stack through KVEntry buffers in chunks, single
        positions included, matches one full forward up to rounding."""
        rng = _rng(4)
        cfg = TransformerConfig(n_blocks=2, hidden_dim=16, head_dim=8, causal=True)
        stack = TransformerStack(cfg, rng)
        x = rng.normal(size=(2, 9, 16)).astype(np.float32)
        cache = [KVEntry(cfg.max_len) for _ in range(cfg.n_blocks)]
        with no_grad():
            full = stack(Tensor(x)).data
            parts = [stack(Tensor(x[:, a:b]), cache).data
                     for a, b in ((0, 4), (4, 5), (5, 6), (6, 9))]
        assert [len(entry) for entry in cache] == [9, 9]
        np.testing.assert_allclose(np.concatenate(parts, axis=1), full, rtol=1e-4, atol=1e-6)

    def test_cached_length_counts_toward_max_len(self):
        cfg = TransformerConfig(n_blocks=1, hidden_dim=8, head_dim=4, causal=True, max_len=8)
        stack = TransformerStack(cfg, _rng(5))
        cache = [KVEntry(cfg.max_len) for _ in range(cfg.n_blocks)]
        with no_grad():
            stack(Tensor(np.zeros((6, 8))), cache)
            with pytest.raises(ShapeError, match="length 9 exceeds max_len 8"):
                stack(Tensor(np.zeros((3, 8))), cache)

    def test_cache_fills_exactly_max_len(self):
        cfg = TransformerConfig(n_blocks=2, hidden_dim=8, head_dim=4, causal=True, max_len=8)
        stack = TransformerStack(cfg, _rng(5))
        x = _rng(6).normal(size=(8, 8)).astype(np.float32)
        cache = [KVEntry(cfg.max_len) for _ in range(cfg.n_blocks)]
        with no_grad():
            full = stack(Tensor(x)).data
            parts = [stack(Tensor(x[:6]), cache).data, stack(Tensor(x[6:]), cache).data]
        assert [len(entry) for entry in cache] == [8, 8]
        np.testing.assert_allclose(np.concatenate(parts), full, rtol=1e-4, atol=1e-6)

    def test_earlier_views_survive_later_writes(self):
        """extend writes in place after the filled prefix, so the keys and
        values it returned before stay as they were."""
        rng = _rng(7)
        entry = KVEntry(max_len=5)
        chunks = [(rng.normal(size=(2, n, 4)), rng.normal(size=(2, n, 4))) for n in (2, 1, 2)]
        returned, kept = [], []
        for k, v in chunks:
            views = entry.extend(Tensor(k), Tensor(v))
            returned.append(views)
            kept.append([t.data.copy() for t in views])
        assert len(entry) == 5
        for views, copies in zip(returned, kept):
            for t, c in zip(views, copies):
                np.testing.assert_array_equal(t.data, c)
        for i, t in enumerate(returned[-1]):
            np.testing.assert_array_equal(
                t.data, np.concatenate([chunk[i] for chunk in chunks], axis=1).astype(t.dtype))
        with pytest.raises(ShapeError, match="do not fit"):
            entry.extend(Tensor(chunks[1][0]), Tensor(chunks[1][1]))

    def test_cache_refused_while_the_tape_records(self):
        """Cached keys carry no tape edges, so a recorded cached call would
        drop the gradient through earlier positions."""
        cfg = TransformerConfig(n_blocks=1, hidden_dim=8, head_dim=4, causal=True, max_len=8)
        stack = TransformerStack(cfg, _rng(5))
        cache = [KVEntry(cfg.max_len) for _ in range(cfg.n_blocks)]
        with pytest.raises(ValueError, match="inference only"):
            stack(Tensor(np.zeros((3, 8))), cache)
        assert len(cache[0]) == 0
        with no_grad():
            stack(Tensor(np.zeros((3, 8))), cache)
        assert len(cache[0]) == 3

    @pytest.mark.parametrize("n_entries", [1, 3])
    def test_cache_needs_one_entry_per_block(self, n_entries):
        cfg = TransformerConfig(n_blocks=2, hidden_dim=8, head_dim=4, causal=True, max_len=8)
        stack = TransformerStack(cfg, _rng(5))
        cache = [KVEntry(cfg.max_len) for _ in range(n_entries)]
        with no_grad(), pytest.raises(ShapeError,
                                      match=f"cache holds {n_entries} entries for 2 blocks"):
            stack(Tensor(np.zeros((3, 8))), cache)
        assert [len(entry) for entry in cache] == [0] * n_entries

    def test_mask_cache_is_bounded(self):
        """One mask per length its callers ask for would pile up."""
        for t in range(1, 301):
            causal_mask(t)
        info = causal_mask.cache_info()
        assert info.currsize <= info.maxsize < 300

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
        cfg = TransformerConfig(n_blocks=12, hidden_dim=768, head_dim=64)
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
        a = emb(np.array([0.1])).data
        b = emb(np.array([0.9])).data
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
        opt = AdamW(_holder(p=p), lr=0.1)
        opt.step()
        np.testing.assert_allclose(p.data, [0.9], atol=1e-7)

    def test_decoupled_weight_decay_with_zero_gradient(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(2, dtype=p.dtype)
        opt = AdamW(_holder(p=p), lr=0.1, weight_decay=0.1)
        opt.step()
        np.testing.assert_allclose(p.data, [0.99, -1.98], rtol=1e-6)

    def test_missing_gradient_is_an_error(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = AdamW(_holder(p=p), lr=0.1)
        with pytest.raises(ValueError, match="p"):
            opt.step()

    def test_two_parameter_groups_keep_independent_moments(self):
        rng = _rng(10)
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        opt = AdamW(_holder(a=a, b=b), lr=0.01)
        for _ in range(3):
            a.grad = np.ones(3, dtype=a.dtype)
            b.grad = -np.ones(3, dtype=b.dtype)
            opt.step()
        assert (np.sign(opt._m_flat[:3]) != np.sign(opt._m_flat[3:])).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_flat_step_matches_per_parameter_loop_bitwise(self, dtype, weight_decay):
        """Five steps over more than one block, with b straddling the first
        block boundary, equal the per-parameter loop byte for byte in the
        parameters and both moments."""
        rng = _rng(11)
        shapes = [(5,), (ADAMW_BLOCK - 3,), (4, 6)]
        params = [Tensor(rng.normal(size=s), requires_grad=True, dtype=dtype) for s in shapes]
        opt = AdamW(_holder(a=params[0], b=params[1], c=params[2]), lr=1e-2,
                    weight_decay=weight_decay)
        ref = [p.data.copy() for p in params]
        ref_m = [np.zeros_like(p) for p in ref]
        ref_v = [np.zeros_like(p) for p in ref]
        for step in range(1, 6):
            grads = [rng.normal(size=s).astype(dtype) for s in shapes]
            for p, g in zip(params, grads):
                p.grad = g
            opt.step()
            ref = _per_parameter_adamw(ref, grads, ref_m, ref_v, step, 1e-2, weight_decay)
        flat_m, flat_v = (np.concatenate([m.reshape(-1) for m in ms]) for ms in (ref_m, ref_v))
        for got, want in [*zip(params, ref), (opt._m_flat, flat_m), (opt._v_flat, flat_v)]:
            got = got.data if isinstance(got, Tensor) else got
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_step_leaves_held_arrays_alone(self):
        """Each step gives the parameter a fresh array; one a caller kept
        (a rollback snapshot, a checkpoint) keeps its bytes."""
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        held = p.data
        opt = AdamW(_holder(p=p), lr=0.1)
        p.grad = np.ones(2)
        opt.step()
        assert p.data is not held
        np.testing.assert_array_equal(held, [1.0, -2.0])

    @pytest.mark.parametrize("grad", [np.ones((1, 3), np.float32), np.ones(3, np.float64)],
                             ids=["shape", "dtype"])
    def test_gradient_unlike_its_parameter_is_an_error(self, grad):
        """Refused before anything moves: a float32 (3,) parameter keeps its
        shape and dtype, and the one before it is not stepped."""
        q = Tensor(np.zeros(2), requires_grad=True, dtype=np.float32)
        p = Tensor(np.zeros(3), requires_grad=True, dtype=np.float32)
        opt = AdamW(_holder(q=q, p=p), lr=0.1)
        q.grad, p.grad = np.ones(2, np.float32), grad
        with pytest.raises(ValueError, match="'p'"):
            opt.step()
        assert opt.step_count == 0
        assert q.data.tolist() == [0.0, 0.0]
        assert (p.shape, p.dtype) == ((3,), np.float32)

    def test_no_trainable_parameter_is_an_error(self):
        with pytest.raises(ValueError, match="no trainable parameters"):
            AdamW(_holder(frozen=Tensor(np.zeros(3))), lr=0.1)

    def test_tensor_under_two_names_is_an_error(self):
        shared = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ValueError, match="'a' and 'b'"):
            AdamW(_holder(a=shared, b=shared), lr=0.1)

    def test_mixed_dtypes_are_an_error(self):
        a = Tensor(np.zeros(3), requires_grad=True, dtype=np.float32)
        b = Tensor(np.zeros(3), requires_grad=True, dtype=np.float64)
        with pytest.raises(ValueError, match="float32, float64"):
            AdamW(_holder(a=a, b=b), lr=0.1)


def _per_parameter_adamw(params, grads, ms, vs, step, lr, weight_decay):
    """The update one parameter at a time, as AdamW stepped before it went
    flat; updates ms and vs in place and returns the new parameters."""
    beta1, beta2, eps = AdamW.beta1, AdamW.beta2, AdamW.eps
    bc1 = 1.0 - beta1**step
    bc2 = 1.0 - beta2**step
    out = []
    for i, (p, g) in enumerate(zip(params, grads)):
        m = ms[i] = beta1 * ms[i] + (1.0 - beta1) * g
        v = vs[i] = beta2 * vs[i] + (1.0 - beta2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + eps)
        if weight_decay:
            update = update + weight_decay * p
        out.append(p - lr * update)
    return out


class TestFit:
    def _quadratic(self, seen, nan_at=None):
        """A Linear fitted to zero output; seen records the weight at every
        loss call, and call nan_at (1-based) reports a non-finite loss."""
        layer = Linear(3, 2, _rng(5)).double()
        x = _rng(6).normal(size=(10, 3))

        def loss_fn(rows):
            seen.append(layer.weight.data.copy())
            loss = square(layer(Tensor(x[rows]))).mean()
            value = np.nan if len(seen) == nan_at else float(loss.data)
            return loss, {"loss": value}, rows.size

        return layer, loss_fn

    def test_runs_whole_epochs_with_a_short_last_batch(self):
        """Ten items in batches of four: every epoch takes 4, 4, then 2, and
        ends with one metrics row and one checkpoint; final holds the last
        epoch's mean."""
        seen, sizes, saves = [], [], []
        layer, loss_fn = self._quadratic(seen)
        log = MetricsLog()
        report = fit(layer, 10, loss_fn, rng=_rng(7), epochs=2, batch_size=4, lr=1e-2,
                     weight_decay=0.0, metrics=log,
                     after_update=sizes.append, checkpoint=lambda: saves.append(1))
        assert report.steps_run == len(report.step_losses) == 6
        assert sizes == [4, 4, 2, 4, 4, 2]
        assert len(saves) == 2
        assert [(step, metric) for step, _, metric, _ in log.rows] == [(3, "loss"), (6, "loss")]
        assert report.final["loss"] == sum(report.step_losses[3:]) / 3

    def test_previous_step_graph_freed_before_next_forward(self):
        """fit holds one step's graph at a time: when loss_fn runs, the loss
        it returned for the previous step is gone, its data with it."""
        layer = Linear(3, 2, _rng(5)).double()
        x = _rng(6).normal(size=(10, 3))
        returned = []

        def loss_fn(rows):
            assert not returned or returned[-1]() is None
            loss = square(layer(Tensor(x[rows]))).mean()
            returned.append(weakref.ref(loss.data))
            return loss, {"loss": float(loss.data)}, None

        report = fit(layer, 10, loss_fn, rng=_rng(7), epochs=2, batch_size=4, lr=1e-2,
                     weight_decay=0.0)
        assert report.steps_run == len(returned) == 6

    def test_rollback_to_last_finite_state_before_checkpoint(self):
        seen, saved = [], []
        layer, loss_fn = self._quadratic(seen, nan_at=3)
        with pytest.raises(DivergenceError, match="step 2"):
            fit(layer, 10, loss_fn, rng=_rng(7), epochs=2, batch_size=4, lr=1e-2,
                weight_decay=0.0, checkpoint=lambda: saved.append(layer.weight.data.copy()))
        assert not np.array_equal(seen[1], seen[2])
        np.testing.assert_array_equal(layer.weight.data, seen[1])
        np.testing.assert_array_equal(saved[-1], seen[1])

    def test_walks_the_model_once_per_call(self, monkeypatch):
        """The per-step snapshot reuses one list of the model's tensors, so
        the walks do not grow with the number of steps."""
        walks = []
        named_tensors = Module.named_tensors

        def counting(self):
            walks.append(1)
            return named_tensors(self)

        monkeypatch.setattr(Module, "named_tensors", counting)
        counts = []
        for epochs in (1, 3):
            walks.clear()
            layer, loss_fn = self._quadratic([])
            fit(layer, 10, loss_fn, rng=_rng(7), epochs=epochs, batch_size=4, lr=1e-2,
                weight_decay=0.0)
            counts.append(len(walks))
        assert counts[0] == counts[1]

    def test_rollback_undoes_a_codebook_restart(self, monkeypatch):
        """A toy tokenizer whose first update overflows: that step's
        codebook maintenance re-seeds entries in the optimizer's fresh
        array, the next loss is non-finite, and the model returns to the
        entries' bytes before the step."""
        from flowtok import pipeline
        from flowtok.vq import codebook_maintenance

        cfg = pipeline.TokenizerConfig(
            frames=16, data_dim=8, code_dim=8, codebook_size=64, objective="mse",
            encoder=TransformerConfig(n_blocks=1, hidden_dim=32, head_dim=16, causal=True,
                                      max_len=16),
            decoder=TransformerConfig(n_blocks=1, hidden_dim=32, head_dim=16, causal=False,
                                      max_len=16),
            timestep_dim=16, batch_size=4, epochs=2, lr=1e38)
        model = pipeline.TokenizerModel(cfg)
        before = model.codebook.entries.data.copy()
        restarted = []

        def recording(codebook, *args):
            dead = codebook_maintenance(codebook, *args)
            restarted.append((dead, codebook.entries.data.copy()))
            return dead

        monkeypatch.setattr(pipeline, "codebook_maintenance", recording)
        ds = pipeline.LatentDataset(_rng(8).normal(size=(8, 16, 8)).astype(np.float32),
                                    np.zeros(8, dtype=np.uint16))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="step 1"):
                pipeline.train_tokenizer(ds, model, cfg)
        (dead, after_step), = restarted
        assert dead.size > 0 and after_step[dead].tobytes() != before[dead].tobytes()
        assert model.codebook.entries.data.tobytes() == before.tobytes()

    def test_no_training_step_writes_into_a_held_array(self, monkeypatch):
        """The rule fit's rollback relies on: the arrays the model's tensors
        hold when a step starts keep their bytes through every later step.
        The toy tokenizer restarts codebook entries from its first step on;
        the fusion LM trains adapters over a frozen base."""
        from flowtok import lm, pipeline

        held = []

        def recording_fit(model, n_items, loss_fn, **kwargs):
            def recorded(rows):
                held.extend((t.data, t.data.tobytes()) for _, t in model.named_tensors())
                return loss_fn(rows)

            return fit(model, n_items, recorded, **kwargs)

        monkeypatch.setattr(pipeline, "fit", recording_fit)
        monkeypatch.setattr(lm, "fit", recording_fit)
        cfg = pipeline.TokenizerConfig(
            frames=16, data_dim=8, code_dim=8, codebook_size=64, objective="mse",
            encoder=TransformerConfig(n_blocks=1, hidden_dim=32, head_dim=16, causal=True,
                                      max_len=16),
            decoder=TransformerConfig(n_blocks=1, hidden_dim=32, head_dim=16, causal=False,
                                      max_len=16),
            timestep_dim=16, batch_size=4, epochs=2)
        ds = pipeline.LatentDataset(_rng(8).normal(size=(8, 16, 8)).astype(np.float32),
                                    np.zeros(8, dtype=np.uint16))
        log = MetricsLog()
        pipeline.train_tokenizer(ds, pipeline.TokenizerModel(cfg), cfg, metrics=log)
        assert [value for _, _, metric, value in log.rows if metric == "restarts"][0] > 0

        model = lm.FusionLM(lm.FusionConfig(v_text=128, n_blocks=2, hidden_dim=32, head_dim=16,
                                            max_len=32), _rng(9))
        vocab = lm.extend_vocab(model, 8, _rng(10))
        examples = [lm.build_pretrain_example(caption, codes, vocab, _rng(11))
                    for caption, codes in (("a hum", [1, 2, 3]), ("a bell", [4, 5]))]
        lm.train_lm(examples, model, lm.LmTrainConfig(epochs=3, batch_size=1, seed=2))

        assert len(held) > 0
        assert all(array.tobytes() == saved for array, saved in held)


class TestKeepFreedMemory:
    """The allocator policy nn sets at import, against a stand-in C library."""

    @pytest.fixture
    def libc(self, monkeypatch):
        """Puts a recording stand-in where nn loads the C library. `replies`
        maps a mallopt parameter to its return value (1 when absent); with
        `has_mallopt` False the library lacks the symbol."""
        calls, replies = [], {}
        options = {"has_mallopt": True}

        class Library:
            def __init__(self, name):
                calls.append(("load", name))
                if options["has_mallopt"]:
                    def mallopt(param, value):
                        calls.append((param, value))
                        return replies.get(param, 1)
                    self.mallopt = mallopt

        monkeypatch.setattr("flowtok.nn.ctypes.CDLL", Library)
        yield calls, replies, options

    def _fit(self):
        layer = Linear(3, 2, _rng(5)).double()
        before = layer.weight.data.copy()
        x = _rng(6).normal(size=(8, 3))

        def loss_fn(rows):
            loss = square(layer(Tensor(x[rows]))).mean()
            return loss, {"loss": float(loss.data)}, None

        report = fit(layer, 8, loss_fn, rng=_rng(7), epochs=1, batch_size=4, lr=1e-2,
                     weight_decay=0.0)
        assert report.steps_run == 2 and not np.array_equal(layer.weight.data, before)

    def test_mmap_threshold_before_trim_threshold(self, libc):
        calls, _, _ = libc
        _keep_freed_memory()
        assert calls == [("load", None), (-3, 32 * 1024 * 1024), (-1, -1)]

    def test_refused_mmap_threshold_leaves_trimming_on(self, libc):
        """Trimming off alone would freeze the mmap threshold at 128 KiB."""
        calls, replies, _ = libc
        replies[-3] = 0
        _keep_freed_memory()
        assert calls == [("load", None), (-3, 32 * 1024 * 1024)]

    def test_without_mallopt_fit_still_trains(self, libc):
        calls, _, options = libc
        options["has_mallopt"] = False
        _keep_freed_memory()
        self._fit()
        assert calls == [("load", None)]

    def test_runs_once_per_process(self, libc):
        """The policy is set when nn is imported; neither fit nor a decode
        asks the C library again."""
        from flowtok import pipeline

        calls, _, _ = libc
        self._fit()
        model = pipeline.TokenizerModel(pipeline.TokenizerConfig(
            frames=4, data_dim=4, code_dim=4, codebook_size=4,
            encoder=TransformerConfig(n_blocks=1, hidden_dim=8, head_dim=4, causal=True,
                                      max_len=4),
            decoder=TransformerConfig(n_blocks=1, hidden_dim=8, head_dim=4, max_len=4)))
        pipeline.decode_tokens(np.zeros(4, dtype=np.int64), model, n_steps=1)
        assert calls == []


# Trains a small causal stack with fit in a fresh process, whose heap no
# other test has shaped, and prints the minor page faults over the steps
# after the first two.
_FAULT_PROBE = textwrap.dedent("""
    import resource
    import numpy as np
    from flowtok.nn import TransformerConfig, TransformerStack, fit
    from flowtok.tensor import Tensor, square

    rng = np.random.default_rng(0)
    cfg = TransformerConfig(n_blocks=2, hidden_dim=128, head_dim=32, causal=True, max_len=64)
    stack = TransformerStack(cfg, rng)
    x = rng.normal(size=(32, 64, 128)).astype(np.float32)
    marks = []

    def loss_fn(rows):
        loss = square(stack(Tensor(x[rows]))).mean()
        return loss, {"loss": float(loss.data)}, None

    fit(stack, 32, loss_fn, rng=np.random.default_rng(1), epochs=2, batch_size=8, lr=1e-3,
        weight_decay=0.0, after_update=lambda _: marks.append(
            resource.getrusage(resource.RUSAGE_SELF).ru_minflt))
    print(marks[-1] - marks[1])
""")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is glibc's mallopt")
def test_training_steps_reuse_freed_memory():
    """Six steps after two warm-up steps fault in 3,800 to 4,800 pages when
    glibc trims each step's freed activations and about 80 with trimming
    off; the bound is a tenth of the former."""
    src = str(Path(flowtok.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _FAULT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    faults = int(proc.stdout)
    assert faults < 470, f"{faults} minor page faults over six warm training steps"


class TestModuleRegistry:
    def test_names_are_dotted_and_deterministic(self):
        rng = _rng(11)
        cfg = TransformerConfig(n_blocks=2, hidden_dim=8, head_dim=4)
        stack = TransformerStack(cfg, rng)
        names = [n for n, _ in stack.named_parameters()]
        assert names[0] == "pos" and names[1].startswith("blocks.0.")
        assert names == [n for n, _ in stack.named_parameters()]
        assert "ln_f.gamma" in names

    def test_stack_rejects_four_dim_input(self):
        cfg = TransformerConfig(n_blocks=1, hidden_dim=8, head_dim=4, max_len=4)
        stack = TransformerStack(cfg, _rng(12))
        with pytest.raises(ShapeError, match=r"\(T, H\) or \(B, T, H\)"):
            stack(Tensor(np.zeros((1, 1, 3, 8), dtype=np.float32)))

    def test_linear_bias_broadcasts(self):
        lin = Linear(4, 3, _rng(13))
        out = lin(Tensor(np.ones((5, 4), dtype=np.float32)))
        assert out.shape == (5, 3)


def _composite_layer_norm(x, gamma, beta):
    """LayerNorm as separate tape ops: the slow oracle for tensor.layer_norm."""
    centered = x - tmean(x, axis=-1, keepdims=True)
    var = tmean(square(centered), axis=-1, keepdims=True)
    normed = centered * power(var + Tensor(np.asarray(LAYER_NORM_EPS, var.dtype)), -0.5)
    return normed * gamma + beta


def _composite_attention(q, k, v, n_heads, causal):
    """Attention as separate tape ops: the slow oracle for nn.attention."""
    b, t, h = q.shape
    tk = k.shape[1]
    dh = h // n_heads

    def split(x):
        return swapaxes(x.reshape(b, x.shape[1], n_heads, dh), 1, 2)

    qh, kh, vh = split(q), split(k), split(v)
    scores = scale(matmul(qh, swapaxes(kh, -1, -2)), dh**-0.5)
    if causal and t > 1:
        scores = scores + Tensor(causal_mask(tk, q.dtype)[tk - t:])
    out = matmul(softmax(scores), vh)
    return swapaxes(out, 1, 2).reshape(b, t, h)


def _grads(fn, arrays, probe):
    """Gradients of sum(fn(*leaves) * probe) for float64 leaves."""
    leaves = [Tensor(a, requires_grad=True, dtype=np.float64) for a in arrays]
    (fn(*leaves) * Tensor(probe)).sum().backward()
    return [t.grad for t in leaves]


def _assert_within(fused, oracle, tol=1e-5):
    for a, b in zip(fused, oracle, strict=True):
        err = np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
        assert err.max() < tol


class TestFusedAgainstComposites:
    """The fused tape ops against the composites they replaced: the float32
    forward is byte-equal, the float64 gradients agree within 1e-5."""

    def test_layer_norm(self):
        rng = _rng(40)
        ln = LayerNorm(16)
        ln.gamma.data = rng.normal(size=16).astype(np.float32)
        ln.beta.data = rng.normal(size=16).astype(np.float32)
        x = Tensor(rng.normal(1.0, 3.0, size=(3, 5, 16)).astype(np.float32))
        fused = ln(x).data
        assert fused.tobytes() == _composite_layer_norm(x, ln.gamma, ln.beta).data.tobytes()

        arrays = [x.data, ln.gamma.data, ln.beta.data]
        probe = rng.normal(size=(3, 5, 16))
        _assert_within(_grads(lambda *t: layer_norm(*t, LAYER_NORM_EPS), arrays, probe),
                       _grads(_composite_layer_norm, arrays, probe))

    @pytest.mark.parametrize("t, tk, causal", [
        (6, 6, False), (6, 6, True), (3, 7, True), (1, 5, True), (1, 1, False),
    ], ids=["full", "causal", "causal_t_lt_tk", "causal_one_query", "one_position"])
    def test_attention(self, t, tk, causal):
        rng = _rng(41)
        q = rng.normal(size=(2, t, 8)).astype(np.float32)
        k, v = (rng.normal(size=(2, tk, 8)).astype(np.float32) for _ in range(2))
        fused = attention(Tensor(q), Tensor(k), Tensor(v), n_heads=2, causal=causal).data
        oracle = _composite_attention(Tensor(q), Tensor(k), Tensor(v), 2, causal).data
        assert fused.tobytes() == oracle.tobytes()

        probe = rng.normal(size=(2, t, 8))
        _assert_within(
            _grads(lambda *a: attention(*a, n_heads=2, causal=causal), [q, k, v], probe),
            _grads(lambda *a: _composite_attention(*a, 2, causal), [q, k, v], probe))

    def test_attention_second_backward(self):
        """A second backward() from the same root doubles every leaf gradient;
        a backward() from another root over the same output adds that
        root's gradient, not a stale one."""
        rng = _rng(42)
        leaves = [Tensor(rng.normal(size=(1, 4, 8)), requires_grad=True) for _ in range(3)]
        out = attention(*leaves, n_heads=2, causal=True)
        probes = [Tensor(rng.normal(size=(1, 4, 8))) for _ in range(2)]
        root = (out * probes[0]).sum()
        root.backward()
        once = [t.grad.copy() for t in leaves]
        root.backward()
        for t, g in zip(leaves, once):
            np.testing.assert_array_equal(t.grad, 2 * g)
        (out * probes[1]).sum().backward()
        expected = _grads(lambda *a: _composite_attention(*a, 2, True),
                          [t.data for t in leaves], 2 * probes[0].data + probes[1].data)
        _assert_within([t.grad for t in leaves], expected)


class TestCompositeGradients:
    def test_blocks_against_finite_differences(self):
        report = block_gradient_checks()
        assert report["layer_norm"] < 1e-5
        bad = {k: v for k, v in report.items() if v >= 1e-4}
        assert not bad, f"composite checks over tolerance: {bad}"
