"""Fusion LM: vocabulary, adapters, example builders, loss, generation."""

import numpy as np
import pytest

from flowtok.lm import (
    AUDIO_WEIGHT,
    FusionConfig,
    FusionLM,
    FusionSequence,
    GenerationResult,
    LmTrainConfig,
    LoraLinear,
    Vocab,
    audio_spans_valid,
    build_finetune_example,
    build_pretrain_example,
    collate,
    extend_vocab,
    frozen_digest,
    generate,
    next_token_accuracy,
    train_lm,
    weighted_ce_zloss,
)
from flowtok.nn import DivergenceError
from flowtok.tensor import ShapeError, Tensor


class _FixedRandom:
    """Stub RNG whose random() always returns one value; forces a branch."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def small_config(**overrides):
    base = dict(v_text=256, n_blocks=2, hidden_dim=64, head_dim=32,
                max_len=96, lora_rank=4, lora_alpha=8.0)
    base.update(overrides)
    return FusionConfig(**base)


def extended_model(n_audio=8, seed=0, **cfg_overrides):
    model = FusionLM(small_config(**cfg_overrides), np.random.default_rng(seed))
    vocab = extend_vocab(model, n_audio, np.random.default_rng(seed + 1))
    return model, vocab


class TestVocab:
    def test_layout(self):
        v = Vocab(v_text=256, n_audio=8)
        assert v.soa == 264 and v.eoa == 265 and v.size == 266

    def test_is_audio_boundaries(self):
        v = Vocab(v_text=256, n_audio=8)
        assert not v.is_audio(255)
        assert v.is_audio(256)
        assert v.is_audio(263)
        assert not v.is_audio(264)

    def test_audio_id_round_trip(self):
        v = Vocab(v_text=256, n_audio=8)
        codes = np.array([0, 3, 7])
        np.testing.assert_array_equal(v.codes_of(v.audio_ids(codes)), codes)

    def test_audio_code_out_of_range(self):
        v = Vocab(v_text=256, n_audio=8)
        with pytest.raises(ValueError, match="audio code"):
            v.audio_ids([8])

    def test_text_round_trip(self):
        v = Vocab(v_text=256, n_audio=4)
        assert v.decode_text(v.encode_text("A loud drum")) == "A loud drum"

    def test_ranges_disjoint_and_cover(self):
        v = Vocab(v_text=10, n_audio=3)
        ids = np.arange(v.size)
        text = ids < 10
        audio = v.is_audio(ids)
        markers = (ids == v.soa) | (ids == v.eoa)
        assert np.all(text.astype(int) + audio.astype(int) + markers.astype(int) == 1)


class TestLoraLinear:
    def test_zero_b_matches_base_exactly(self):
        layer = LoraLinear(6, 5, rank=2, alpha=4.0, rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).standard_normal((3, 6)).astype(np.float32))
        base = (x.data @ layer.weight.data) + layer.bias.data
        np.testing.assert_array_equal(layer(x).data, base)

    def test_hand_worked_delta(self):
        """d=2, identity base, rank 1, alpha=rank: input [3, 5] picks up its
        first coordinate on the first output, giving [6, 5]."""
        layer = LoraLinear(2, 2, rank=1, alpha=1.0, rng=np.random.default_rng(0))
        layer.weight.data[:] = np.eye(2, dtype=np.float32)
        layer.lora_a.data[:] = np.array([[1.0], [0.0]], dtype=np.float32)
        layer.lora_b.data[:] = np.array([[1.0, 0.0]], dtype=np.float32)
        out = layer(Tensor(np.array([[3.0, 5.0]], dtype=np.float32)))
        np.testing.assert_array_equal(out.data, [[6.0, 5.0]])

    def test_only_adapters_learn(self):
        layer = LoraLinear(4, 3, rank=2, alpha=4.0, rng=np.random.default_rng(2))
        trainable = {name for name, _ in layer.named_parameters()}
        assert trainable == {"lora_a", "lora_b"}

    def test_gradient_reaches_adapters_not_base(self):
        layer = LoraLinear(4, 3, rank=2, alpha=4.0, rng=np.random.default_rng(3))
        x = Tensor(np.random.default_rng(4).standard_normal((2, 4)).astype(np.float32))
        from flowtok.tensor import square
        square(layer(x)).mean().backward()
        assert layer.lora_a.grad is not None
        assert layer.lora_b.grad is not None
        assert layer.weight.grad is None

    def test_dim_mismatch_rejected(self):
        layer = LoraLinear(4, 3, rank=1, alpha=1.0, rng=np.random.default_rng(0))
        with pytest.raises(ShapeError):
            layer(Tensor(np.zeros((2, 5), dtype=np.float32)))


class TestFusionConfig:
    def test_indivisible_heads_rejected(self):
        with pytest.raises(ShapeError, match="divisible"):
            small_config(hidden_dim=48, head_dim=32)


class TestExtendVocab:
    def test_vocab_size_arithmetic(self):
        model, vocab = extended_model(n_audio=12)
        assert model.vocab_size == 256 + 12 + 2
        assert vocab.size == model.vocab_size

    def test_double_extension_rejected(self):
        model, _ = extended_model()
        with pytest.raises(ValueError, match="already extended"):
            extend_vocab(model, 8, np.random.default_rng(0))

    def test_text_slice_logits_exact_after_extension(self):
        """Extending the vocabulary must not move a single bit of the text
        logits: frozen rows are gathered unchanged and the text head runs
        as the same matmul."""
        model = FusionLM(small_config(), np.random.default_rng(7))
        prompt = np.array([72, 101, 108, 108, 111], dtype=np.int64)
        before = model(prompt).data.copy()
        extend_vocab(model, 8, np.random.default_rng(8))
        after = model(prompt).data
        assert after.shape[-1] == 266
        np.testing.assert_array_equal(after[:, :256], before)

    def test_new_rows_trainable_text_rows_frozen(self):
        model, _ = extended_model()
        trainable = {name for name, _ in model.named_parameters()}
        assert "audio_embed" in trainable and "out_ext" in trainable
        assert "text_embed" not in trainable and "out_base" not in trainable

    def test_new_row_gradients_nonzero_with_audio(self):
        model, vocab = extended_model()
        ids = np.array([65, vocab.soa, vocab.audio_ids([2])[0], vocab.eoa, 66])
        logits = model(ids[:-1])
        loss, _, total = weighted_ce_zloss(logits, ids[1:], np.ones(4))
        total.backward()
        assert model.audio_embed.grad is not None
        used_row = vocab.soa - 256
        assert np.linalg.norm(model.audio_embed.grad[used_row]) > 0


class TestBuilders:
    def test_forced_text_first(self):
        _, vocab = extended_model()
        seq = build_pretrain_example("A drum", [1, 2], vocab, _FixedRandom(0.0))
        assert seq.ids[0] == ord("A")
        assert seq.ids[-1] == vocab.eoa

    def test_forced_audio_first(self):
        _, vocab = extended_model()
        seq = build_pretrain_example("A drum", [1, 2], vocab, _FixedRandom(0.99))
        assert seq.ids[0] == vocab.soa
        assert seq.ids[-1] == ord("m")

    def test_order_split_monte_carlo(self):
        vocab = Vocab(v_text=256, n_audio=4)
        rng = np.random.default_rng(0)
        text_first = sum(
            build_pretrain_example("x", [0], vocab, rng).ids[0] == ord("x")
            for _ in range(10_000))
        assert 0.47 <= text_first / 10_000 <= 0.53

    def test_pretrain_weights(self):
        _, vocab = extended_model()
        seq = build_pretrain_example("ab", [1, 2, 3], vocab, _FixedRandom(0.0))
        np.testing.assert_array_equal(seq.weights, [1, 1, 10, 10, 10, 10, 10])

    def test_pretrain_rejects_empty_parts(self):
        _, vocab = extended_model()
        with pytest.raises(ValueError, match="empty caption"):
            build_pretrain_example("", [1], vocab, _FixedRandom(0.0))
        with pytest.raises(ValueError, match="empty audio"):
            build_pretrain_example("x", [], vocab, _FixedRandom(0.0))

    def test_finetune_template_structure(self):
        _, vocab = extended_model()
        seq = build_finetune_example("What sound?", [1, 2], "A drum", vocab)
        ids = seq.ids
        assert (ids == vocab.soa).sum() == 1
        assert (ids == vocab.eoa).sum() == 1
        text = vocab.decode_text(ids[~((ids >= 256))])
        assert text.startswith("USER: ")
        assert " ASSISTANT: " in text
        assert text.endswith("A drum")

    def test_finetune_prompt_zero_answer_one(self):
        _, vocab = extended_model()
        seq = build_finetune_example("Describe.", [0], "ok", vocab)
        answer_len = 2
        np.testing.assert_array_equal(seq.weights[:-answer_len], 0.0)
        np.testing.assert_array_equal(seq.weights[-answer_len:], 1.0)

    def test_finetune_audio_answer_weighted_ten(self):
        _, vocab = extended_model()
        seq = build_finetune_example("Echo it.", [0], "here:", vocab,
                                     answer_audio_codes=[3, 4])
        tail = seq.weights[-4:]
        np.testing.assert_array_equal(tail, [10.0, 10.0, 10.0, 10.0])
        valid, open_span = audio_spans_valid(seq.ids, vocab)
        assert valid and not open_span

    def test_finetune_rejects_empty_answer(self):
        _, vocab = extended_model()
        with pytest.raises(ValueError, match="empty answer"):
            build_finetune_example("Q", [1], "", vocab)

    def test_builders_produce_valid_spans(self):
        _, vocab = extended_model()
        rng = np.random.default_rng(3)
        for _ in range(20):
            seq = build_pretrain_example("hello", [1, 2], vocab, rng)
            valid, open_span = audio_spans_valid(seq.ids, vocab)
            assert valid and not open_span


class TestSpanScan:
    def test_detects_nesting(self):
        v = Vocab(v_text=4, n_audio=2)
        assert audio_spans_valid([0, v.soa, v.soa], v)[0] is False

    def test_detects_stray_eoa(self):
        v = Vocab(v_text=4, n_audio=2)
        assert audio_spans_valid([0, v.eoa], v)[0] is False

    def test_detects_unbracketed_audio(self):
        v = Vocab(v_text=4, n_audio=2)
        assert audio_spans_valid([4], v)[0] is False

    def test_open_state_reported(self):
        v = Vocab(v_text=4, n_audio=2)
        valid, open_span = audio_spans_valid([0, v.soa, 4], v)
        assert valid and open_span


class TestWeightedLoss:
    def test_uniform_logits_log_vocab(self):
        logits = Tensor(np.zeros((3, 4)))
        loss, _, _ = weighted_ce_zloss(logits, [0, 1, 2], [1.0, 5.0, 2.0])
        assert float(loss.data) == pytest.approx(np.log(4.0), rel=1e-6)

    def test_weighted_mean_formula(self):
        """Per-token losses 1.0 and 2.0 with weights 1 and 10 combine to
        21/11."""
        c1 = np.log(np.e - 1.0)
        c2 = np.log(np.e ** 2 - 1.0)
        logits = Tensor(np.array([[0.0, c1], [0.0, c2]], dtype=np.float64))
        loss, _, _ = weighted_ce_zloss(logits, [0, 0], [1.0, 10.0])
        assert float(loss.data) == pytest.approx(21.0 / 11.0, rel=1e-9)

    def test_zloss_single_position(self):
        logits = Tensor(np.array([[0.0, 0.0]], dtype=np.float64))
        _, zloss, _ = weighted_ce_zloss(logits, [0], [1.0], z_coeff=1e-4)
        assert float(zloss.data) == pytest.approx(1e-4 * np.log(2.0) ** 2, rel=1e-9)

    def test_matches_high_precision_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        rng = np.random.default_rng(11)
        logits = rng.standard_normal((4, 7)) * 3.0
        targets = rng.integers(0, 7, size=4)
        weights = rng.uniform(0.5, 10.0, size=4)
        ce_sum = mpmath.mpf(0)
        z_sum = mpmath.mpf(0)
        for t in range(4):
            z = sum(mpmath.exp(mpmath.mpf(v)) for v in logits[t])
            lse = mpmath.log(z)
            ce_sum += mpmath.mpf(weights[t]) * (lse - mpmath.mpf(logits[t, targets[t]]))
            z_sum += lse ** 2
        want_loss = ce_sum / mpmath.mpf(weights.sum())
        want_z = mpmath.mpf(1e-4) * z_sum / 4
        loss, zloss, total = weighted_ce_zloss(Tensor(logits), targets, weights)
        assert abs(float(loss.data) - float(want_loss)) / float(want_loss) < 1e-6
        assert abs(float(zloss.data) - float(want_z)) / float(want_z) < 1e-6
        assert float(total.data) == pytest.approx(float(loss.data) + float(zloss.data))

    def test_audio_gradient_ten_times_text(self):
        """Identical logit rows and targets of equal logit value: the only
        difference between the two positions is the 10x weight, so their
        logit-gradient norms differ by exactly that factor."""
        logits = Tensor(np.zeros((2, 5)), requires_grad=True)
        loss, _, _ = weighted_ce_zloss(logits, [0, 1], [10.0, 1.0], z_coeff=0.0)
        loss.backward()
        g = logits.grad
        ratio = np.linalg.norm(g[0]) / np.linalg.norm(g[1])
        assert abs(ratio - 10.0) < 1e-5

    def test_padding_excluded_from_zloss(self):
        logits = Tensor(np.array([[[0.0, 0.0], [5.0, 5.0]]]))
        valid = np.array([[True, False]])
        _, z_masked, _ = weighted_ce_zloss(logits, [[0, 0]], [[1.0, 0.0]],
                                           valid_mask=valid)
        _, z_all, _ = weighted_ce_zloss(logits, [[0, 0]], [[1.0, 1.0]])
        assert float(z_masked.data) == pytest.approx(1e-4 * np.log(2.0) ** 2, rel=1e-5)
        assert float(z_all.data) > float(z_masked.data)

    def test_shape_errors(self):
        logits = Tensor(np.zeros((3, 4)))
        with pytest.raises(ShapeError, match="weights"):
            weighted_ce_zloss(logits, [0, 1, 2], [1.0, 1.0])
        with pytest.raises(ShapeError, match="targets"):
            weighted_ce_zloss(logits, [0, 1], [1.0, 1.0])

    def test_zero_weight_sum_rejected(self):
        logits = Tensor(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="zero"):
            weighted_ce_zloss(logits, [0, 1], [0.0, 0.0])


class TestCollate:
    def test_padding_layout(self):
        v = Vocab(v_text=8, n_audio=2)
        a = FusionSequence(ids=np.array([1, 2, 3]), weights=np.array([1.0, 1.0, 10.0]))
        b = FusionSequence(ids=np.array([4, 5]), weights=np.array([1.0, 1.0]))
        inputs, targets, weights, valid = collate([a, b])
        np.testing.assert_array_equal(inputs, [[1, 2], [4, 0]])
        np.testing.assert_array_equal(targets, [[2, 3], [5, 0]])
        np.testing.assert_array_equal(weights, [[1.0, 10.0], [1.0, 0.0]])
        np.testing.assert_array_equal(valid, [[True, True], [True, False]])

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            collate([])


class TestTraining:
    def make_examples(self, vocab, n=6, seed=0):
        rng = np.random.default_rng(seed)
        out = []
        for i in range(n):
            codes = rng.integers(0, vocab.n_audio, size=4)
            out.append(build_pretrain_example(f"clip {i}", codes, vocab, rng))
        return out

    def test_frozen_parts_conserved(self):
        model, vocab = extended_model()
        digest_before = frozen_digest(model)
        examples = self.make_examples(vocab)
        train_lm(examples, model, LmTrainConfig(epochs=2, batch_size=3, lr=1e-3))
        assert frozen_digest(model) == digest_before

    def test_text_embedding_rows_bit_identical(self):
        model, vocab = extended_model()
        rows_before = model.text_embed.data.copy()
        out_before = model.out_base.data.copy()
        train_lm(self.make_examples(vocab), model,
                 LmTrainConfig(epochs=1, batch_size=3, lr=1e-2))
        np.testing.assert_array_equal(model.text_embed.data, rows_before)
        np.testing.assert_array_equal(model.out_base.data, out_before)

    def test_loss_decreases_on_overfit(self):
        model, vocab = extended_model(seed=3)
        examples = self.make_examples(vocab, n=3, seed=3)
        report = train_lm(examples, model, LmTrainConfig(epochs=30, batch_size=3, lr=3e-3))
        assert np.mean(report.step_losses[-5:]) < np.mean(report.step_losses[:5])

    def test_trainable_set_is_adapters_and_new_rows(self):
        """Only the LoRA factors of the six dense layers per block and the
        audio rows learn. frozen_digest hashes frozen tensors only, so a
        norm left trainable would slip past the conservation test."""
        model, _ = extended_model()
        layers = ("attn.wq", "attn.wk", "attn.wv", "attn.wo", "mlp.fc1", "mlp.fc2")
        expected = {f"stack.blocks.{i}.{layer}.{factor}"
                    for i in range(model.cfg.n_blocks) for layer in layers
                    for factor in ("lora_a", "lora_b")}
        expected |= {"audio_embed", "out_ext"}
        assert {name for name, _ in model.named_parameters()} == expected

    def test_divergence_aborts_and_rolls_back(self):
        """lr large enough that the first update overflows float32 on the
        next forward pass, so the only loss ever certified finite is the
        one at initialization."""
        model, vocab = extended_model()
        before = {name: t.data.copy() for name, t in model.named_tensors()}
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="non-finite"):
                train_lm(self.make_examples(vocab), model, LmTrainConfig(lr=1e38))
        for name, t in model.named_tensors():
            assert np.all(np.isfinite(t.data)), name
            np.testing.assert_array_equal(t.data, before[name], err_msg=name)

    def test_requires_extension(self):
        model = FusionLM(small_config(), np.random.default_rng(0))
        seq = FusionSequence(ids=np.array([1, 2]), weights=np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="extend_vocab"):
            train_lm([seq], model, LmTrainConfig())

    def test_metrics_rows(self):
        from flowtok.data import MetricsLog
        model, vocab = extended_model()
        log = MetricsLog()
        train_lm(self.make_examples(vocab), model,
                 LmTrainConfig(epochs=2, batch_size=3), metrics=log)
        metric_names = {m for _, _, m, _ in log.rows}
        assert metric_names == {"ce", "zloss", "loss"}
        assert len(log.rows) == 6


class TestGeneration:
    def test_constrained_spans_always_valid(self):
        model, vocab = extended_model(seed=5)
        prompt = vocab.encode_text("hi ")
        for seed in range(5):
            result = generate(model, prompt, max_new_tokens=24,
                              rng=np.random.default_rng(seed), temperature=1.0)
            valid, _ = audio_spans_valid(result.tokens, vocab)
            assert valid

    def test_temperature_zero_is_greedy(self):
        model, vocab = extended_model(seed=6)
        prompt = vocab.encode_text("abc")
        a = generate(model, prompt, 8, temperature=0.0)
        b = generate(model, prompt, 8, temperature=1e-9,
                     rng=np.random.default_rng(0))
        # At vanishing temperature one token dominates the softmax, so
        # sampling agrees with argmax.
        np.testing.assert_array_equal(a.tokens, b.tokens)

    def test_unclosed_span_flagged(self):
        model, vocab = extended_model()
        prompt = np.concatenate([vocab.encode_text("x"), [vocab.soa]])
        result = generate(model, prompt, max_new_tokens=0)
        assert result.unclosed_audio

    def test_invalid_prompt_rejected(self):
        model, vocab = extended_model()
        with pytest.raises(ValueError, match="bracketing"):
            generate(model, np.array([vocab.eoa]), 4)

    def test_out_of_range_prompt_rejected(self):
        model, vocab = extended_model()
        with pytest.raises(ValueError, match="prompt id"):
            generate(model, np.array([vocab.size]), 4)

    def test_unconstrained_mode_can_differ(self):
        model, vocab = extended_model(seed=8)
        prompt = vocab.encode_text("q")
        constrained = generate(model, prompt, 16, rng=np.random.default_rng(1),
                               temperature=1.5, constrain_audio=True)
        free = generate(model, prompt, 16, rng=np.random.default_rng(1),
                        temperature=1.5, constrain_audio=False)
        assert isinstance(constrained, GenerationResult)
        assert constrained.tokens.shape == free.tokens.shape

    def test_respects_max_len(self):
        model, vocab = extended_model()
        prompt = vocab.encode_text("a" * 90)
        result = generate(model, prompt, max_new_tokens=50, temperature=0.0)
        assert result.tokens.size <= model.cfg.max_len


class TestMemorization:
    def test_overfit_single_pair_greedy_reproduction(self):
        """One pretraining pair, trained to memorization: greedy decoding
        from the caption reproduces the audio continuation exactly."""
        model, vocab = extended_model(n_audio=8, seed=9)
        caption = "A drum"
        codes = [2, 5, 1]
        example = build_pretrain_example(caption, codes, vocab, _FixedRandom(0.0))
        report = train_lm([example], model,
                          LmTrainConfig(epochs=250, batch_size=1, lr=3e-3, seed=9))
        assert report.step_losses[-1] < 0.5
        prompt = vocab.encode_text(caption)
        continuation = example.ids[prompt.size:]
        result = generate(model, prompt, max_new_tokens=continuation.size,
                          temperature=0.0)
        np.testing.assert_array_equal(result.generated, continuation)
        assert not result.unclosed_audio

    def test_accuracy_metric_reaches_one(self):
        model, vocab = extended_model(n_audio=8, seed=9)
        example = build_pretrain_example("A drum", [2, 5, 1], vocab, _FixedRandom(0.0))
        train_lm([example], model, LmTrainConfig(epochs=250, batch_size=1, lr=3e-3, seed=9))
        assert next_token_accuracy(model, [example]) == 1.0

    def test_accuracy_requires_weighted_positions(self):
        model, vocab = extended_model()
        seq = FusionSequence(ids=np.array([1, 2, 3]), weights=np.zeros(3))
        with pytest.raises(ValueError, match="no weighted"):
            next_token_accuracy(model, [seq])
