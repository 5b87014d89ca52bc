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
    audio_segments,
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
from flowtok import tensor
from flowtok.data import load_checkpoint, read_checkpoint, save_checkpoint
from flowtok.nn import DivergenceError, Module
from flowtok.tensor import NumericFault, ShapeError, Tensor, no_grad


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


def modules(module):
    """module, then every module in its attributes and their lists, depth first."""
    yield module
    for value in vars(module).values():
        for item in value if isinstance(value, (list, tuple)) else [value]:
            if isinstance(item, Module):
                yield from modules(item)


def lora_layers(model):
    return [m for m in modules(model) if isinstance(m, LoraLinear)]


def module_attributes(model):
    """Each module with a copy of its attribute dict."""
    return [(m, dict(vars(m))) for m in modules(model)]


def attributes_unchanged(model, before):
    """Whether model has the modules of before, each holding the same
    objects under the same names."""
    return [m for m, _ in before] == list(modules(model)) and all(
        vars(m).keys() == saved.keys() and all(vars(m)[k] is v for k, v in saved.items())
        for m, saved in before)


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
        ids = v.audio_ids(codes)
        assert v.is_audio(ids).all()
        np.testing.assert_array_equal(ids - v.v_text, codes)

    def test_audio_code_out_of_range(self):
        v = Vocab(v_text=256, n_audio=8)
        with pytest.raises(ValueError, match="audio code"):
            v.audio_ids([8])

    def test_text_round_trip(self):
        v = Vocab(v_text=256, n_audio=4)
        assert v.decode_text(v.encode_text("A loud drum")) == "A loud drum"

    def test_decode_text_refuses_float_ids(self):
        v = Vocab(v_text=256, n_audio=4)
        with pytest.raises(ValueError, match="dtype float64"):
            v.decode_text(np.array([65.7, 66.2]))
        assert v.decode_text([]) == ""

    def test_audio_ids_refuses_float_codes(self):
        v = Vocab(v_text=256, n_audio=4)
        with pytest.raises(ValueError, match="dtype float64"):
            v.audio_ids(np.array([1.8]))
        assert v.audio_ids([]).size == 0

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
        _, vocab = extended_model(n_audio=12)
        assert vocab.size == 256 + 12 + 2

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

    def test_unbatched_ids_equal_batch_of_one(self):
        model, vocab = extended_model()
        ids = np.array([65, vocab.soa, vocab.audio_ids([2])[0], vocab.eoa, 66])
        with no_grad():
            single = model(ids).data
            batch = model(ids[None]).data
        assert single.shape == (5, vocab.size)
        assert single.tobytes() == batch[0].tobytes()

    @pytest.mark.parametrize("ids", [np.array([1.5, 2.0]), np.array([True, False])],
                             ids=["float", "bool"])
    def test_non_integer_ids_rejected(self, ids):
        """A float id would truncate and a bool index as 0/1 without a word."""
        model, _ = extended_model()
        with pytest.raises(ValueError, match=f"dtype {ids.dtype}"):
            model(ids)

    def test_sequence_longer_than_max_len_rejected(self):
        model, _ = extended_model()
        with pytest.raises(ShapeError, match="max_len 96"):
            model(np.zeros(97, dtype=np.int64))

    def test_new_rows_trainable_text_rows_frozen(self):
        model, _ = extended_model()
        trainable = {name for name, _ in model.named_parameters()}
        assert "audio_embed" in trainable and "out_ext" in trainable
        assert "text_embed" not in trainable and "out_base" not in trainable
        assert "stack.pos" not in trainable

    def test_new_row_gradients_nonzero_with_audio(self):
        model, vocab = extended_model()
        ids = np.array([65, vocab.soa, vocab.audio_ids([2])[0], vocab.eoa, 66])
        logits = model(ids[:-1])
        loss, _, total = weighted_ce_zloss(logits, ids[1:], np.ones(4),
                                           valid_mask=np.ones(4, bool))
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

    @pytest.mark.parametrize("codes", [np.array([1.7, 2.9]), np.array([True, False])],
                             ids=["float", "bool"])
    def test_builders_refuse_non_integer_codes(self, codes):
        """Float codes would truncate and bool codes read as 0/1 without a
        word; the tests above build from lists of ints."""
        vocab = Vocab(v_text=256, n_audio=4)
        with pytest.raises(ValueError, match=f"dtype {codes.dtype}"):
            build_pretrain_example("ab", codes, vocab, _FixedRandom(0.0))
        with pytest.raises(ValueError, match=f"dtype {codes.dtype}"):
            build_finetune_example("Q", codes, "A", vocab)

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

    def test_only_audio_ids_and_eoa_inside_a_span(self):
        """Inside a span a text byte or a nested soa is a marker, not an
        audio code; the span keeps its place in the stream order."""
        v = Vocab(v_text=256, n_audio=4)
        ids = [65, v.soa, 257, 66, v.soa, v.eoa, 67]
        assert audio_segments(ids, v) == [
            {"type": "text", "text": "A"}, {"type": "audio", "codes": [1]},
            {"type": "marker", "id": 66}, {"type": "marker", "id": v.soa},
            {"type": "text", "text": "C"}]
        assert audio_spans_valid([65, v.soa, 257, 66, v.eoa], v)[0] is False

    def test_segments_refuse_non_integer_ids(self):
        """A float token would truncate and a bool read as 0/1 (here the
        array is float, so True is 1.0); both are refused."""
        v = Vocab(v_text=256, n_audio=4)
        with pytest.raises(ValueError, match="dtype float64"):
            audio_segments(np.array([65.9, True]), v)
        with pytest.raises(ValueError, match="dtype bool"):
            audio_segments(np.array([True, False]), v)
        assert audio_segments([], v) == []

    def test_segments_of_a_well_formed_stream(self):
        v = Vocab(v_text=256, n_audio=4)
        ids = [104, 105, v.soa, 256, 259, v.eoa, 33, v.eoa, v.soa, 258]
        assert audio_segments(ids, v) == [
            {"type": "text", "text": "hi"}, {"type": "audio", "codes": [0, 3]},
            {"type": "text", "text": "!"}, {"type": "marker", "id": v.eoa},
            {"type": "audio", "codes": [2], "unclosed": True}]
        assert audio_spans_valid(ids, v) == (False, True)
        assert audio_spans_valid(ids[:7] + ids[8:], v) == (True, True)


class TestWeightedLoss:
    def test_uniform_logits_log_vocab(self):
        logits = Tensor(np.zeros((3, 4)))
        loss, _, _ = weighted_ce_zloss(logits, [0, 1, 2], [1.0, 5.0, 2.0],
                                     valid_mask=np.ones(3, bool))
        assert float(loss.data) == pytest.approx(np.log(4.0), rel=1e-6)

    def test_weighted_mean_formula(self):
        """Per-token losses 1.0 and 2.0 with weights 1 and 10 combine to
        21/11."""
        c1 = np.log(np.e - 1.0)
        c2 = np.log(np.e ** 2 - 1.0)
        logits = Tensor(np.array([[0.0, c1], [0.0, c2]], dtype=np.float64))
        loss, _, _ = weighted_ce_zloss(logits, [0, 0], [1.0, 10.0], valid_mask=np.ones(2, bool))
        assert float(loss.data) == pytest.approx(21.0 / 11.0, rel=1e-9)

    def test_zloss_single_position(self):
        logits = Tensor(np.array([[0.0, 0.0]], dtype=np.float64))
        _, zloss, _ = weighted_ce_zloss(logits, [0], [1.0], z_coeff=1e-4,
                                     valid_mask=np.ones(1, bool))
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
        loss, zloss, total = weighted_ce_zloss(Tensor(logits), targets, weights,
                                              valid_mask=np.ones(targets.shape, bool))
        assert abs(float(loss.data) - float(want_loss)) / float(want_loss) < 1e-6
        assert abs(float(zloss.data) - float(want_z)) / float(want_z) < 1e-6
        assert float(total.data) == pytest.approx(float(loss.data) + float(zloss.data))

    def test_audio_gradient_ten_times_text(self):
        """Identical logit rows and targets of equal logit value: the only
        difference between the two positions is the 10x weight, so their
        logit-gradient norms differ by exactly that factor."""
        logits = Tensor(np.zeros((2, 5)), requires_grad=True)
        loss, _, _ = weighted_ce_zloss(logits, [0, 1], [10.0, 1.0], z_coeff=0.0,
                                     valid_mask=np.ones(2, bool))
        loss.backward()
        g = logits.grad
        ratio = np.linalg.norm(g[0]) / np.linalg.norm(g[1])
        assert abs(ratio - 10.0) < 1e-5

    def test_padding_excluded_from_zloss(self):
        logits = Tensor(np.array([[[0.0, 0.0], [5.0, 5.0]]]))
        valid = np.array([[True, False]])
        _, z_masked, _ = weighted_ce_zloss(logits, [[0, 0]], [[1.0, 0.0]],
                                           valid_mask=valid)
        _, z_all, _ = weighted_ce_zloss(logits, [[0, 0]], [[1.0, 1.0]],
                                        valid_mask=np.ones((1, 2), bool))
        assert float(z_masked.data) == pytest.approx(1e-4 * np.log(2.0) ** 2, rel=1e-5)
        assert float(z_all.data) > float(z_masked.data)

    def test_shape_errors(self):
        logits = Tensor(np.zeros((3, 4)))
        with pytest.raises(ShapeError, match="weights"):
            weighted_ce_zloss(logits, [0, 1, 2], [1.0, 1.0], valid_mask=np.ones(3, bool))
        with pytest.raises(ShapeError, match="targets"):
            weighted_ce_zloss(logits, [0, 1], [1.0, 1.0], valid_mask=np.ones(2, bool))

    def test_valid_mask_is_required(self):
        with pytest.raises(TypeError, match="valid_mask"):
            weighted_ce_zloss(Tensor(np.zeros((2, 3))), [0, 1], [1.0, 1.0])

    def test_zero_weight_sum_rejected(self):
        logits = Tensor(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="zero"):
            weighted_ce_zloss(logits, [0, 1], [0.0, 0.0], valid_mask=np.ones(2, bool))


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

    def test_divergence_writes_rolled_back_state_to_checkpoint_path(self, tmp_path):
        model, vocab = extended_model()
        before = {name: t.data.copy() for name, t in model.named_tensors()}
        path = tmp_path / "lm.msnc"
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError):
                train_lm(self.make_examples(vocab), model, LmTrainConfig(lr=1e38),
                         checkpoint_path=path)
        _, tensors = read_checkpoint(path)
        assert tensors.keys() == before.keys()
        for name, value in tensors.items():
            np.testing.assert_array_equal(value, before[name], err_msg=name)

    def test_checkpoint_path_holds_the_trained_model(self, tmp_path):
        model, vocab = extended_model()
        path = tmp_path / "lm.msnc"
        train_lm(self.make_examples(vocab), model, LmTrainConfig(epochs=2, batch_size=3),
                 checkpoint_path=path)
        _, tensors = read_checkpoint(path)
        for name, t in model.named_tensors():
            np.testing.assert_array_equal(tensors[name], t.data, err_msg=name)

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

    @pytest.mark.parametrize("shape", [(0,), (2, 0)])
    def test_zero_positions_rejected(self, shape):
        model, _ = extended_model()
        with pytest.raises(ShapeError, match="at least one position"):
            model(np.zeros(shape, dtype=np.int64))

    def test_empty_list_reaches_the_position_checks(self):
        model, _ = extended_model()
        with pytest.raises(ShapeError, match="at least one position"):
            model([])
        with pytest.raises(ShapeError, match="nonempty"):
            generate(model, [], 4)

    def test_non_integer_prompt_rejected(self):
        model, vocab = extended_model()
        with pytest.raises(ValueError, match="dtype float64"):
            generate(model, vocab.encode_text("abc").astype(np.float64), 4)

    def test_temperature_zero_is_greedy(self):
        model, vocab = extended_model(seed=6)
        prompt = vocab.encode_text("abc")
        a = generate(model, prompt, 8, temperature=0.0)
        b = generate(model, prompt, 8, temperature=1e-9,
                     rng=np.random.default_rng(0))
        # At vanishing temperature one token dominates the softmax, so
        # sampling agrees with argmax.
        np.testing.assert_array_equal(a.tokens, b.tokens)

    @pytest.mark.parametrize("setting, problem", [
        ({"top_k": 0}, "top_k"), ({"top_k": -3}, "top_k"),
        ({"temperature": -2.0}, "temperature"), ({"temperature": float("nan")}, "temperature"),
        ({"temperature": float("inf")}, "temperature"),
    ])
    def test_bad_sampling_settings_rejected(self, setting, problem):
        model, vocab = extended_model()
        with pytest.raises(ValueError, match=problem):
            generate(model, vocab.encode_text("abc"), 4, **setting)

    def test_top_k_one_samples_the_greedy_tokens(self):
        model, vocab = extended_model(seed=6)
        prompt = vocab.encode_text("abc")
        greedy = generate(model, prompt, 8, temperature=0.0)
        top_one = generate(model, prompt, 8, temperature=1.0, top_k=1,
                           rng=np.random.default_rng(0))
        np.testing.assert_array_equal(top_one.tokens, greedy.tokens)

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

    def test_full_prompt_rejected(self):
        """A prompt that already fills max_len leaves nothing to generate."""
        model, vocab = extended_model()
        prompt = vocab.encode_text("a" * model.cfg.max_len)
        with pytest.raises(ShapeError, match="max_len 96"):
            generate(model, prompt, max_new_tokens=4)

    def test_respects_max_len(self):
        model, vocab = extended_model()
        prompt = vocab.encode_text("a" * 90)
        result = generate(model, prompt, max_new_tokens=50, temperature=0.0)
        assert result.tokens.size <= model.cfg.max_len

    @pytest.mark.parametrize("sampling", [{"temperature": 0.0}, {"temperature": 1.0}],
                             ids=["greedy", "sampled"])
    def test_non_finite_logit_raises(self, sampling):
        """A NaN logit, here one of an audio id the constraint masks off
        outside a span, stops generation with the new token's index named
        instead of decoding past it."""
        model, vocab = extended_model(seed=6)
        model.out_ext.data[:, 1] = np.nan
        with pytest.raises(NumericFault, match="non-finite logit for new token 0"):
            generate(model, vocab.encode_text("abc"), 6, rng=np.random.default_rng(0),
                     **sampling)

    def test_non_finite_adapter_raises(self):
        """The cache steps on plain arrays, out of set_nan_checks' reach; a
        NaN in a folded adapter still stops generate at its first logits."""
        model, vocab = extended_model(seed=6)
        model.stack.blocks[0].mlp.fc2.lora_b.data[0, 0] = np.nan
        with pytest.raises(NumericFault, match="non-finite logit for new token 0"):
            generate(model, vocab.encode_text("abc"), 6, temperature=0.0)


class _FullRecompute:
    """The oracle for generate's cache: stands in for the model, whose
    attributes it shares, and answers each call by running every position
    seen so far through the model again, with no cache and the adapters
    factored."""

    def __init__(self, model):
        self.model = model
        self.seen = np.zeros(0, dtype=np.int64)
        self.last_rows = []

    def __getattr__(self, name):
        return getattr(self.model, name)

    def __call__(self, ids, cache=None):
        self.seen = np.concatenate([self.seen, ids])
        logits = self.model(self.seen).data[-len(ids):]
        self.last_rows.append(logits[-1])
        return Tensor(logits)


class _Spy:
    """Records the ids of every FusionLM call, each call's last logits row
    and the model's tensor names."""

    def __init__(self, monkeypatch):
        self.fed = []
        self.last_rows = []
        self.names = []
        original = FusionLM.__call__

        def spy(model, ids, cache=None):
            self.fed.append(np.asarray(ids))
            self.names.append([name for name, _ in model.named_tensors()])
            logits = original(model, ids, cache)
            self.last_rows.append(logits.data[-1])
            return logits

        monkeypatch.setattr(FusionLM, "__call__", spy)


@pytest.fixture(scope="module")
def drum_model():
    """A model trained until greedy decoding of "A drum" opens, fills and
    closes an audio span, then goes on in text."""
    model, vocab = extended_model(n_audio=8, seed=9)
    example = build_pretrain_example("A drum", [2, 5, 1], vocab, _FixedRandom(0.0))
    train_lm([example], model, LmTrainConfig(epochs=250, batch_size=1, lr=3e-3, seed=9))
    return model, vocab


class TestCachedGeneration:
    def test_logits_and_greedy_tokens_match_full_recompute(self, drum_model, monkeypatch):
        model, vocab = drum_model
        prompt = vocab.encode_text("A drum")
        oracle = _FullRecompute(model)
        expected = generate(oracle, prompt, 12, temperature=0.0)
        spy = _Spy(monkeypatch)
        result = generate(model, prompt, 12, temperature=0.0)
        np.testing.assert_array_equal(result.tokens, expected.tokens)
        # The constraint switched both ways: the span opened and closed.
        segments = audio_segments(result.generated, vocab)
        assert [s["type"] for s in segments[:2]] == ["audio", "text"]
        assert segments[0]["codes"] == [2, 5, 1] and "unclosed" not in segments[0]
        assert len(spy.last_rows) == len(oracle.last_rows) == 12
        # Folded and cached against factored and recomputed.
        for cached, full in zip(spy.last_rows, oracle.last_rows):
            assert np.max(np.abs(cached - full)) <= 1e-6 * np.max(np.abs(full))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sampled_tokens_match_full_recompute(self, drum_model, seed):
        model, vocab = drum_model
        prompt = vocab.encode_text("A ")
        result = generate(model, prompt, 16, rng=np.random.default_rng(seed), temperature=1.0)
        expected = generate(_FullRecompute(model), prompt, 16,
                            rng=np.random.default_rng(seed), temperature=1.0)
        np.testing.assert_array_equal(result.tokens, expected.tokens)

    def test_one_call_and_one_position_per_new_token(self, monkeypatch):
        model, vocab = extended_model(seed=4)
        prompt = vocab.encode_text("twelve bytes")
        spy = _Spy(monkeypatch)
        result = generate(model, prompt, 10, temperature=0.0)
        assert result.generated.size == 10
        assert len(spy.fed) == 10
        assert sum(ids.size for ids in spy.fed) == prompt.size + 10 - 1
        np.testing.assert_array_equal(spy.fed[0], prompt)

    def test_prompt_one_short_of_max_len_stops_cleanly(self):
        model, vocab = extended_model(seed=3)
        prompt = vocab.encode_text("a" * (model.cfg.max_len - 1))
        result = generate(model, prompt, 5, temperature=0.0)
        expected = generate(_FullRecompute(model), prompt, 5, temperature=0.0)
        assert result.tokens.size == model.cfg.max_len
        np.testing.assert_array_equal(result.tokens, expected.tokens)

    def test_tiny_temperature_samples_the_greedy_ids(self):
        """logits / 1e-310 overflows to +-inf; the max shift comes before the
        division, so every score but the top one goes to -inf and sampling
        picks the greedy id instead of failing on NaN probabilities."""
        model, vocab = extended_model(seed=5)
        prompt = vocab.encode_text("ab")
        greedy = generate(model, prompt, 12, temperature=0.0)
        tiny = generate(model, prompt, 12, rng=np.random.default_rng(0), temperature=1e-310)
        np.testing.assert_array_equal(tiny.tokens, greedy.tokens)

    def test_negative_token_count_rejected(self):
        model, vocab = extended_model()
        with pytest.raises(ValueError, match="max_new_tokens"):
            generate(model, vocab.encode_text("a"), -1)


class TestFoldedAdapters:
    def test_state_unchanged_by_generate(self, drum_model, monkeypatch, tmp_path):
        """The fold never joins the model's state: names, checkpoint bytes
        and the frozen digest are the same before, during and after."""
        model, vocab = drum_model
        names = [name for name, _ in model.named_tensors()]
        digest = frozen_digest(model)
        save_checkpoint(tmp_path / "before.msnc", model)
        spy = _Spy(monkeypatch)
        during = tmp_path / "during.msnc"
        spied = FusionLM.__call__

        def saving(m, ids, cache=None):
            if not during.exists():
                save_checkpoint(during, m)
            return spied(m, ids, cache)

        monkeypatch.setattr(FusionLM, "__call__", saving)
        generate(model, vocab.encode_text("A drum"), 6, temperature=0.0)
        assert spy.names == [names] * 6
        assert [name for name, _ in model.named_tensors()] == names
        assert frozen_digest(model) == digest
        save_checkpoint(tmp_path / "after.msnc", model)
        before = (tmp_path / "before.msnc").read_bytes()
        assert during.read_bytes() == before
        assert (tmp_path / "after.msnc").read_bytes() == before

    @pytest.mark.parametrize("fail_at", [None, 3])
    def test_generate_mutates_no_module(self, monkeypatch, fail_at):
        """Every module holds the same attribute objects before generate,
        inside each model call it makes, and after it, also when a call
        raises partway through; the adapters still learn afterwards."""
        model, vocab = extended_model(seed=2)
        rng = np.random.default_rng(2)
        for layer in lora_layers(model):
            layer.lora_b.data[:] = rng.normal(0.0, 0.02, size=layer.lora_b.shape)
        before = module_attributes(model)
        original = FusionLM.__call__
        calls = []

        def checking(m, ids, cache=None):
            calls.append(attributes_unchanged(m, before))
            if len(calls) == fail_at:
                raise RuntimeError("call fails")
            return original(m, ids, cache)

        monkeypatch.setattr(FusionLM, "__call__", checking)
        if fail_at is None:
            generate(model, vocab.encode_text("abc"), 8, temperature=0.0)
        else:
            with pytest.raises(RuntimeError, match="call fails"):
                generate(model, vocab.encode_text("abc"), 8, temperature=0.0)
        monkeypatch.undo()
        assert calls == [True] * (fail_at or 8)
        assert attributes_unchanged(model, before)
        ids = vocab.encode_text("abcd")
        _, _, total = weighted_ce_zloss(model(ids[:-1]), ids[1:], np.ones(3),
                                        valid_mask=np.ones(3, bool))
        total.backward()
        for layer in lora_layers(model):
            assert np.linalg.norm(layer.lora_a.grad) > 0
            assert np.linalg.norm(layer.lora_b.grad) > 0

    def test_generate_after_more_training_uses_the_new_adapters(self, monkeypatch, tmp_path):
        """Train, generate, train again, generate: the second generate
        matches, bit for bit, a fresh model loaded from the retrained
        checkpoint, and differs from the first."""
        model, vocab = extended_model(seed=9)
        examples = [build_pretrain_example(f"clip {i}", [i, 2, 5], vocab, _FixedRandom(0.0))
                    for i in range(3)]
        prompt = vocab.encode_text("clip ")
        spy = _Spy(monkeypatch)  # training forwards pass through it too

        def generated_rows(m):
            start = len(spy.last_rows)
            result = generate(m, prompt, 4, temperature=0.0)
            assert len(spy.last_rows) == start + 4
            return result.tokens, spy.last_rows[start:]

        train_lm(examples, model, LmTrainConfig(epochs=3, batch_size=3, lr=3e-3))
        _, first = generated_rows(model)
        path = tmp_path / "lm.msnc"
        train_lm(examples, model, LmTrainConfig(epochs=3, batch_size=3, lr=3e-3),
                 checkpoint_path=path)
        tokens, retrained = generated_rows(model)
        fresh, _ = extended_model(seed=9)
        load_checkpoint(path, fresh)
        fresh_tokens, reloaded = generated_rows(fresh)
        np.testing.assert_array_equal(tokens, fresh_tokens)
        for a, b in zip(retrained, reloaded):
            assert a.tobytes() == b.tobytes()
        assert not np.array_equal(first[0], retrained[0])

    def test_cached_calls_record_no_tape_node(self, monkeypatch):
        """The prompt call and a one-token call on the default model (4
        blocks) run on the cache's plain arrays: neither records a tape
        node, and each gives the (1, V) logits of its last position. The
        cache holds each block's q/k/v as one (H, 3H) weight and the joined
        head as one (H, V) weight."""
        model = FusionLM(FusionConfig(), np.random.default_rng(0))
        vocab = extend_vocab(model, 8, np.random.default_rng(1))
        records, shapes, caches = [], [], []
        record, call = tensor._record, FusionLM.__call__

        def counting_record(op, out, *edges):
            records[-1] += 1
            return record(op, out, *edges)

        def counting_call(m, ids, cache=None):
            records.append(0)
            caches.append(cache)
            logits = call(m, ids, cache)
            shapes.append(logits.shape)
            return logits

        monkeypatch.setattr(tensor, "_record", counting_record)
        monkeypatch.setattr(FusionLM, "__call__", counting_call)
        generate(model, vocab.encode_text("A drum"), 2, temperature=0.0)
        assert records == [0, 0] and shapes == [(1, vocab.size)] * 2
        cache = caches[0]
        assert caches[1] is cache
        h = model.cfg.hidden_dim
        assert [entry.qkv[0].shape for entry in cache.blocks] == [(h, 3 * h)] * 4
        assert cache.head.shape == (h, vocab.size)
        with no_grad():  # the counter does see an uncached call's nodes
            model(vocab.encode_text("A drum"))
        assert records[-1] > 0

    def test_cached_call_refuses_an_id_outside_the_vocabulary(self):
        """Plain indexing would read id -1 as the last row without a word;
        the cached lookup refuses it, and the vocabulary size, before the
        cache grows."""
        model, vocab = extended_model()
        cache = model.new_cache(8)
        with no_grad():
            model(vocab.encode_text("ab"), cache)
            for bad in (-1, vocab.size):
                with pytest.raises(ShapeError, match="index out of range"):
                    model(np.array([bad]), cache)
                assert len(cache.blocks[0]) == 2


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
