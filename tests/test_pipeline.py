"""Tokenizer pipeline: encode/decode contracts, training, bitrate."""

import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from flowtok.data import (
    MetricsLog,
    SyntheticLatentSpec,
    gen_latent_dataset,
    LatentDataset,
    read_checkpoint,
)
from flowtok import pipeline
from flowtok.flow import N_SAMPLE_STEPS, DitDecoder, euler_sample, mse_reconstruct
from flowtok.nn import DivergenceError, TransformerConfig
from flowtok.pipeline import (
    CausalEncoder,
    TokenizerConfig,
    TokenizerModel,
    bitrate,
    decode_tokens,
    encode_to_tokens,
    train_tokenizer,
)
from flowtok.tensor import ShapeError, Tensor, no_grad, scale, square
from flowtok.vq import codebook_maintenance, quantize, straight_through


def tiny_config(objective="fm", **overrides):
    """T=16, D=8, K=32 single-block model, cheap enough for training tests."""
    base = dict(
        frames=16,
        data_dim=8,
        code_dim=8,
        codebook_size=32,
        objective=objective,
        encoder=TransformerConfig(n_blocks=1, hidden_dim=32, head_dim=16,
                                  causal=True, max_len=16),
        decoder=TransformerConfig(n_blocks=1, hidden_dim=32, head_dim=16,
                                  causal=False, max_len=16),
        timestep_dim=16,
    )
    base.update(overrides)
    return TokenizerConfig(**base)


def tiny_dataset(cfg, n_per_class=4, seed=0, noise_std=0.05):
    spec = SyntheticLatentSpec.create(n_classes=2, frames=cfg.frames, dim=cfg.data_dim,
                                      noise_std=noise_std, seed=seed, bimodal_class=None)
    return gen_latent_dataset(spec, n_per_class=n_per_class)


class TestConfig:
    def test_rejects_non_causal_encoder(self):
        with pytest.raises(ValueError, match="causal"):
            tiny_config(encoder=TransformerConfig(n_blocks=1, hidden_dim=32, head_dim=16,
                                                  causal=False, max_len=16))

    def test_rejects_causal_decoder(self):
        with pytest.raises(ValueError, match="causal"):
            tiny_config(decoder=TransformerConfig(n_blocks=1, hidden_dim=32, head_dim=16,
                                                  causal=True, max_len=16))

    def test_rejects_short_max_len(self):
        with pytest.raises(ValueError, match="max_len"):
            tiny_config(frames=64)

    def test_rejects_unknown_objective(self):
        with pytest.raises(ValueError, match="objective"):
            tiny_config(objective="diffusion")


class TestEncode:
    def test_same_input_same_tokens(self):
        cfg = tiny_config()
        model = TokenizerModel(cfg)
        ds = tiny_dataset(cfg)
        a = encode_to_tokens(ds.values[0], model)
        b = encode_to_tokens(ds.values[0], model)
        np.testing.assert_array_equal(a, b)

    def test_token_length_matches_frames(self):
        cfg = tiny_config()
        model = TokenizerModel(cfg)
        ds = tiny_dataset(cfg)
        assert encode_to_tokens(ds.values[0], model).shape == (cfg.frames,)

    def test_batched_encode(self):
        cfg = tiny_config()
        model = TokenizerModel(cfg)
        ds = tiny_dataset(cfg)
        tokens = encode_to_tokens(ds.values[:3], model)
        assert tokens.shape == (3, cfg.frames)
        np.testing.assert_array_equal(tokens[1], encode_to_tokens(ds.values[1], model))

    def test_truncation_consistency(self):
        """Causal mask: the tokens for a prefix do not change when later
        frames are appended."""
        cfg = tiny_config()
        model = TokenizerModel(cfg)
        ds = tiny_dataset(cfg)
        clip = ds.values[0]
        full = encode_to_tokens(clip, model)
        for cut in (1, 7, 12):
            np.testing.assert_array_equal(encode_to_tokens(clip[:cut], model), full[:cut])

    def test_dim_mismatch_rejected(self):
        cfg = tiny_config()
        model = TokenizerModel(cfg)
        with pytest.raises(ShapeError, match="data dim"):
            encode_to_tokens(np.zeros((16, 5), dtype=np.float32), model)

    def test_unbatched_clip_equals_batch_of_one(self):
        cfg = tiny_config()
        model = TokenizerModel(cfg)
        clip = tiny_dataset(cfg).values[0]
        with no_grad():
            single = model.encoder(Tensor(clip)).data
            batch = model.encoder(Tensor(clip[None])).data
        assert single.shape == (cfg.frames, cfg.code_dim)
        assert single.tobytes() == batch[0].tobytes()

    def test_clip_longer_than_max_len_rejected(self):
        cfg = tiny_config()
        model = TokenizerModel(cfg)
        with pytest.raises(ShapeError, match="max_len 16"):
            encode_to_tokens(np.zeros((17, cfg.data_dim), dtype=np.float32), model)

    def test_encoder_requires_causal_config(self):
        with pytest.raises(ShapeError, match="causal"):
            CausalEncoder(8, 8, TransformerConfig(n_blocks=1, hidden_dim=32, head_dim=16,
                                                  causal=False, max_len=16),
                          np.random.default_rng(0))


class TestPaperScale:
    def test_full_scale_encode_and_registry(self):
        """The full-size model tokenizes a 215-frame clip into 215 ids, and
        its tensor registry spans encoder, codebook, and decoder."""
        tower = dict(n_blocks=12, hidden_dim=768, head_dim=64, max_len=215)
        cfg = TokenizerConfig(frames=215, data_dim=64, code_dim=64, codebook_size=8196,
                              encoder=TransformerConfig(causal=True, **tower),
                              decoder=TransformerConfig(causal=False, **tower))
        model = TokenizerModel(cfg)
        clip = np.random.default_rng(0).standard_normal((215, 64)).astype(np.float32)
        tokens = encode_to_tokens(clip, model)
        assert tokens.shape == (215,)
        assert tokens.min() >= 0 and tokens.max() < 8196
        names = [name for name, _ in model.named_tensors()]
        assert any(n.startswith("encoder.") for n in names)
        assert any(n.startswith("codebook.") for n in names)
        assert any(n.startswith("decoder.") for n in names)


class TestDecode:
    def test_mse_mode_bitwise_deterministic(self):
        cfg = tiny_config("mse")
        model = TokenizerModel(cfg)
        tokens = np.arange(16) % 32
        a = decode_tokens(tokens, model)
        b = decode_tokens(tokens, model)
        np.testing.assert_array_equal(a, b)

    def test_flow_mode_seeded_reproducible(self):
        cfg = tiny_config("fm")
        model = TokenizerModel(cfg)
        tokens = np.arange(16) % 32
        a = decode_tokens(tokens, model, rng=np.random.default_rng(9))
        b = decode_tokens(tokens, model, rng=np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_flow_mode_noise_dependent(self):
        cfg = tiny_config("fm")
        model = TokenizerModel(cfg)
        tokens = np.arange(16) % 32
        a = decode_tokens(tokens, model, rng=np.random.default_rng(1))
        b = decode_tokens(tokens, model, rng=np.random.default_rng(2))
        assert not np.array_equal(a, b)

    def test_out_of_range_token_rejected(self):
        cfg = tiny_config()
        model = TokenizerModel(cfg)
        bad = np.array([0, 1, 99])
        with pytest.raises(IndexError, match="99"):
            decode_tokens(bad, model)

    def test_negative_token_rejected(self):
        cfg = tiny_config()
        model = TokenizerModel(cfg)
        with pytest.raises(IndexError, match="-1"):
            decode_tokens(np.array([-1, 0]), model)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, bool])
    def test_non_integer_tokens_rejected(self, dtype):
        """A float array cannot index and a bool one would index as a mask;
        both are refused with the dtype named."""
        model = TokenizerModel(tiny_config())
        with pytest.raises(ValueError, match=np.dtype(dtype).name):
            decode_tokens(np.zeros(16, dtype=dtype), model)

    @pytest.mark.parametrize("shape", [(0,), (2, 0), (2, 17), (2, 2, 16)])
    def test_token_shape_outside_decoder_range_rejected(self, shape):
        model = TokenizerModel(tiny_config())
        with pytest.raises(ShapeError, match="token ids"):
            decode_tokens(np.zeros(shape, dtype=int), model)

    def test_zero_frames_rejected_by_encoder_and_decoder(self):
        """No positions is a shape error from the stack, in both towers."""
        cfg = tiny_config("mse")
        model = TokenizerModel(cfg)
        with pytest.raises(ShapeError, match="at least one position"):
            encode_to_tokens(np.zeros((2, 0, cfg.data_dim)), model)
        with pytest.raises(ShapeError, match="at least one position"):
            mse_reconstruct(Tensor(np.zeros((2, 0, cfg.code_dim))), model.decoder)

    def test_round_trip_shape(self):
        for objective in ("fm", "mse"):
            cfg = tiny_config(objective)
            model = TokenizerModel(cfg)
            ds = tiny_dataset(cfg)
            z = ds.values[0]
            out = decode_tokens(encode_to_tokens(z, model), model,
                                rng=np.random.default_rng(0))
            assert out.shape == z.shape

    def test_default_calls_the_decoder_once_per_sample_step(self, monkeypatch):
        cfg = tiny_config("fm")
        model = TokenizerModel(cfg)
        calls = []
        call = DitDecoder.__call__
        monkeypatch.setattr(DitDecoder, "__call__",
                            lambda self, *args: calls.append(args[1]) or call(self, *args))
        decode_tokens(np.arange(16) % 32, model, rng=np.random.default_rng(0))
        assert N_SAMPLE_STEPS == 16
        assert calls == [i / 16 for i in range(16)]

    def test_flow_decode_is_euler_from_its_own_seeded_draw(self):
        """An fm decode is euler_sample over the looked-up codes, for the
        config's step count, from the rng's standard normal of the data
        width (not the code width) in float32, byte for byte."""
        model = TokenizerModel(tiny_config("fm", code_dim=4))
        tokens = np.arange(32).reshape(2, 16) % 32
        with no_grad():
            expected = euler_sample(
                Tensor(model.codebook.entries.data[tokens]), model.decoder, 16,
                np.random.default_rng(5).standard_normal((2, 16, 8)).astype(np.float32))
        decoded = decode_tokens(tokens, model, rng=np.random.default_rng(5))
        assert decoded.dtype == np.float32
        assert decoded.tobytes() == expected.tobytes()

    def test_fewer_than_one_step_refused(self):
        with pytest.raises(ValueError, match="must be >= 1"):
            decode_tokens(np.arange(16) % 32, TokenizerModel(tiny_config("fm")), n_steps=0)

    def test_unnamed_step_count_is_n_sample_steps(self):
        """n_steps None decodes bit for bit as n_steps=N_SAMPLE_STEPS, for the
        same tokens and noise, and 32 steps decode otherwise; an mse model
        decodes in one pass whatever n_steps says."""
        tokens = np.arange(32).reshape(2, 16) % 32
        model = TokenizerModel(tiny_config("fm"))
        named = decode_tokens(tokens, model, rng=np.random.default_rng(4), n_steps=N_SAMPLE_STEPS)
        default = decode_tokens(tokens, model, rng=np.random.default_rng(4))
        assert default.tobytes() == named.tobytes()
        asked = decode_tokens(tokens, model, rng=np.random.default_rng(4), n_steps=32)
        assert default.tobytes() != asked.tobytes()
        mse = TokenizerModel(tiny_config("mse"))
        assert (decode_tokens(tokens, mse, n_steps=1).tobytes()
                == decode_tokens(tokens, mse, n_steps=32).tobytes())


# Decodes a desk-size batch (64 clips of 32 frames, the default model) in
# a fresh process, whose heap no fit has shaped, and prints the minor page
# faults over two decodes after a warm-up decode.
_DECODE_FAULT_PROBE = textwrap.dedent("""
    import resource
    import numpy as np
    from flowtok.pipeline import TokenizerConfig, TokenizerModel, decode_tokens

    model = TokenizerModel(TokenizerConfig())
    tokens = np.random.default_rng(0).integers(0, model.codebook.k, size=(64, 32))
    decode_tokens(tokens, model, n_steps=2)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(2):
        decode_tokens(tokens, model, n_steps=2)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is glibc's mallopt")
def test_decode_only_process_reuses_freed_memory():
    """Four decoder passes after a warm-up decode fault in about 16,000
    pages when glibc trims each pass's freed activations and none with
    trimming off; the bound is a tenth of the former."""
    src = str(Path(pipeline.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _DECODE_FAULT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    faults = int(proc.stdout)
    assert faults < 1600, f"{faults} minor page faults over four warm decoder passes"


# Encodes a desk-size batch (64 clips of 32 frames, the default model) in
# a fresh process that neither trains nor decodes, and prints the minor
# page faults over two encodes after a warm-up encode.
_ENCODE_FAULT_PROBE = textwrap.dedent("""
    import resource
    import numpy as np
    from flowtok.pipeline import TokenizerConfig, TokenizerModel, encode_to_tokens

    model = TokenizerModel(TokenizerConfig())
    clips = np.random.default_rng(0).standard_normal((64, 32, 16)).astype(np.float32)
    encode_to_tokens(clips, model)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(2):
        encode_to_tokens(clips, model)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is glibc's mallopt")
def test_encode_only_process_reuses_freed_memory():
    """Two encodes after a warm-up encode fault in about 8,000 pages when
    glibc trims each encode's freed activations and none once importing
    nn has set the policy; the bound is a tenth of the former."""
    src = str(Path(pipeline.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _ENCODE_FAULT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    faults = int(proc.stdout)
    assert faults < 800, f"{faults} minor page faults over two warm encodes"


class TestTraining:
    def test_loss_decreases_single_seed(self):
        """Windowed check on a 50-step overfit run: the mean of the last ten
        step losses beats the mean of the first ten."""
        cfg = tiny_config("fm", lr=1e-3, epochs=50, batch_size=8, seed=0)
        model = TokenizerModel(cfg, np.random.default_rng(0))
        ds = tiny_dataset(cfg, n_per_class=4)
        report = train_tokenizer(ds, model, cfg)
        assert len(report.step_losses) == 50
        early = float(np.mean(report.step_losses[:10]))
        late = float(np.mean(report.step_losses[-10:]))
        assert late < early, f"first ten {early:.4f}, last ten {late:.4f}"

    def test_mse_step_is_the_flow_path_pinned_at_its_start(self):
        """The regression step trains on sample_path pinned at t = 0 from a
        zero state; it matches the explicit zero-state regression byte for
        byte in the loss, in every gradient and in the tokens' gradient, and
        draws nothing from rng."""
        cfg = tiny_config("mse")
        batch = tiny_dataset(cfg).values

        def explicit(batch, model, cfg, rng):
            b, tlen, _ = batch.shape
            flat = model.encoder(Tensor(batch)).reshape(b * tlen, cfg.code_dim)
            q = quantize(flat, model.codebook)
            tokens = straight_through(flat, q.quantized).reshape(b, tlen, cfg.code_dim)
            predicted = model.decoder(np.zeros_like(batch), 0.0, tokens)
            return (square(predicted - Tensor(batch)).mean()
                    + q.codebook_loss
                    + scale(q.commitment_loss, cfg.commitment_weight))

        def step(loss_of):
            model = TokenizerModel(cfg, np.random.default_rng(0))
            decoder, leaves = model.decoder, []

            def leaf_tokens(x_t, t, cond):
                # Cut the graph at the tokens so their gradient lands on a leaf.
                leaves.append(Tensor(cond.data, requires_grad=True))
                return decoder(x_t, t, leaves[-1])

            model.decoder = leaf_tokens
            rng = np.random.default_rng(3)
            loss = loss_of(batch, model, cfg, rng)
            loss.backward()
            # Every decoder parameter has a gradient; the encoder and codebook
            # get theirs from the quantizer's terms alone, the graph being cut.
            grads = ([p.grad.tobytes() for _, p in decoder.named_parameters()]
                     + [None if p.grad is None else p.grad.tobytes()
                        for _, p in model.named_parameters()])
            return loss.data.tobytes(), grads, leaves[0].grad.tobytes(), rng.bit_generator.state

        pinned = step(lambda *args: pipeline._loss_terms(*args)[0])
        assert pinned == step(explicit)
        assert pinned[3] == np.random.default_rng(3).bit_generator.state

    def test_mse_constant_latent_converges(self):
        """One constant clip, regression objective: training drives the
        total loss under 1e-3 inside 500 steps."""
        cfg = tiny_config("mse", lr=3e-3, epochs=500, batch_size=1, seed=1)
        model = TokenizerModel(cfg, np.random.default_rng(1))
        constant = np.full((1, cfg.frames, cfg.data_dim), 0.5, dtype=np.float32)
        ds = LatentDataset(constant, np.zeros(1, dtype=np.uint16))
        report = train_tokenizer(ds, model, cfg)
        assert min(report.step_losses) < 1e-3, f"best {min(report.step_losses):.2e}"

    def test_metrics_one_row_per_epoch_per_metric(self):
        cfg = tiny_config("fm", epochs=3, batch_size=8)
        model = TokenizerModel(cfg)
        ds = tiny_dataset(cfg)
        log = MetricsLog()
        train_tokenizer(ds, model, cfg, metrics=log)
        per_metric = {}
        for step, split, metric, value in log.rows:
            per_metric[metric] = per_metric.get(metric, 0) + 1
        assert set(per_metric) == {"loss", "decoder_loss", "codebook_loss",
                                   "commitment_loss", "perplexity", "restarts"}
        assert all(count == 3 for count in per_metric.values())

    def test_restarts_counted_per_epoch(self, monkeypatch):
        """A codebook far larger than a batch's assignments restarts entries
        (fresh entries start with zero usage), and the per-epoch counts add
        up to the ids codebook_maintenance returned."""
        returned = []

        def recording(*args, **kwargs):
            dead = codebook_maintenance(*args, **kwargs)
            returned.append(dead.size)
            return dead

        monkeypatch.setattr(pipeline, "codebook_maintenance", recording)
        cfg = tiny_config("mse", codebook_size=256, epochs=2, batch_size=4)
        model = TokenizerModel(cfg)
        log = MetricsLog()
        report = train_tokenizer(tiny_dataset(cfg), model, cfg, metrics=log)
        per_epoch = [value for _, _, metric, value in log.rows if metric == "restarts"]
        assert len(per_epoch) == 2 and report.final["restarts"] == per_epoch[-1]
        assert sum(per_epoch) > 0
        assert sum(per_epoch) == sum(returned)

    def test_divergence_aborts_and_rolls_back(self, tmp_path):
        """lr large enough that the first update overflows float32 on the
        next forward pass, so the only loss ever certified finite is the
        one at initialization."""
        cfg = tiny_config("mse", lr=1e38, epochs=5, batch_size=8)
        model = TokenizerModel(cfg)
        before = {name: t.data.copy() for name, t in model.named_tensors()}
        ds = tiny_dataset(cfg)
        ckpt = tmp_path / "last_good.msnc"
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="non-finite"):
                train_tokenizer(ds, model, cfg, checkpoint_path=ckpt)
        for name, t in model.named_tensors():
            assert np.all(np.isfinite(t.data)), name
        _, saved = read_checkpoint(ckpt)
        np.testing.assert_array_equal(saved["encoder.in_proj.weight"],
                                      before["encoder.in_proj.weight"])

    def test_empty_dataset_rejected(self):
        cfg = tiny_config()
        model = TokenizerModel(cfg)
        empty = LatentDataset(np.zeros((0, 16, 8), dtype=np.float32),
                              np.zeros(0, dtype=np.uint16))
        with pytest.raises(ValueError, match="empty"):
            train_tokenizer(empty, model, cfg)

    def test_checkpoint_written_per_epoch(self, tmp_path):
        cfg = tiny_config("mse", epochs=2, batch_size=8)
        model = TokenizerModel(cfg)
        ds = tiny_dataset(cfg)
        ckpt = tmp_path / "model.msnc"
        train_tokenizer(ds, model, cfg, checkpoint_path=ckpt)
        _, saved = read_checkpoint(ckpt)
        np.testing.assert_array_equal(saved["codebook.entries"], model.codebook.entries.data)

    def test_same_config_reproducible(self):
        cfg = tiny_config("fm", epochs=5, batch_size=8, seed=5)
        runs = []
        for _ in range(2):
            model = TokenizerModel(cfg, np.random.default_rng(5))
            ds = tiny_dataset(cfg)
            report = train_tokenizer(ds, model, cfg)
            runs.append(report.step_losses)
        assert runs[0] == runs[1]


class TestStructuralInvariants:
    def test_parameter_count_identical_across_objectives(self):
        flow_model = TokenizerModel(tiny_config("fm"), np.random.default_rng(0))
        mse_model = TokenizerModel(tiny_config("mse"), np.random.default_rng(0))
        assert ([(name, p.shape) for name, p in flow_model.named_parameters()]
                == [(name, p.shape) for name, p in mse_model.named_parameters()])

    def test_causality_survives_training(self):
        cfg = tiny_config("fm", lr=1e-3, epochs=2, batch_size=8)
        model = TokenizerModel(cfg)
        ds = tiny_dataset(cfg)
        train_tokenizer(ds, model, cfg)
        clip = ds.values[0]
        full = encode_to_tokens(clip, model)
        np.testing.assert_array_equal(encode_to_tokens(clip[:9], model), full[:9])


class TestOverfitRoundTrip:
    def test_overfit_reconstruction_beats_variance_floor(self):
        """Eight clips memorized by the small regression tokenizer: the mean
        round-trip error lands well under a tenth of the data variance."""
        cfg = tiny_config("mse", lr=3e-3, epochs=400, batch_size=8, seed=2)
        model = TokenizerModel(cfg, np.random.default_rng(2))
        ds = tiny_dataset(cfg, n_per_class=4, seed=2, noise_std=0.02)
        train_tokenizer(ds, model, cfg)
        errors = []
        for i in range(len(ds)):
            z = ds.values[i]
            z_hat = decode_tokens(encode_to_tokens(z, model), model)
            errors.append(float(np.mean((z - z_hat) ** 2)))
        mse = float(np.mean(errors))
        floor = 0.1 * ds.values.astype(np.float64).var()
        assert mse < floor, f"mse {mse:.4f} vs floor {floor:.4f}"


class TestBitrate:
    def test_paper_scale_rate(self):
        rate = bitrate(215, 10.0, 8196)
        assert abs(rate - 279.5) < 0.1
        assert abs(rate - 215 * np.log2(8196) / 10.0) < 1e-9

    def test_one_bit_per_second(self):
        assert bitrate(1, 1.0, 2) == 1.0

    def test_single_code_zero_rate(self):
        assert bitrate(10, 1.0, 1) == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bitrate(0, 1.0, 2)
        with pytest.raises(ValueError):
            bitrate(1, 0.0, 2)
        with pytest.raises(ValueError):
            bitrate(1, 1.0, 0)
