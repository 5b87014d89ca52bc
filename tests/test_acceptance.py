"""Acceptance gate: twelve end-to-end checks, one printed verdict line each.

Run with plain pytest; the verdict lines bypass output capture so they are
visible either way. Every check is deterministic (fixed seeds throughout)
and sized to finish on a laptop.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from flowtok.data import (
    SyntheticLatentSpec,
    class_pattern,
    gen_caption,
    gen_latent_dataset,
)
from flowtok.evaluation import (
    ClampLog,
    GaussianStats,
    frechet_distance,
    gaussian_stats,
    matrix_sqrt_psd,
    mean_pool_embeddings,
)
from flowtok.flow import (
    DitDecoder,
    OtCfmConfig,
    cfm_loss,
    euler_sample,
    mse_reconstruct,
    sample_path,
)
from flowtok.lm import (
    FusionConfig,
    FusionLM,
    LmTrainConfig,
    audio_spans_valid,
    build_pretrain_example,
    extend_vocab,
    frozen_digest,
    generate,
    next_token_accuracy,
    train_lm,
    weighted_ce_zloss,
)
from flowtok.nn import AdamW, TransformerConfig, block_gradient_checks
from flowtok.pipeline import (
    TokenizerConfig,
    TokenizerModel,
    bitrate,
    decode_tokens,
    encode_to_tokens,
    train_tokenizer,
)
from flowtok.tensor import Tensor, no_grad, run_gradient_suite, square
from flowtok.vq import Codebook, quantize, straight_through


@pytest.fixture
def verdict(capsys):
    """One always-visible PASS/FAIL line per criterion."""

    def announce(criterion: str, ok: bool, detail: str):
        with capsys.disabled():
            print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
        assert ok, f"{criterion}: {detail}"

    return announce


class _TextFirst:
    def random(self):
        return 0.0


def test_01_gradient_suite(verdict):
    start = time.perf_counter()
    op_errors = run_gradient_suite()
    block_errors = block_gradient_checks()
    elapsed = time.perf_counter() - start
    worst_op = max(op_errors.values())
    worst_block = max(block_errors.values())
    ok = worst_op < 1e-5 and worst_block < 1e-4 and elapsed < 60.0
    verdict("01 gradient suite", ok,
            f"worst op {worst_op:.2e} < 1e-5, worst block {worst_block:.2e} "
            f"< 1e-4, {elapsed:.1f}s < 60s")


def test_02_path_closed_form(verdict):
    cfg = OtCfmConfig(sigma_min=1e-4)
    rng = np.random.default_rng(2)
    x1 = rng.normal(size=(5, 6, 4)).astype(np.float32)
    x0 = rng.normal(size=(5, 6, 4)).astype(np.float32)
    at0 = sample_path(x1, rng, cfg, t=0.0, x0=x0)
    start_exact = np.array_equal(at0.x_t, x0)
    at1 = sample_path(x1, rng, cfg, t=1.0, x0=x0)
    end_exact = np.array_equal(at1.x_t, np.float32(cfg.sigma_min) * x0 + x1)

    # With sigma_min=0 the path from a zero start is the ray t*x1, and the
    # [2,4] pair at t=0.5 lands on [1,2] with both values exact in binary.
    plain = OtCfmConfig(sigma_min=0.0)
    zeros = np.zeros_like(x1)
    errs = []
    for t in (0.1, 0.25, 0.5, 0.9):
        ray = sample_path(x1, rng, plain, t=t, x0=zeros)
        errs.append(float(np.max(np.abs(ray.x_t - np.float32(t) * x1))))
        errs.append(float(np.max(np.abs(ray.u_t - x1))))
    pair = sample_path(np.array([[2.0, 4.0]], dtype=np.float32), rng, plain,
                       t=0.5, x0=np.zeros((1, 2), dtype=np.float32))
    errs.append(float(np.max(np.abs(pair.x_t - [1.0, 2.0]))))
    errs.append(float(np.max(np.abs(pair.u_t - [2.0, 4.0]))))
    interp_err = max(errs)

    mid = sample_path(x1, rng, plain, t=0.25, x0=x0)
    target_exact = np.array_equal(mid.u_t, x1 - x0)

    loss = cfm_loss(Tensor(at1.u_t), at1.u_t)
    zero_exact = float(loss.data) == 0.0

    ok = start_exact and end_exact and interp_err < 1e-7 and target_exact and zero_exact
    verdict("02 path closed form", ok,
            f"t=0 exact {start_exact}, t=1 exact {end_exact}, sigma=0 examples "
            f"err {interp_err:.1e} < 1e-7, zero-at-target {zero_exact}")


def test_03_euler_convergence(verdict):
    # dx/dt = x has the closed solution e^t * x0; first-order Euler halves
    # its endpoint error when the step count doubles.
    rng = np.random.default_rng(3)
    x0 = rng.normal(size=(4, 5)).astype(np.float64)
    exact = np.e * x0

    def endpoint(n):
        out = euler_sample(None, lambda x, t, cond: Tensor(x), n, x0)
        return np.linalg.norm(out - exact), out

    err100, out100 = endpoint(100)
    err200, _ = endpoint(200)
    rel = err100 / np.linalg.norm(exact)
    ratio = err100 / err200
    ok = rel < 0.02 and 1.6 <= ratio <= 2.4
    verdict("03 euler convergence", ok,
            f"N=100 rel err {rel:.4f} < 0.02, halving ratio {ratio:.2f} in [1.6, 2.4]")


def test_04_vq_oracle(verdict):
    rng = np.random.default_rng(4)
    vectors = rng.normal(size=(1000, 8)).astype(np.float32)
    codebook = Codebook(64, 8, rng)
    result = quantize(Tensor(vectors), codebook)
    entries = codebook.entries.data
    brute = np.argmin(
        ((vectors[:, None, :].astype(np.float64)
          - entries[None, :, :].astype(np.float64)) ** 2).sum(axis=2), axis=1)
    indices_match = np.array_equal(result.indices, brute)

    probe = rng.normal(size=vectors.shape).astype(np.float32)
    through = Tensor(vectors, requires_grad=True)
    (straight_through(through, result.quantized) * Tensor(probe)).sum().backward()
    direct = Tensor(vectors, requires_grad=True)
    (direct * Tensor(probe)).sum().backward()
    grads_bitwise = np.array_equal(through.grad, direct.grad)

    again = quantize(Tensor(result.quantized.data), codebook)
    idempotent = (np.array_equal(again.indices, result.indices)
                  and np.array_equal(again.quantized.data, result.quantized.data))

    ok = indices_match and grads_bitwise and idempotent
    verdict("04 vq oracle", ok,
            f"1000 indices match brute force {indices_match}, straight-through "
            f"grads bitwise {grads_bitwise}, idempotent {idempotent}")


def _toy_tokenizer_config(objective: str) -> TokenizerConfig:
    tower = dict(n_blocks=2, hidden_dim=64, head_dim=16, max_len=16)
    return TokenizerConfig(
        frames=16, data_dim=8, code_dim=8, codebook_size=32, objective=objective,
        encoder=TransformerConfig(causal=True, **tower),
        decoder=TransformerConfig(causal=False, **tower),
        flow=OtCfmConfig(),
        timestep_dim=32, lr=3e-3, weight_decay=0.0,
        epochs=2000, batch_size=8, seed=0)


def test_05_tokenizer_overfit(verdict):
    spec = SyntheticLatentSpec.create(n_classes=2, frames=16, dim=8,
                                      noise_std=0.05, seed=0, bimodal_class=None)
    dataset = gen_latent_dataset(spec, 4, split="train")
    details = []
    ok = True
    for objective in ("fm", "mse"):
        cfg = _toy_tokenizer_config(objective)
        model = TokenizerModel(cfg)
        start = time.perf_counter()
        report = train_tokenizer(dataset, model, cfg)
        elapsed = time.perf_counter() - start
        ratio = min(report.step_losses) / report.step_losses[0]
        tokens = encode_to_tokens(dataset.values, model)
        decoded = decode_tokens(tokens, model, rng=np.random.default_rng(7))
        recon = float(np.mean((decoded.astype(np.float64)
                               - dataset.values.astype(np.float64)) ** 2))
        bound = 0.1 * dataset.values.astype(np.float64).var()
        ok &= ratio < 0.1 and recon < bound and elapsed < 300.0
        details.append(f"{objective}: loss ratio {ratio:.3f} < 0.1, recon "
                       f"{recon:.4f} < {bound:.4f}, {elapsed:.0f}s < 300s")
    verdict("05 tokenizer overfit", ok, "; ".join(details))


def _train_decoder(objective: str, targets: np.ndarray, cond: np.ndarray,
                   steps: int, seed: int) -> DitDecoder:
    """Fit a velocity (or regression) decoder against fixed conditioning."""
    tower = TransformerConfig(n_blocks=2, hidden_dim=64, head_dim=16,
                              causal=False, max_len=targets.shape[1])
    flow_cfg = OtCfmConfig()
    rng = np.random.default_rng(seed)
    decoder = DitDecoder(targets.shape[2], cond.shape[2], tower, 32,
                         np.random.default_rng(seed + 1))
    opt = AdamW(decoder, lr=3e-3, weight_decay=0.0)
    for _ in range(steps):
        if objective == "fm":
            fs = sample_path(targets, rng, flow_cfg)
            loss = cfm_loss(decoder(fs.x_t, fs.t, Tensor(cond)), fs.u_t)
        else:
            pred = decoder(np.zeros_like(targets), 0.0, Tensor(cond))
            loss = square(pred - Tensor(targets)).mean()
        opt.zero_grad()
        loss.backward()
        opt.step()
    return decoder


def test_06_mode_separation(verdict):
    # Two opposite targets behind one fixed conditioning sequence: a
    # regression decoder can only answer with their average, a flow decoder
    # can answer with either one depending on its noise draw.
    spec = SyntheticLatentSpec.create(n_classes=2, frames=16, dim=8,
                                      noise_std=0.05, seed=0, bimodal_class=1)
    dataset = gen_latent_dataset(spec, 64, split="train")
    bimodal = dataset.values[dataset.labels == 1]
    mode = class_pattern(spec, 1)
    mode_norm = float(np.linalg.norm(mode))
    cond = np.zeros((len(bimodal), 16, 8), dtype=np.float32)

    decoder_fm = _train_decoder("fm", bimodal, cond, steps=1200, seed=0)
    decoder_mse = _train_decoder("mse", bimodal, cond, steps=1200, seed=0)

    with no_grad():
        mse_hat = mse_reconstruct(Tensor(cond), decoder_mse)
    fm_hat = euler_sample(Tensor(cond), decoder_fm, OtCfmConfig().n_sample_steps,
                          np.random.default_rng(123).standard_normal(cond.shape).astype(cond.dtype))

    mse_norm = float(np.mean(np.linalg.norm(
        mse_hat.reshape(len(bimodal), -1), axis=1)))
    averaged = mse_norm < 0.5 * mode_norm

    flat = fm_hat.reshape(len(bimodal), -1)
    to_plus = np.linalg.norm(flat - mode.reshape(1, -1), axis=1)
    to_minus = np.linalg.norm(flat + mode.reshape(1, -1), axis=1)
    near_fraction = float(np.mean(np.minimum(to_plus, to_minus) < 0.5 * mode_norm))

    reference = gaussian_stats(mean_pool_embeddings(bimodal))
    clamps = ClampLog()
    fd_fm = frechet_distance(reference,
                             gaussian_stats(mean_pool_embeddings(fm_hat)),
                             clamp_log=clamps)
    fd_mse = frechet_distance(reference,
                              gaussian_stats(mean_pool_embeddings(mse_hat)),
                              clamp_log=clamps)

    ok = fd_fm < fd_mse and averaged and near_fraction >= 0.8
    verdict("06 mode separation", ok,
            f"frechet fm {fd_fm:.4f} < mse {fd_mse:.4f}, mse norm {mse_norm:.2f} "
            f"< {0.5 * mode_norm:.2f}, fm near-mode {near_fraction:.2f} >= 0.80")


def test_07_frechet_math(verdict):
    rng = np.random.default_rng(7)
    stats = gaussian_stats(rng.normal(size=(40, 6)))
    clamps = ClampLog()
    self_distance = frechet_distance(stats, stats, clamp_log=clamps)

    uni_a = GaussianStats(mean=np.array([0.0]), covariance=np.array([[1.0]]), count=10)
    uni_b = GaussianStats(mean=np.array([1.0]), covariance=np.array([[4.0]]), count=10)
    univariate = frechet_distance(uni_a, uni_b, clamp_log=clamps)

    base = rng.normal(size=(6, 6))
    psd = base @ base.T
    root = matrix_sqrt_psd(psd, clamp_log=clamps)
    sqrt_err = float(np.max(np.abs(root @ root - psd))) / float(np.max(np.abs(psd)))

    other = gaussian_stats(rng.normal(size=(40, 6)) + 0.5)
    gap = abs(frechet_distance(stats, other, clamp_log=clamps)
              - frechet_distance(other, stats, clamp_log=clamps))

    ok = (self_distance < 1e-6 and abs(univariate - 2.0) < 1e-6
          and sqrt_err < 1e-6 and gap < 1e-6)
    verdict("07 frechet math", ok,
            f"self {self_distance:.1e} < 1e-6, univariate |{univariate:.6f}-2| "
            f"< 1e-6, sqrt err {sqrt_err:.1e} < 1e-6, asymmetry {gap:.1e} < 1e-6")


def test_08_lora_exactness(verdict):
    cfg = FusionConfig(v_text=256, n_blocks=2, hidden_dim=64, head_dim=32,
                       max_len=96, lora_rank=8, lora_alpha=16.0)
    model = FusionLM(cfg, np.random.default_rng(8))
    prompt = np.frombuffer(b"calibration prompt", dtype=np.uint8).astype(np.int64)
    before = model(prompt).data.copy()
    vocab = extend_vocab(model, 16, np.random.default_rng(9))
    after = model(prompt).data
    slice_bitwise = np.array_equal(after[:, :256], before)

    digest_init = frozen_digest(model)
    rng = np.random.default_rng(10)
    examples = [
        build_pretrain_example(gen_caption(i % 4, rng),
                               rng.integers(0, 16, size=5), vocab, rng)
        for i in range(10)
    ]
    report = train_lm(examples, model,
                      LmTrainConfig(epochs=50, batch_size=5, lr=1e-3, seed=8))
    frozen_intact = frozen_digest(model) == digest_init

    ok = slice_bitwise and frozen_intact and report.steps_run == 100
    verdict("08 lora exactness", ok,
            f"text-slice logits bitwise {slice_bitwise}, frozen hash intact "
            f"after {report.steps_run} steps {frozen_intact}")


def test_09_loss_oracles(verdict):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    rng = np.random.default_rng(9)
    logits = rng.standard_normal((6, 9)) * 3.0
    targets = rng.integers(0, 9, size=6)
    weights = rng.uniform(0.5, 10.0, size=6)
    ce_sum = mpmath.mpf(0)
    z_sum = mpmath.mpf(0)
    for t in range(6):
        lse = mpmath.log(sum(mpmath.exp(mpmath.mpf(v)) for v in logits[t]))
        ce_sum += mpmath.mpf(weights[t]) * (lse - mpmath.mpf(logits[t, targets[t]]))
        z_sum += lse ** 2
    want_ce = ce_sum / mpmath.mpf(weights.sum())
    want_z = mpmath.mpf(1e-4) * z_sum / 6
    loss, zloss, _ = weighted_ce_zloss(Tensor(logits), targets, weights,
                                       valid_mask=np.ones(targets.shape, bool))
    ce_rel = abs(float(loss.data) - float(want_ce)) / float(want_ce)
    z_rel = abs(float(zloss.data) - float(want_z)) / float(want_z)

    flat = Tensor(np.zeros((2, 5)), requires_grad=True)
    ten_to_one, _, _ = weighted_ce_zloss(flat, [0, 1], [10.0, 1.0], z_coeff=0.0,
                                         valid_mask=np.ones(2, bool))
    ten_to_one.backward()
    ratio = (np.linalg.norm(flat.grad[0]) / np.linalg.norm(flat.grad[1]))
    ratio_rel = abs(ratio / 10.0 - 1.0)

    ok = ce_rel < 1e-6 and z_rel < 1e-6 and ratio_rel < 1e-5
    verdict("09 loss oracles", ok,
            f"ce rel {ce_rel:.1e} < 1e-6, z-loss rel {z_rel:.1e} < 1e-6, "
            f"10x gradient ratio off by {ratio_rel:.1e} < 1e-5")


def test_10_lm_memorization(verdict):
    start = time.perf_counter()
    cfg = FusionConfig(v_text=256, n_blocks=2, hidden_dim=96, head_dim=32,
                       max_len=96, lora_rank=16, lora_alpha=32.0)
    model = FusionLM(cfg, np.random.default_rng(1))
    vocab = extend_vocab(model, 32, np.random.default_rng(2))
    rng = np.random.default_rng(0)
    pairs = []
    for i in range(50):
        # A unique lead byte keeps every continuation fully determined.
        caption = chr(65 + i) + " " + gen_caption(int(rng.integers(0, 4)), rng)
        codes = rng.integers(0, 32, size=int(rng.integers(4, 9)))
        pairs.append((caption, codes))
    examples = [build_pretrain_example(c, k, vocab, _TextFirst())
                for c, k in pairs]
    train_lm(examples, model, LmTrainConfig(epochs=150, batch_size=10,
                                            lr=2e-3, seed=0))
    accuracy = next_token_accuracy(model, examples)

    violations = 0
    sample_rng = np.random.default_rng(7)
    for i in range(1000):
        prompt = vocab.encode_text(pairs[i % 50][0][:6])
        result = generate(model, prompt, max_new_tokens=16, rng=sample_rng,
                          temperature=1.0)
        well_formed, _ = audio_spans_valid(result.tokens, vocab)
        violations += not well_formed
    elapsed = time.perf_counter() - start

    ok = accuracy > 0.95 and violations == 0 and elapsed < 600.0
    verdict("10 lm memorization", ok,
            f"next-token accuracy {accuracy:.4f} > 0.95, bracketing violations "
            f"{violations}/1000, {elapsed:.0f}s < 600s")


def test_11_bitrate(verdict, tmp_path):
    bps = bitrate(215, 10, 8196)
    from flowtok.cli import main
    out = tmp_path / "report.json"
    code = main(["report", "--out", str(out)])
    payload = json.loads(out.read_text())
    annotated = "0.23" in payload["note"] and "279.5" in payload["note"]
    ok = abs(bps - 279.5) <= 0.1 and code == 0 and annotated
    verdict("11 bitrate", ok,
            f"bitrate(215, 10, 8196) = {bps:.2f} within 279.5 +/- 0.1, "
            f"report annotates the 0.23 kbps gap {annotated}")


def test_12_determinism(verdict, tmp_path):
    env = dict(os.environ, MSN_DETERMINISTIC="1")

    def run(argv):
        proc = subprocess.run([sys.executable, "-m", "flowtok.cli", *argv],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc

    tiny = ["--set", "codebook_size=16", "--set", "code_dim=8",
            "--set", "encoder.n_blocks=1", "--set", "encoder.hidden_dim=32",
            "--set", "encoder.head_dim=16",
            "--set", "decoder.n_blocks=1", "--set", "decoder.hidden_dim=32",
            "--set", "decoder.head_dim=16",
            "--set", "timestep_dim=16", "--set", "epochs=1",
            "--set", "batch_size=8", "--set", "flow.n_sample_steps=2"]
    data = tmp_path / "data"
    run(["gen-data", "--out", str(data), "--set", "frames=8", "--set", "dim=4",
         "--set", "n_per_class=4"])
    for objective in ("fm", "mse"):
        run(["train-tokenizer", "--objective", objective,
             "--data", str(data / "train.msnl"),
             "--out", str(tmp_path / objective), *tiny])
    evaluate = ["eval", "--checkpoint", f"fm={tmp_path / 'fm' / 'tokenizer.msnc'}",
                "--checkpoint", f"mse={tmp_path / 'mse' / 'tokenizer.msnc'}",
                "--data", f"val={data / 'val.msnl'}", "--set", "n_steps=2"]
    run([*evaluate, "--out", str(tmp_path / "run_a")])
    run([*evaluate, "--out", str(tmp_path / "run_b")])
    csv_a = (tmp_path / "run_a" / "eval.csv").read_bytes()
    csv_b = (tmp_path / "run_b" / "eval.csv").read_bytes()
    identical = csv_a == csv_b
    verdict("12 determinism", identical,
            f"two eval runs, {len(csv_a)} CSV bytes, byte-identical {identical}")
