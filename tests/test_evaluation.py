"""Evaluation statistics checked against independent oracles."""

import zlib

import numpy as np
import pytest

from flowtok.data import LatentDataset, SyntheticLatentSpec, gen_latent_dataset
from flowtok.evaluation import (
    ClampLog,
    GaussianStats,
    compare_tokenizers,
    decode_split,
    frechet_distance,
    gaussian_stats,
    matrix_sqrt_psd,
    mean_pool_embeddings,
    reconstruction_error,
    split_metrics,
)
from flowtok.tensor import ShapeError


def random_psd(d, seed, jitter=0.0):
    g = np.random.default_rng(seed).standard_normal((d, d))
    return g.T @ g + jitter * np.eye(d)


class TestReconstructionError:
    def test_identical_is_zero(self):
        z = np.random.default_rng(0).standard_normal((4, 5))
        assert reconstruction_error(z, z) == 0.0

    def test_unit_offset_is_one(self):
        assert reconstruction_error(np.zeros((3, 7)), np.ones((3, 7))) == 1.0

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((3, 4))
        z_hat = rng.standard_normal((3, 4))
        total = 0.0
        for i in range(3):
            for j in range(4):
                total += (z[i, j] - z_hat[i, j]) ** 2
        assert abs(reconstruction_error(z, z_hat) - total / 12) < 1e-7

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="shapes differ"):
            reconstruction_error(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((6, 4))
        z_hat = rng.standard_normal((6, 4))
        perm = rng.permutation(6)
        assert reconstruction_error(z, z_hat) == pytest.approx(
            reconstruction_error(z[perm], z_hat[perm]), abs=1e-12)


class TestGaussianStats:
    def test_identical_rows_zero_covariance(self):
        stats = gaussian_stats(np.tile([1.0, 2.0, 3.0], (5, 1)))
        np.testing.assert_allclose(stats.covariance, 0.0, atol=1e-15)

    def test_two_point_hand_formula(self):
        stats = gaussian_stats(np.array([[0.0], [2.0]]))
        assert stats.mean[0] == 1.0
        assert stats.covariance[0, 0] == 2.0

    def test_monte_carlo_standard_normal(self):
        x = np.random.default_rng(3).standard_normal((10_000, 3))
        stats = gaussian_stats(x)
        assert np.abs(stats.mean).max() < 0.05
        assert np.abs(np.diag(stats.covariance) - 1.0).max() < 0.1

    def test_single_row_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            gaussian_stats(np.zeros((1, 4)))

    def test_covariance_exactly_symmetric(self):
        stats = gaussian_stats(np.random.default_rng(4).standard_normal((50, 6)))
        np.testing.assert_array_equal(stats.covariance, stats.covariance.T)

    def test_asymmetric_stats_rejected(self):
        cov = np.eye(2)
        cov[0, 1] = 1e-6
        with pytest.raises(ValueError, match="symmetric"):
            GaussianStats(mean=np.zeros(2), covariance=cov, count=3)


class TestMatrixSqrt:
    def test_identity(self):
        np.testing.assert_allclose(matrix_sqrt_psd(np.eye(4), ClampLog()), np.eye(4), atol=1e-12)

    def test_diagonal_case(self):
        np.testing.assert_allclose(matrix_sqrt_psd(np.diag([4.0, 9.0]), ClampLog()),
                                   np.diag([2.0, 3.0]), atol=1e-12)

    def test_diagonal_matrix(self):
        # unsorted entries: the eigensolver returns them in ascending order,
        # so the root is right only if values and vectors stay paired
        np.testing.assert_allclose(matrix_sqrt_psd(np.diag([9.0, 1.0, 4.0]), ClampLog()),
                                   np.diag([3.0, 1.0, 2.0]), atol=1e-12)

    def test_squares_back(self):
        m = random_psd(5, 12)
        root = matrix_sqrt_psd(m, ClampLog())
        assert np.abs(root @ root - m).max() < 1e-6

    def test_reconstructs_input(self):
        m = random_psd(6, 9)
        root = matrix_sqrt_psd(m, ClampLog())
        assert np.array_equal(root, root.T)
        assert np.linalg.eigvalsh(root).min() > 0.0
        np.testing.assert_allclose(root @ root, m, atol=1e-9)

    def test_moderate_dimension(self):
        m = random_psd(48, 11)
        root = matrix_sqrt_psd(m, ClampLog())
        assert np.abs(root @ root - m).max() < 1e-6

    def test_one_by_one(self):
        assert matrix_sqrt_psd(np.array([[4.0]]), ClampLog())[0, 0] == 2.0

    def test_asymmetric_rejected(self):
        m = np.array([[1.0, 0.2], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            matrix_sqrt_psd(m, ClampLog())

    def test_symmetry_tolerance(self):
        # round-off asymmetry below SYMMETRY_TOL (relative to the largest entry)
        # is accepted; anything above it is an error, however small the matrix
        within = np.array([[2.0, 1.0], [1.0 + 1e-9, 2.0]])
        assert np.all(np.isfinite(matrix_sqrt_psd(within, ClampLog())))
        with pytest.raises(ValueError, match="symmetric"):
            matrix_sqrt_psd(np.array([[1.0, 2.0], [0.5, 1.0]]), ClampLog())

    def test_clamping_counted(self):
        rng = np.random.default_rng(13)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        m = (q * np.array([1.0, 0.5, -1e-9])) @ q.T
        m = 0.5 * (m + m.T)
        log = ClampLog()
        root = matrix_sqrt_psd(m, clamp_log=log)
        assert log.events == 1
        assert log.worst < 0.0
        assert np.all(np.isfinite(root))

    def test_no_warning_when_psd(self):
        log = ClampLog()
        matrix_sqrt_psd(random_psd(4, 14, jitter=0.1), log)
        assert log.events == 0


class TestFrechetDistance:
    def test_identical_stats_zero(self):
        stats = gaussian_stats(np.random.default_rng(15).standard_normal((40, 5)))
        log = ClampLog()
        assert frechet_distance(stats, stats, log) <= 1e-6
        # Only round-off scale clamps are acceptable here.
        assert log.worst > -1e-9

    def test_univariate_closed_form(self):
        a = GaussianStats(mean=np.array([0.0]), covariance=np.array([[1.0]]), count=10)
        b = GaussianStats(mean=np.array([1.0]), covariance=np.array([[4.0]]), count=10)
        assert frechet_distance(a, b, ClampLog()) == pytest.approx(2.0, abs=1e-9)

    def test_symmetric_in_arguments(self):
        for seed in range(3):
            a = GaussianStats(mean=np.zeros(4), covariance=random_psd(4, seed, 0.1), count=9)
            b = GaussianStats(mean=np.ones(4), covariance=random_psd(4, seed + 50, 0.1), count=9)
            assert frechet_distance(a, b, ClampLog()) == pytest.approx(
                frechet_distance(b, a, ClampLog()), abs=1e-6)

    def test_translation_invariant(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((30, 3))
        y = rng.standard_normal((30, 3)) * 1.5 + 0.3
        shift = np.array([5.0, -2.0, 7.0])
        base = frechet_distance(gaussian_stats(x), gaussian_stats(y), ClampLog())
        moved = frechet_distance(gaussian_stats(x + shift), gaussian_stats(y + shift),
                                 ClampLog())
        assert base == pytest.approx(moved, abs=1e-8)

    def test_nonnegative(self):
        rng = np.random.default_rng(17)
        for seed in range(5):
            a = gaussian_stats(rng.standard_normal((20, 4)))
            b = gaussian_stats(rng.standard_normal((20, 4)))
            assert frechet_distance(a, b, ClampLog()) >= 0.0

    def test_dim_mismatch_rejected(self):
        a = gaussian_stats(np.random.default_rng(0).standard_normal((5, 2)))
        b = gaussian_stats(np.random.default_rng(0).standard_normal((5, 3)))
        with pytest.raises(ShapeError, match="dims differ"):
            frechet_distance(a, b, ClampLog())

    def test_mean_gap_only(self):
        cov = np.eye(2)
        a = GaussianStats(mean=np.array([0.0, 0.0]), covariance=cov, count=5)
        b = GaussianStats(mean=np.array([3.0, 4.0]), covariance=cov, count=5)
        assert frechet_distance(a, b, ClampLog()) == pytest.approx(25.0, abs=1e-9)


class TestSplitMetrics:
    def test_hand_built_frame_and_pooled_frechet(self):
        """Two clips of frames (0, 0) and (2, 4), decoded as their clip
        mean (1, 2) moved by (0, 1). Pooled, both sides have zero spread:
        Fréchet 1, the mean gap. Over frames the reference keeps its
        covariance [[4/3, 8/3], [8/3, 16/3]] (trace 20/3) and the decode has
        none: Fréchet 1 + 20/3."""
        values = np.array([[[0, 0], [2, 4]], [[0, 0], [2, 4]]], dtype=np.float32)
        decoded = np.full_like(values, 1.0)
        decoded[..., 1] = 3.0
        dataset = LatentDataset(values, np.zeros(2, dtype=np.uint16))
        metrics = split_metrics(dataset, decoded, ClampLog())
        assert list(metrics) == ["recon_mse", "frechet", "frechet_frame"]
        assert metrics["recon_mse"] == 3.0
        assert metrics["frechet"] == pytest.approx(1.0, abs=1e-9)
        assert metrics["frechet_frame"] == pytest.approx(1.0 + 20.0 / 3.0, abs=1e-9)

    def test_frame_frechet_takes_the_reference_first(self):
        """frechet_frame is frechet_distance over (N*T, D) frames with the
        ground truth first, as `frechet` orders the pooled clips."""
        rng = np.random.default_rng(18)
        values = rng.standard_normal((6, 5, 3)).astype(np.float32)
        decoded = (values * 0.7 + rng.standard_normal(values.shape) * 0.4).astype(np.float32)
        dataset = LatentDataset(values, np.zeros(6, dtype=np.uint16))
        expected = frechet_distance(gaussian_stats(values.reshape(30, 3)),
                                    gaussian_stats(decoded.reshape(30, 3)), ClampLog())
        assert split_metrics(dataset, decoded, ClampLog())["frechet_frame"] == expected


class TestMeanPool:
    def test_shape_and_values(self):
        x = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        pooled = mean_pool_embeddings(x)
        assert pooled.shape == (2, 4)
        np.testing.assert_allclose(pooled[0], x[0].mean(axis=0))

    def test_rank_checked(self):
        with pytest.raises(ShapeError, match="N, T, D"):
            mean_pool_embeddings(np.zeros((3, 4)))


def small_models():
    from flowtok.nn import TransformerConfig
    from flowtok.pipeline import TokenizerConfig, TokenizerModel

    def build(objective, seed):
        cfg = TokenizerConfig(
            frames=8, data_dim=4, code_dim=4, codebook_size=16, objective=objective,
            encoder=TransformerConfig(n_blocks=1, hidden_dim=16, head_dim=8,
                                      causal=True, max_len=8),
            decoder=TransformerConfig(n_blocks=1, hidden_dim=16, head_dim=8,
                                      causal=False, max_len=8),
            timestep_dim=8,
        )
        return TokenizerModel(cfg, np.random.default_rng(seed))

    return build("fm", 0), build("mse", 1)


def small_splits(n=4):
    spec = SyntheticLatentSpec.create(n_classes=2, frames=8, dim=4, noise_std=0.1,
                                      seed=5, bimodal_class=None)
    return {
        "val": gen_latent_dataset(spec, n_per_class=n, split="val"),
        "test": gen_latent_dataset(spec, n_per_class=n, split="test"),
    }


class TestDecodeSplit:
    def test_mse_matches_per_clip_loop(self):
        """The one-call decode equals the per-clip loop it replaced, bit for
        bit, where no noise is drawn."""
        from flowtok.pipeline import decode_tokens, encode_to_tokens

        _, mse = small_models()
        dataset = small_splits(n=16)["val"]
        reference = np.empty_like(dataset.values)
        for i in range(len(dataset)):
            rng = np.random.default_rng(np.random.SeedSequence((0, zlib.crc32(b"val"), i)))
            reference[i] = decode_tokens(encode_to_tokens(dataset.values[i], mse), mse, rng=rng)
        decoded = decode_split("val", dataset, mse, 0, None)
        assert decoded.dtype == dataset.values.dtype
        assert decoded.tobytes() == reference.tobytes()

    def test_fm_is_one_call_on_the_split_stream(self):
        """A flow decode is `flowtok decode`'s call on the split's tokens,
        with one noise stream keyed by (seed, split) only."""
        from flowtok.pipeline import decode_tokens, encode_to_tokens

        fm, _ = small_models()
        dataset = small_splits()["val"]
        rng = np.random.default_rng(np.random.SeedSequence((3, zlib.crc32(b"val"))))
        expected = decode_tokens(encode_to_tokens(dataset.values, fm), fm, rng=rng, n_steps=2)
        decoded = decode_split("val", dataset, fm, 3, 2)
        assert decoded.dtype == np.float32
        assert decoded.tobytes() == expected.astype(np.float32).tobytes()


def value(table, split, model, metric):
    """The value of the one row keyed (split, model, metric)."""
    [found] = [v for s, m, k, v in table.rows if (s, m, k) == (split, model, metric)]
    return found


class TestCompareTokenizers:
    def test_row_per_split_model_metric(self):
        fm, mse = small_models()
        report = compare_tokenizers(small_splits(), {"fm": fm, "mse": mse}, ClampLog(), seed=0)
        keys = {(s, m, k) for s, m, k, _ in report.rows}
        expected = {(s, m, k)
                    for s in ("val", "test")
                    for m in ("fm", "mse")
                    for k in ("recon_mse", "frechet", "frechet_frame")}
        assert keys == expected
        assert len(report.rows) == len(expected)

    def test_rows_follow_sorted_splits_and_given_model_order(self):
        fm, mse = small_models()
        report = compare_tokenizers(small_splits(), {"mse": mse, "fm": fm}, ClampLog(), seed=0)
        assert [(s, m) for s, m, _, _ in report.rows[::3]] == [
            ("test", "mse"), ("test", "fm"), ("val", "mse"), ("val", "fm")]

    def test_same_model_both_slots_identical_columns(self):
        fm, _ = small_models()
        report = compare_tokenizers(small_splits(), {"fm": fm, "mse": fm}, ClampLog(), seed=3)
        for split in ("val", "test"):
            for metric in ("recon_mse", "frechet", "frechet_frame"):
                assert value(report, split, "fm", metric) == value(report, split, "mse", metric)

    def test_empty_split_rejected(self):
        fm, mse = small_models()
        empty = LatentDataset(np.zeros((0, 8, 4), dtype=np.float32),
                              np.zeros(0, dtype=np.uint16))
        with pytest.raises(ValueError, match="empty"):
            compare_tokenizers({"val": empty}, {"fm": fm, "mse": mse}, ClampLog())

    def test_one_clip_split_rejected_before_any_decode(self, monkeypatch):
        """One clip has no covariance; the refusal names the split and comes
        before the splits sorted ahead of it are decoded."""
        fm, mse = small_models()
        splits = small_splits()
        splits["val"] = LatentDataset(splits["val"].values[:1], splits["val"].labels[:1])
        decoded = []
        monkeypatch.setattr("flowtok.evaluation.decode_split",
                            lambda name, *args: decoded.append(name))
        with pytest.raises(ValueError, match="split 'val' holds 1 clip"):
            compare_tokenizers(splits, {"fm": fm, "mse": mse}, ClampLog())
        assert decoded == []

    def test_repeat_run_identical_csv_bytes(self, tmp_path):
        fm, mse = small_models()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        compare_tokenizers(small_splits(), {"fm": fm, "mse": mse}, ClampLog(), seed=0).write_csv(a)
        compare_tokenizers(small_splits(), {"fm": fm, "mse": mse}, ClampLog(), seed=0).write_csv(b)
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_flow_metrics(self):
        fm, mse = small_models()
        splits = small_splits()
        r0 = compare_tokenizers(splits, {"fm": fm, "mse": mse}, ClampLog(), seed=0)
        r1 = compare_tokenizers(splits, {"fm": fm, "mse": mse}, ClampLog(), seed=1)
        assert value(r0, "val", "fm", "recon_mse") != value(r1, "val", "fm", "recon_mse")
        assert value(r0, "val", "mse", "recon_mse") == value(r1, "val", "mse", "recon_mse")

    def test_csv_schema(self, tmp_path):
        fm, mse = small_models()
        path = tmp_path / "report.csv"
        table = compare_tokenizers(small_splits(), {"fm": fm, "mse": mse}, ClampLog(), seed=0)
        table.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "split,model,metric,value"
        assert len(lines) == 13

    def test_json_mirror_carries_metadata(self, tmp_path):
        import json
        fm, mse = small_models()
        clamps = ClampLog()
        report = compare_tokenizers(small_splits(), {"fm": fm, "mse": mse}, clamps, seed=0)
        path = tmp_path / "report.json"
        report.write_json(path, seed=0, config_digest="abc", clamp_events=clamps.events)
        payload = json.loads(path.read_text())
        assert payload["seed"] == 0
        assert payload["config_digest"] == "abc"
        assert len(payload["rows"]) == 12
        assert payload["clamp_events"] == clamps.events
