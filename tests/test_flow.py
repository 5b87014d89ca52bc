"""Optimal-transport flow matching: path algebra, loss, Euler sampling, decoder."""

import numpy as np
import pytest

from flowtok.flow import (
    DitDecoder,
    FlowSample,
    cfm_loss,
    euler_sample,
    mse_reconstruct,
    sample_path,
)
from flowtok.nn import AdamW, TransformerConfig
from flowtok.pipeline import TokenizerConfig
from flowtok.tensor import NumericFault, ShapeError, Tensor, no_grad


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestSamplePath:
    def test_zero_width_path_is_straight_interpolation(self):
        """With sigma_min = 0 and x0 = 0 the interpolant is t * x1 and the
        target velocity is x1 itself."""
        x1 = np.array([[2.0, -4.0]], dtype=np.float32)
        smp = sample_path(x1, _rng(1), 0.0, t=0.25, x0=np.zeros_like(x1))
        np.testing.assert_allclose(smp.x_t, 0.25 * x1, atol=1e-7)
        np.testing.assert_allclose(smp.u_t, x1, atol=1e-7)

    def test_narrow_path_at_terminal_time(self):
        smp = sample_path(np.array([[0.0]], dtype=np.float32), _rng(2), 0.1,
                          t=1.0, x0=np.array([[1.0]], dtype=np.float32))
        np.testing.assert_allclose(smp.x_t, [[0.1]], rtol=1e-6)
        np.testing.assert_allclose(smp.u_t, [[-0.9]], rtol=1e-6)

    def test_endpoint_identities_exact(self):
        """x_t at t=0 equals x0 and at t=1 equals sigma_min*x0 + x1, with no
        floating-point slack."""
        sigma_min = 1e-4
        rng = _rng(3)
        x1 = rng.normal(size=(5, 4)).astype(np.float32)
        x0 = rng.normal(size=(5, 4)).astype(np.float32)
        at0 = sample_path(x1, rng, sigma_min, t=0.0, x0=x0)
        np.testing.assert_array_equal(at0.x_t, x0)
        at1 = sample_path(x1, rng, sigma_min, t=1.0, x0=x0)
        np.testing.assert_array_equal(at1.x_t, np.float32(sigma_min) * x0 + x1)

    def test_target_velocity_is_time_independent(self):
        rng = _rng(4)
        x1 = rng.normal(size=(3, 2)).astype(np.float32)
        x0 = rng.normal(size=(3, 2)).astype(np.float32)
        a = sample_path(x1, rng, 1e-4, t=0.2, x0=x0)
        b = sample_path(x1, rng, 1e-4, t=0.9, x0=x0)
        np.testing.assert_array_equal(a.u_t, b.u_t)

    def test_interpolant_mean_matches_t_x1(self):
        """Averaged over many x0 draws, E[x_t] = t*x1 for sigma_min = 0."""
        rng = _rng(5)
        x1 = np.full((1, 1), 3.0, dtype=np.float64)
        t = 0.6
        n = 10_000
        draws = np.array([sample_path(x1, rng, 0.0, t=t).x_t[0, 0] for _ in range(n)])
        se = draws.std(ddof=1) / np.sqrt(n)
        assert abs(draws.mean() - t * 3.0) < 3.0 * se + 1e-12

    def test_batched_times_broadcast_per_item(self):
        rng = _rng(6)
        x1 = np.ones((2, 3, 2), dtype=np.float32)
        smp = sample_path(x1, rng, 0.0, t=np.array([0.0, 1.0]), x0=np.zeros_like(x1))
        np.testing.assert_allclose(smp.x_t[0], 0.0)
        np.testing.assert_allclose(smp.x_t[1], 1.0)

    def test_mismatched_x0_rejected(self):
        with pytest.raises(ShapeError):
            sample_path(np.zeros((2, 2)), _rng(7), 1e-4, x0=np.zeros((3, 2)))

    def test_config_validation(self):
        """A tokenizer's path width is in [0, 1)."""
        for sigma_min in (1.0, -1e-3):
            with pytest.raises(ValueError, match="sigma_min must be in"):
                TokenizerConfig(sigma_min=sigma_min)


class TestCfmLoss:
    def test_zero_at_target(self):
        rng = _rng(8)
        u = rng.normal(size=(4, 3)).astype(np.float32)
        assert cfm_loss(Tensor(u.copy()), u).item() == 0.0

    def test_known_value(self):
        pred = Tensor(np.array([[1.0, 2.0]], dtype=np.float32))
        target = np.array([[0.0, 0.0]], dtype=np.float32)
        assert cfm_loss(pred, target).item() == pytest.approx(2.5)

    def test_gradient_is_two_over_n_times_residual(self):
        rng = _rng(9)
        v = Tensor(rng.normal(size=(2, 3)), requires_grad=True, dtype=np.float64)
        u = rng.normal(size=(2, 3))
        cfm_loss(v, u).backward()
        np.testing.assert_allclose(v.grad, 2.0 * (v.data - u) / 6.0, rtol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            cfm_loss(Tensor(np.zeros((2, 3))), np.zeros((3, 2)))


class TestEulerSampler:
    def test_linear_field_approaches_exponential(self):
        """v(x) = x integrates to e * x0; 100 steps land within 2 percent."""
        out = euler_sample(None, lambda x, t, c: Tensor(x), 100, np.ones((1, 1), dtype=np.float64))
        assert abs(out[0, 0] - np.e) / np.e < 0.02

    def test_halving_steps_roughly_doubles_error(self):
        """First-order convergence: error ratio between N and 2N in [1.6, 2.4]."""
        x0 = np.ones((1, 1), dtype=np.float64)
        errs = {}
        for n in (32, 64):
            out = euler_sample(None, lambda x, t, c: Tensor(x), n, x0)
            errs[n] = abs(out[0, 0] - np.e)
        ratio = errs[32] / errs[64]
        assert 1.6 <= ratio <= 2.4

    def test_zero_field_returns_start(self):
        x0 = _rng(12).normal(size=(3, 2))
        out = euler_sample(None, lambda x, t, c: Tensor(np.zeros_like(x)), 8, x0)
        np.testing.assert_array_equal(out, x0)

    def test_nonfinite_state_names_the_step(self):
        def blowup(x, t, c):
            return Tensor(np.full_like(x, np.inf) if t >= 0.5 else x)

        with pytest.raises(NumericFault, match="step 4"):
            euler_sample(None, blowup, 8, np.ones((1, 1)))

    def test_steps_in_the_start_states_dtype(self):
        """A float32 start stays float32 under a float64 field, and the
        conditioning reaches the field as given."""
        cond = object()
        seen = []

        def field(x, t, c):
            seen.append(c)
            return Tensor(np.ones_like(x), dtype=np.float64)

        out = euler_sample(cond, field, 4, np.zeros((2, 3), dtype=np.float32))
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, np.ones((2, 3), dtype=np.float32))
        assert all(c is cond for c in seen) and len(seen) == 4

    def test_fewer_than_one_step_refused(self):
        with pytest.raises(ValueError, match="must be >= 1"):
            euler_sample(None, lambda x, t, c: Tensor(x), 0, np.ones((1, 1)))


def _tiny_decoder(rng, data_dim=4, cond_dim=4, hidden=32, max_len=8):
    cfg = TransformerConfig(n_blocks=1, hidden_dim=hidden, head_dim=hidden // 2,
                            causal=False, max_len=max_len)
    return DitDecoder(data_dim, cond_dim, cfg, timestep_dim=16, rng=rng)


class TestDitDecoder:
    def test_output_shape_matches_state(self):
        rng = _rng(15)
        dec = _tiny_decoder(rng)
        out = dec(rng.normal(size=(2, 6, 4)).astype(np.float32), 0.3,
                  Tensor(rng.normal(size=(2, 6, 4)).astype(np.float32)))
        assert out.shape == (2, 6, 4)

    def test_unbatched_input_round_trips(self):
        rng = _rng(16)
        dec = _tiny_decoder(rng)
        out = dec(rng.normal(size=(6, 4)).astype(np.float32), 0.0,
                  Tensor(rng.normal(size=(6, 4)).astype(np.float32)))
        assert out.shape == (6, 4)

    def test_unbatched_input_equals_batch_of_one(self):
        rng = _rng(16)
        dec = _tiny_decoder(rng)
        x = rng.normal(size=(6, 4)).astype(np.float32)
        c = rng.normal(size=(6, 4)).astype(np.float32)
        with no_grad():
            single = dec(x, 0.375, Tensor(c)).data
            batch = dec(x[None], np.array([0.375]), Tensor(c[None])).data
        assert single.tobytes() == batch[0].tobytes()

    def test_sequence_longer_than_max_len_rejected(self):
        dec = _tiny_decoder(_rng(16), max_len=8)
        with pytest.raises(ShapeError, match="max_len 8"):
            dec(np.zeros((9, 4), dtype=np.float32), 0.0, Tensor(np.zeros((9, 4), dtype=np.float32)))

    def test_conditioning_changes_output(self):
        rng = _rng(17)
        dec = _tiny_decoder(rng)
        x = rng.normal(size=(1, 5, 4)).astype(np.float32)
        with no_grad():
            a = dec(x, 0.5, Tensor(rng.normal(size=(1, 5, 4)).astype(np.float32))).data
            b = dec(x, 0.5, Tensor(rng.normal(size=(1, 5, 4)).astype(np.float32))).data
        assert np.abs(a - b).max() > 1e-4

    def test_timestep_changes_output(self):
        rng = _rng(18)
        dec = _tiny_decoder(rng)
        x = rng.normal(size=(1, 5, 4)).astype(np.float32)
        c = Tensor(rng.normal(size=(1, 5, 4)).astype(np.float32))
        with no_grad():
            assert np.abs(dec(x, 0.0, c).data - dec(x, 1.0, c).data).max() > 1e-5

    def test_causal_config_rejected(self):
        cfg = TransformerConfig(n_blocks=1, hidden_dim=16, head_dim=8, causal=True)
        with pytest.raises(ValueError):
            DitDecoder(4, 4, cfg, 16, _rng(19))

    def test_mismatched_lengths_rejected(self):
        rng = _rng(20)
        dec = _tiny_decoder(rng)
        with pytest.raises(ShapeError):
            dec(np.zeros((1, 5, 4), dtype=np.float32), 0.0, Tensor(np.zeros((1, 6, 4), dtype=np.float32)))

    def test_timestep_batch_mismatch_rejected(self):
        """A t whose length is not the batch's is a ShapeError naming both."""
        dec = _tiny_decoder(_rng(20))
        x = np.zeros((2, 5, 4), dtype=np.float32)
        with pytest.raises(ShapeError, match=r"\(3,\).*\(2, 5, 4\)"):
            dec(x, np.array([0.1, 0.2, 0.3]), Tensor(x))

    def test_mse_reconstruct_pins_time_and_state(self):
        rng = _rng(21)
        dec = _tiny_decoder(rng)
        cond = Tensor(rng.normal(size=(1, 5, 4)).astype(np.float32))
        with no_grad():
            direct = dec(np.zeros((1, 5, 4), dtype=np.float32), 0.0, cond).data
            out = mse_reconstruct(cond, dec)
        np.testing.assert_array_equal(out, direct)


class TestDistributionRecovery:
    def test_learned_field_moves_gaussian_to_target(self):
        """A one-block decoder trained with the flow objective transports
        N(0, I) near N([2, 2], I): sample mean within 0.3 per coordinate,
        sample variance within 0.5 of 1."""
        rng = _rng(22)
        dec = _tiny_decoder(rng, data_dim=2, cond_dim=2, hidden=32, max_len=1)
        opt = AdamW(dec, lr=3e-3)
        cond = Tensor(np.zeros((128, 1, 2), dtype=np.float32))
        for _ in range(400):
            x1 = rng.normal(loc=2.0, size=(128, 1, 2)).astype(np.float32)
            smp = sample_path(x1, rng, 1e-4)
            pred = dec(smp.x_t, smp.t, cond)
            loss = cfm_loss(pred, smp.u_t)
            opt.zero_grad()
            loss.backward()
            opt.step()

        with no_grad():
            draws = euler_sample(
                Tensor(np.zeros((2000, 1, 2), dtype=np.float32)),
                dec,
                32,
                rng.standard_normal((2000, 1, 2)).astype(np.float32),
            ).reshape(2000, 2)
        assert np.abs(draws.mean(axis=0) - 2.0).max() < 0.3
        assert np.abs(draws.var(axis=0) - 1.0).max() < 0.5
