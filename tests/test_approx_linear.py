"""Tests for the lossless approximation pipelines.

Frozen oracles: Fourier coefficients of exp(-t) have closed forms
(integral of e^{-at}cos(pi t) on [0,1] is a(1+e^{-a})/(a^2+pi^2), sine
analogue with pi in the numerator), the window-selection inequality for
an exponential tail solves to tau = ln(2 C / eps^2), and the harmonic
count and shift follow from the window by fixed arithmetic.  The e^{-t}
pipeline at target 0.1 over a minimum window of 5 lands on a 6.296
window, 4623 harmonics, and 9245 states; those numbers are pinned below.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from lossless.approx_linear import (
    FourierLosslessApprox,
    MemorylessSystem,
    dissipative_lossless_approx,
    factor_psd,
    fourier_coefficients,
    l2_error,
    memoryless_error_bound,
    memoryless_lossless_approx,
    realize_harmonic,
    select_tau,
    split_symmetric,
)
from lossless import _util, approx_linear
from lossless.approx_linear import _DENSE_LIMIT, _HarmonicSeries, _realize_bank
from lossless.statespace import (
    LosslessLinear,
    SignatureMatrix,
    Trajectory,
    check_dissipative,
    check_lossless,
    check_reciprocal,
    check_time_reversible,
    impulse_response,
    simulate_linear,
)


@pytest.fixture(scope="module")
def exp_kernel():
    t = np.arange(0, 10 + 1e-12, 1e-3)
    return Trajectory(dt=1e-3, values=np.exp(-t))


@pytest.fixture(scope="module")
def exp_pipeline(exp_kernel):
    return dissipative_lossless_approx(exp_kernel, 0.1, 5.0, tail=lambda t: np.exp(-t))


@pytest.fixture(scope="module")
def twoport_kernel():
    # Reciprocal w.r.t. diag(1, -1); the antisymmetric off-diagonal vanishes
    # at t = 0 so its 1/w sine tail cannot break positive realness.
    t = np.arange(0, 12 + 1e-12, 2e-3)
    off = np.exp(-2 * t) - np.exp(-3 * t)
    vals = np.empty((len(t), 2, 2))
    vals[:, 0, 0] = 2 * np.exp(-t)
    vals[:, 0, 1] = off
    vals[:, 1, 0] = -off
    vals[:, 1, 1] = 2 * np.exp(-3 * t)
    return Trajectory(dt=2e-3, values=vals)


@pytest.fixture(scope="module")
def twoport_pipeline(twoport_kernel):
    return dissipative_lossless_approx(twoport_kernel, 0.5, 3.0)


class TestSplitAndFactor:
    def test_split_scalar(self):
        s, a = split_symmetric([[1.0]])
        np.testing.assert_allclose(s, [[1.0]])
        np.testing.assert_allclose(a, [[0.0]])

    def test_split_antisymmetric(self):
        k = np.array([[0.0, 1.0], [-1.0, 0.0]])
        s, a = split_symmetric(k)
        np.testing.assert_allclose(s, 0.0)
        np.testing.assert_allclose(a, k)

    def test_split_mixed(self):
        s, a = split_symmetric([[2.0, 1.0], [3.0, 2.0]])
        np.testing.assert_allclose(s, [[2.0, 2.0], [2.0, 2.0]])
        np.testing.assert_allclose(a, [[0.0, -1.0], [1.0, 0.0]])

    def test_factor_identity(self):
        f = factor_psd(np.eye(2))
        np.testing.assert_allclose(f.T @ f, np.eye(2), atol=1e-12)

    def test_factor_scalar(self):
        np.testing.assert_allclose(factor_psd([[4.0]]), [[2.0]])

    def test_factor_rank_deficient(self):
        f = factor_psd([[2.0, 2.0], [2.0, 2.0]])
        assert f.shape == (1, 2)
        np.testing.assert_allclose(f.T @ f, [[2.0, 2.0], [2.0, 2.0]], atol=1e-12)

    def test_factor_rejects_indefinite(self):
        with pytest.raises(ValueError, match="-1.0"):
            factor_psd([[1.0, 0.0], [0.0, -1.0]])

    def test_active_gain_redirected(self):
        with pytest.raises(ValueError, match="energy-supply"):
            MemorylessSystem.from_gain([[-1.0]])


class TestMemorylessBank:
    def test_two_harmonic_layout(self):
        ha = memoryless_lossless_approx(1.0, np.pi, 2)
        np.testing.assert_allclose(
            np.asarray(ha.system.J), [[0, 0, 0], [0, 0, 1], [0, -1, 0]], atol=1e-15
        )
        expected = np.array([1 / np.sqrt(2), 1.0, 0.0]) / np.sqrt(np.pi)
        np.testing.assert_allclose(ha.harmonic_input_map[:, 0], expected)
        np.testing.assert_allclose(
            np.asarray(ha.system.B), np.sqrt(2.0) * ha.harmonic_input_map
        )
        assert ha.base_frequency == pytest.approx(1.0)

    def test_kernel_at_zero(self):
        ha = memoryless_lossless_approx(1.0, 1.0, 3)
        assert ha.kernel([0.0])[0, 0, 0] == pytest.approx(5.0)

    def test_realization_plays_the_series(self):
        ha = memoryless_lossless_approx(1.0, 1.0, 3)
        g = impulse_response(ha.system, 1e-3, 1001)
        np.testing.assert_allclose(g.values, ha.kernel(g.times), atol=1e-12)

    def test_realization_is_lossless(self):
        ha = memoryless_lossless_approx(np.array([[2.0, 1.0], [1.0, 3.0]]), 1.0, 4)
        v = check_lossless(ha.system, trials=3)
        assert v.passed
        assert v.skew_residual == 0.0

    def test_antisymmetric_gain_is_exact(self):
        k = np.array([[0.0, 1.0], [-1.0, 0.0]])
        ha = memoryless_lossless_approx(k, 1.0, 4)
        assert ha.system.n == 0
        t = np.arange(101) * 1e-2
        u = Trajectory(dt=1e-2, values=np.stack([np.sin(t), np.cos(t)], axis=1))
        y = ha.respond(u)
        np.testing.assert_allclose(y.values, u.values @ k.T, atol=1e-14)

    def test_state_dimension(self):
        ha = memoryless_lossless_approx(np.eye(2), 1.0, 5)
        assert ha.system.n == (2 * 5 - 1) * 2

    def test_input_validation(self):
        with pytest.raises(ValueError, match="harmonics"):
            memoryless_lossless_approx(1.0, 1.0, 1)
        with pytest.raises(ValueError, match="horizon"):
            memoryless_lossless_approx(1.0, 0.0, 4)

    @pytest.mark.parametrize(
        "gain, n_harmonics",
        [
            (1.0, 2),
            (1.0, 7),
            (1.0, 1200),  # 2399 states: stored sparse
            (np.array([[2.0, 0.5], [-0.5, 1.0]]), 5),
            (np.array([[2.0, 1.3, 0.0], [0.7, 2.0, 0.0], [0.0, 0.0, 0.0]]), 40),  # rank 2
        ],
    )
    def test_generator_matches_the_kron_layout(self, gain, n_harmonics):
        # J written out block by block: the DC states, then each pair's
        # cosine states coupled at +k w0 to its sine states
        tau = 1.3
        ha = memoryless_lossless_approx(gain, tau, n_harmonics)
        r = ha.memoryless.rank
        pairs = (n_harmonics - 1) * r
        omega = (np.pi / tau) * np.kron(np.diag(np.arange(1, n_harmonics)), np.eye(r))
        expected = np.zeros((r + 2 * pairs, r + 2 * pairs))
        expected[r : r + pairs, r + pairs :] = omega
        expected[r + pairs :, r : r + pairs] = -omega
        j = ha.system.J
        assert scipy.sparse.issparse(j) == (expected.shape[0] > _DENSE_LIMIT)
        assert np.array_equal(j.toarray() if scipy.sparse.issparse(j) else j, expected)
        b = np.vstack([
            ha.memoryless.factor / np.sqrt(2.0),
            np.tile(ha.memoryless.factor, (n_harmonics - 1, 1)),
            np.zeros((pairs, ha.memoryless.ports)),
        ]) * np.sqrt(2.0 / tau)
        np.testing.assert_allclose(ha.system.B, b, rtol=1e-14, atol=0.0)

    def test_large_bank_never_builds_a_dense_generator(self):
        # a dense (2N - 1)-square generator at N = 4000 alone is 488 MiB
        tracemalloc.start()
        try:
            ha = memoryless_lossless_approx(1.0, 1.0, 4000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ha.system.n == 7999
        assert peak < 16 * 2**20

    def test_fast_response_matches_rk4(self):
        ha = memoryless_lossless_approx(1.0, 1.0, 16)
        dt = 1e-4
        t = np.arange(int(1.0 / dt) + 1) * dt
        u = Trajectory(dt=dt, values=np.sin(np.pi * t) ** 2)
        y_fast = ha.zero_state_response(u.values[:, None], dt)
        _, y_rk4 = simulate_linear(ha.system, u)
        np.testing.assert_allclose(y_fast, y_rk4.values, atol=1e-6)


class TestMemorylessBound:
    def test_zero_input(self):
        u = Trajectory(dt=1e-3, values=np.zeros(1001))
        assert memoryless_error_bound(1.0, 1.0, 101, u).values.max() == 0.0

    def test_formula_value(self):
        # constant-slope input: |u'| = 10 everywhere, no curvature, so the
        # bracket is 10 + 10 + 0 = 20 at every sample and the prefactor
        # is 2 * gain * horizon / (pi^2 * (N - 1)) = 2 / (100 pi^2)
        t = np.arange(1001) * 1e-3
        u = Trajectory(dt=1e-3, values=10.0 * t)
        b = memoryless_error_bound(1.0, 1.0, 101, u)
        np.testing.assert_allclose(b.values, 40.0 / (np.pi**2 * 100.0), rtol=1e-10)

    def test_doubling_harmonics_halves_bound(self):
        t = np.arange(1001) * 1e-3
        u = Trajectory(dt=1e-3, values=np.sin(np.pi * t) ** 2)
        b1 = memoryless_error_bound(1.0, 1.0, 101, u)
        b2 = memoryless_error_bound(1.0, 1.0, 201, u)
        np.testing.assert_allclose(b1.values[1:], 2.0 * b2.values[1:], rtol=1e-12)

    def test_nonzero_start_rejected(self):
        u = Trajectory(dt=1e-3, values=np.ones(100))
        with pytest.raises(ValueError, match="u\\(0\\)"):
            memoryless_error_bound(1.0, 1.0, 8, u)

    @pytest.mark.parametrize("horizon", [-1.0, 0.0])
    def test_nonpositive_horizon_rejected(self, horizon):
        u = Trajectory(dt=1e-3, values=np.sin(np.pi * np.arange(1001) * 1e-3) ** 2)
        with pytest.raises(ValueError, match="horizon must be positive"):
            memoryless_error_bound(1.0, horizon, 101, u)

    def test_bound_dominates_measured_error(self):
        dt = 1e-4
        t = np.arange(int(1.0 / dt) + 1) * dt
        u = Trajectory(dt=dt, values=np.sin(np.pi * t) ** 2)
        ha = memoryless_lossless_approx(1.0, 1.0, 16)
        y_bank = ha.zero_state_response(u.values[:, None], dt)[:, 0]
        err = np.abs(u.values - y_bank)
        bound = memoryless_error_bound(1.0, 1.0, 16, u)
        assert np.all(err <= bound.values + 1e-12)
        assert err.max() > 0.01  # the comparison is not vacuous


class TestFourierCoefficients:
    def test_zero_kernel(self):
        g = Trajectory(dt=0.1, values=np.zeros(11))
        a, b = fourier_coefficients(g, 3)
        assert np.all(a == 0.0) and np.all(b == 0.0)

    def test_scalar_kernel_has_no_sine_part(self):
        t = np.arange(0, 1 + 1e-12, 1e-3)
        a, b = fourier_coefficients(Trajectory(dt=1e-3, values=np.exp(-t)), 5)
        assert b.shape == (4, 1, 1)
        assert np.abs(b).max() == 0.0

    def test_exponential_closed_forms(self):
        t = np.arange(0, 1 + 1e-12, 1e-4)
        a, _ = fourier_coefficients(Trajectory(dt=1e-4, values=np.exp(-t)), 3)
        assert a[0, 0, 0] == pytest.approx(2 * (1 - np.exp(-1)), abs=2e-8)
        assert a[1, 0, 0] == pytest.approx(2 * (1 + np.exp(-1)) / (1 + np.pi**2), abs=2e-8)

    def test_matrix_kernel_entries(self):
        t = np.arange(0, 1 + 1e-12, 1e-4)
        vals = np.zeros((len(t), 2, 2))
        vals[:, 0, 0] = np.exp(-t)
        vals[:, 0, 1] = np.exp(-2 * t)
        vals[:, 1, 1] = np.exp(-3 * t)
        a, b = fourier_coefficients(Trajectory(dt=1e-4, values=vals), 2)
        np.testing.assert_allclose(a[1], a[1].T, atol=1e-15)
        np.testing.assert_allclose(b[0], -b[0].T, atol=1e-15)
        # integral of e^{-2t}cos(pi t) and sin(pi t) on [0, 1], closed form
        assert a[1, 0, 1] == pytest.approx(2 * (1 + np.exp(-2)) / (4 + np.pi**2), abs=2e-8)
        assert b[0, 0, 1] == pytest.approx(np.pi * (1 + np.exp(-2)) / (4 + np.pi**2), abs=2e-8)

    def test_harmonic_count_limited_by_grid(self):
        g = Trajectory(dt=0.1, values=np.zeros(5))
        with pytest.raises(ValueError, match="harmonic count"):
            fourier_coefficients(g, 10)


class TestSelectTau:
    def test_exponential_analytic_tail(self, exp_kernel):
        c = 0.1**2 / 2e-3  # makes the threshold exactly 1e-3
        tau = select_tau(exp_kernel, 0.1, 1.0, c, tail=lambda t: np.exp(-t))
        assert tau == pytest.approx(np.log(1000.0), abs=2e-3)

    def test_fitted_tail_agrees(self, exp_kernel):
        c = 0.1**2 / 2e-3
        with_fit = select_tau(exp_kernel, 0.1, 1.0, c)
        with_tail = select_tau(exp_kernel, 0.1, 1.0, c, tail=lambda t: np.exp(-t))
        assert with_fit == pytest.approx(with_tail, abs=2e-3)

    def test_compact_support(self):
        vals = np.concatenate([np.ones(100), np.zeros(401)])
        g = Trajectory(dt=1e-2, values=vals)
        assert select_tau(g, 1.0, 3.0, 1.0, tail=lambda t: 0.0) == pytest.approx(3.0)

    def test_monotone_in_target(self, exp_kernel):
        tight = select_tau(exp_kernel, 0.1, 1.0, 2.7, tail=lambda t: np.exp(-t))
        loose = select_tau(exp_kernel, 0.2, 1.0, 2.7, tail=lambda t: np.exp(-t))
        assert loose <= tight

    def test_window_too_short(self, exp_kernel):
        with pytest.raises(ValueError, match="extend the sample window"):
            select_tau(exp_kernel, 0.005, 1.0, 2.7, tail=lambda t: np.exp(-t))

    def test_undecided_tail_rejected(self):
        t = np.arange(0, 20 + 1e-9, 0.01)
        g = Trajectory(dt=0.01, values=1.0 + 0.1 * np.cos(t))
        with pytest.raises(ValueError, match="tail"):
            select_tau(g, 0.1, 1.0, 2.7)


class TestExponentialPipeline:
    def test_window_and_count(self, exp_pipeline):
        f = exp_pipeline
        assert f.error_constant == pytest.approx(6 / np.pi + 0.8, abs=1e-3)
        assert f.horizon == pytest.approx(6.296, abs=1e-9)
        assert f.n_harmonics == 4623
        assert f.n_harmonics == int(np.floor(f.horizon * f.error_constant**2 / 0.1**2))
        assert f.shift == pytest.approx(0.1**2 / (f.horizon * f.error_constant), rel=1e-12)

    def test_constants(self, exp_pipeline):
        assert exp_pipeline.peak_gain == pytest.approx(1.0)
        assert exp_pipeline.derivative_mass == pytest.approx(1.0, abs=1e-5)
        assert exp_pipeline.kernel_mass == pytest.approx(1.0, abs=1e-5)
        assert exp_pipeline.tail_mass == pytest.approx(np.exp(-6.296), rel=1e-2)

    def test_realization_shape(self, exp_pipeline):
        assert exp_pipeline.system.n == 2 * 4623 - 1
        assert scipy.sparse.issparse(exp_pipeline.system.J)
        assert check_lossless(exp_pipeline.system, trials=0).skew_residual == 0.0

    def test_l2_error_within_target(self, exp_pipeline):
        assert exp_pipeline.l2_error_measured <= 0.1
        assert exp_pipeline.l2_error_measured == pytest.approx(0.0707, abs=2e-3)

    def test_empirical_count_is_tiny(self, exp_pipeline):
        assert exp_pipeline.n_empirical == 6

    def test_build_stores_one_realization(self, exp_kernel, monkeypatch):
        # a build scores the window once and makes only the assembled bank;
        # blocks and n_empirical wait for their first read
        scored, built = [], []
        window_l2, post_init = approx_linear._window_l2, LosslessLinear.__post_init__
        monkeypatch.setattr(approx_linear, "_window_l2",
                            lambda *a: scored.append(1) or window_l2(*a))
        monkeypatch.setattr(LosslessLinear, "__post_init__",
                            lambda self: built.append(1) or post_init(self))
        f = dissipative_lossless_approx(exp_kernel, 0.1, 5.0, tail=lambda t: np.exp(-t))
        assert "blocks" not in vars(f) and "n_empirical" not in vars(f)
        assert len(scored) == 1 and len(built) == 1
        assert f.n_empirical == 6 and len(scored) > 1
        assert f.n_empirical is vars(f)["n_empirical"]

    def test_shifted_residues_psd(self, exp_pipeline):
        assert (exp_pipeline.cos_coefficients[:, 0, 0] + exp_pipeline.shift).min() > 0.0

    def test_coefficient_decay(self, exp_pipeline):
        k = np.arange(exp_pipeline.n_harmonics)
        norms = np.abs(exp_pipeline.cos_coefficients[:, 0, 0])
        assert np.all(norms <= exp_pipeline.error_constant / (2 + k))

    def test_parseval(self, exp_pipeline):
        f = exp_pipeline
        dc = 2 * f.effective_cos[0, 0, 0]
        energy = f.horizon * (dc / 2) ** 2 + (f.horizon / 2) * np.sum(
            f.effective_cos[1:, 0, 0] ** 2 + f.effective_sin[1:, 0, 0] ** 2
        )
        t = np.arange(0, f.horizon + 1e-9, 1e-3)
        gn = f.kernel(t)[:, 0, 0]
        l2sq = np.trapezoid(gn**2, dx=1e-3)
        assert energy == pytest.approx(l2sq, rel=1e-6)

    def test_reversibility_fast_path(self, exp_pipeline):
        t = np.arange(2001) * 1e-3
        u1 = Trajectory(dt=1e-3, values=np.sin(np.pi * t / 2.0) ** 2 * np.cos(3 * t))
        v = check_time_reversible(exp_pipeline, SignatureMatrix.identity(1), u1)
        assert v.reversible
        assert v.max_deviation < 1e-9


class TestTwoPortPipeline:
    def test_kernel_is_reciprocal_and_dissipative(self, twoport_kernel):
        sig = SignatureMatrix(signs=(1, -1))
        assert check_reciprocal(twoport_kernel, sig).reciprocal
        assert check_dissipative(twoport_kernel).dissipative

    def test_reciprocity_propagates_to_coefficients(self, twoport_pipeline):
        sig = SignatureMatrix(signs=(1, -1)).matrix
        shift_eye = twoport_pipeline.shift * np.eye(2)
        for a in twoport_pipeline.cos_coefficients:
            res = np.abs(sig @ (a + shift_eye) - (a + shift_eye).T @ sig).max()
            assert res <= 1e-8
        for b in twoport_pipeline.sin_coefficients:
            assert np.abs(sig @ b - b.T @ sig).max() <= 1e-8

    def test_sine_coefficients_nonzero(self, twoport_pipeline):
        assert np.abs(twoport_pipeline.sin_coefficients).max() > 1e-3

    def test_realization_reverses_with_matching_signature(self, twoport_pipeline):
        t = np.arange(2001) * 1e-3
        pulse = np.sin(np.pi * t / 2.0) ** 2
        u1 = Trajectory(
            dt=1e-3, values=np.stack([pulse * np.cos(3 * t), pulse * np.sin(2 * t)], axis=1)
        )
        good = check_time_reversible(twoport_pipeline, SignatureMatrix(signs=(1, -1)), u1)
        bad = check_time_reversible(twoport_pipeline, SignatureMatrix.identity(2), u1)
        assert good.reversible and good.max_deviation < 1e-9
        assert not bad.reversible and bad.max_deviation > 0.05

    def test_the_convolution_and_state_space_routes_agree(self, twoport_kernel, twoport_pipeline):
        # The record takes the convolution route, its bank the midpoint
        # route.  The first convolves the piecewise-linear input exactly; the
        # second steps the same input, at cubic midpoints, by an O(h^2) rule
        # whose phase error at frequency w is (w h)^2 / 12, about 8e-7 at the
        # input's 3 rad/s and h = 1e-3.  So the non-reversible deviation
        # (0.1718) agrees to 1e-5 relative; measured 5.1e-7.  Both verdicts
        # also agree with the kernel's reciprocity (Onsager).
        t = np.arange(2001) * 1e-3
        pulse = np.sin(np.pi * t / 2.0) ** 2
        u1 = Trajectory(
            dt=1e-3, values=np.stack([pulse * np.cos(3 * t), pulse * np.sin(2 * t)], axis=1)
        )
        for signs in [(1, -1), (1, 1)]:
            sigma = SignatureMatrix(signs=signs)
            record = check_time_reversible(twoport_pipeline, sigma, u1)
            bank = check_time_reversible(twoport_pipeline.system, sigma, u1)
            reciprocal = check_reciprocal(twoport_kernel, sigma).reciprocal
            assert record.reversible == bank.reversible == reciprocal == (signs == (1, -1))
            if signs == (1, 1):
                assert bank.max_deviation == pytest.approx(record.max_deviation, rel=1e-5)

    def test_blocks_play_their_harmonics(self, twoport_pipeline):
        f = twoport_pipeline
        base = np.pi / f.horizon
        for k in list(range(0, f.n_harmonics, 97)) + [f.n_harmonics - 1]:
            blk = f.blocks[k]
            g = impulse_response(blk, f.horizon / 199, 200)
            phase = k * base * g.times
            target = (
                f.effective_cos[k][None] * np.cos(phase)[:, None, None]
                + f.effective_sin[k][None] * np.sin(phase)[:, None, None]
            )
            np.testing.assert_allclose(g.values, target, atol=1e-8)

    def test_l2_within_target(self, twoport_pipeline):
        assert twoport_pipeline.l2_error_measured <= 0.5

    def test_blocks_equal_per_harmonic_realizations(self, twoport_pipeline):
        f = twoport_pipeline
        base = np.pi / f.horizon
        shifted = f.cos_coefficients + f.shift * np.eye(2)
        singles = [realize_harmonic(shifted[0], 0.0)] + [
            realize_harmonic(shifted[k] - 1j * f.sin_coefficients[k - 1], k * base)
            for k in range(1, f.n_harmonics)
        ]
        assert len(f.blocks) == len(singles)
        for blk, single in zip(f.blocks, singles):
            np.testing.assert_array_equal(blk.J, single.J)
            np.testing.assert_array_equal(blk.B, single.B)
        j_all = scipy.linalg.block_diag(*[np.asarray(b.J) for b in singles])
        np.testing.assert_array_equal(scipy.sparse.csr_matrix(f.system.J).toarray(), j_all)
        np.testing.assert_array_equal(f.system.B, np.vstack([b.B for b in singles]))
        for k, blk in enumerate(singles):
            rank = blk.n // 2
            p_part, q_part = blk.B[:rank], -blk.B[rank:]
            cos_k = blk.B.T @ blk.B if k == 0 else p_part.T @ p_part + q_part.T @ q_part
            sin_k = 0.0 if k == 0 else q_part.T @ p_part - p_part.T @ q_part
            np.testing.assert_allclose(f.effective_cos[k], cos_k, rtol=0, atol=1e-15)
            np.testing.assert_allclose(f.effective_sin[k], sin_k, rtol=0, atol=1e-15)

    def test_scalar_bank_blocks_are_read_only_skew_realizations(self, exp_pipeline):
        f = exp_pipeline
        base = np.pi / f.horizon
        shifted = f.cos_coefficients + f.shift
        residues = [shifted[0]] + [shifted[k] - 1j * f.sin_coefficients[k - 1]
                                   for k in range(1, f.n_harmonics)]
        assert len(f.blocks) == f.n_harmonics
        for k, (blk, residue) in enumerate(zip(f.blocks, residues)):
            j, b = np.asarray(blk.J), blk.B
            assert not j.flags.writeable and not b.flags.writeable
            assert not np.any(j + j.T)
            single = realize_harmonic(residue, k * base)
            for mine, theirs in ((j, single.J), (b, single.B), (blk.D, single.D)):
                assert mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes()

    def test_indefinite_residue_rejected_as_by_realize_harmonic(self):
        residues = np.array([[[2.0, 0.0], [0.0, 1.0]], [[1.0, 2.0], [2.0, 1.0]],
                             [[1.0, 0.0], [0.0, -0.5]]], dtype=complex)
        with pytest.raises(ValueError) as single:
            realize_harmonic(residues[1], 2.0)
        with pytest.raises(ValueError, match=re.escape(str(single.value))):
            _realize_bank(np.eye(2), residues, 1.0)


def _direct_sum(series, t):
    """Reference: the series summed term by term at each time."""
    phase = np.outer(t, series.omegas)
    return (np.einsum("ik,kqp->iqp", np.cos(phase), series.cos_part)
            + np.einsum("ik,kqp->iqp", np.sin(phase), series.sin_part))


def _reference_convolution(series, u, dt):
    """The exact convolution of the piecewise-linear interpolant of u with
    the series, by 16-point Gauss-Legendre on every sample interval."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    frac, weights = (nodes + 1.0) / 2.0, weights / 2.0
    y = np.zeros((len(u), series.cos_part.shape[1]))
    for i in range(1, len(u)):
        j = np.arange(i)
        s = (j[:, None] + frac) * dt  # (i, nodes)
        us = u[j, None] + frac[None, :, None] * (u[j + 1] - u[j])[:, None]
        g = _direct_sum(series, (i * dt - s).ravel()).reshape(s.shape + series.cos_part.shape[1:])
        y[i] = dt * np.einsum("n,jnqp,jnp->q", weights, g, us)
    return y


def _twoport_series(n_harmonics, tau, seed=3):
    rng = np.random.default_rng(seed)
    decay = (1.0 + np.arange(n_harmonics))[:, None, None]
    cos_part = rng.standard_normal((n_harmonics, 2, 2)) / decay
    sin_part = rng.standard_normal((n_harmonics, 2, 2)) / decay
    sin_part[0] = 0.0
    return _HarmonicSeries(base=np.pi / tau, cos_part=cos_part, sin_part=sin_part)


class TestSpectralSeries:
    """Grid evaluation by FFT and the hat-weight convolution, against
    term-by-term references.  The window tau = 0.5 has W = 25 steps."""

    TAU, W = 0.5, 25

    @pytest.mark.parametrize("n_harmonics", [20, 40, 60])  # N <= W, N > W, N > 2W (folded)
    def test_grid_matches_direct_sum_past_two_windows(self, n_harmonics):
        series = _twoport_series(n_harmonics, self.TAU)
        t = np.arange(3 * self.W + 7) * (self.TAU / self.W)  # beyond tau and 2 tau
        assert series._grid_divisions(t) == self.W
        scale = np.abs(series.cos_part).sum() + np.abs(series.sin_part).sum()
        np.testing.assert_allclose(series.evaluate(t), _direct_sum(series, t),
                                   rtol=0, atol=1e-14 * scale)

    def test_linspace_grid_takes_the_transform(self):
        series = _twoport_series(20, self.TAU)
        t = np.linspace(0.0, 1.2, 61)
        assert series._grid_divisions(t) == self.W
        np.testing.assert_allclose(series.evaluate(t), _direct_sum(series, t), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("times", [
        np.arange(60) * 0.02 * (1 + 1e-9),      # step a hair off the window's divisor
        np.arange(1, 61) * 0.02,                # does not start at 0
        np.sort(np.random.default_rng(5).uniform(0.0, 1.2, 60)),
        np.arange(60) * 0.0195,                 # tau / h is not an integer
    ])
    def test_off_grid_times_take_the_blocked_sum(self, times):
        series = _twoport_series(20, self.TAU)
        assert series._grid_divisions(times) == 0
        error = np.abs(series.evaluate(times) - _fsum_series(series, times))
        assert np.all(error <= _offgrid_tolerance(series, times))

    @pytest.mark.parametrize("n_harmonics", [20, 60])
    @pytest.mark.parametrize("dt", [0.02, 0.0195])  # window on the grid (FFT weights), and off it
    @pytest.mark.parametrize("reverse", [False, True])
    def test_convolution_is_exact_for_the_interpolant(self, n_harmonics, dt, reverse):
        series = _twoport_series(n_harmonics, self.TAU)
        rng = np.random.default_rng(11)
        u = rng.standard_normal((45, 2))
        y = series.convolve(u, dt, reverse=reverse)
        ref = _reference_convolution(series.transposed() if reverse else series, u, dt)
        np.testing.assert_allclose(y, ref, rtol=0, atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("a", [1e-6, 1e-7, 1e-8])
    def test_convolution_keeps_precision_at_small_w_dt(self, a):
        # Kernel 1/tau + (2/tau) cos(w t) with w dt = a, input u = t: the
        # response is t^2 / (2 tau) + (4/tau) sin^2(w t / 2) / w^2.
        dt = 1e-3
        bank = memoryless_lossless_approx(1.0, np.pi * dt / a, 2)
        w, tau = bank.base_frequency, bank.horizon
        t = np.arange(1001) * dt
        y = bank.zero_state_response(t, dt)[:, 0]
        exact = t**2 / (2 * tau) + (4 / tau) * np.sin(w * t / 2) ** 2 / w**2
        assert np.abs(y - exact).max() <= 1e-12 * np.abs(exact).max()


def _fsum_series(series, t):
    """Reference: every entry of the series summed exactly by `math.fsum`,
    one time at a time, each phase k w0 t rounded once."""
    c, s = series.cos_part, series.sin_part
    out = np.empty((len(t),) + c.shape[1:])
    for i, ti in enumerate(t):
        phase = series.omegas * ti
        cos, sin = np.cos(phase), np.sin(phase)
        for q, p in np.ndindex(*c.shape[1:]):
            out[i, q, p] = math.fsum(np.concatenate([c[:, q, p] * cos, s[:, q, p] * sin]))
    return out


def _offgrid_tolerance(series, t):
    """Entrywise bound on |evaluate - reference| off the grid.

    Blocked angle addition rounds the phase of harmonic k in two parts,
    (k0 w0) t and (j w0) t, each within eps of its size, where the
    reference rounds k w0 t once: the phases then differ by at most
    2 eps k w0 |t|, and term k by 2 eps k w0 |t| (|C_k| + |S_k|).  The
    cosines, sines, products and the sums over L and N / L terms add at
    most N eps sum_k (|C_k| + |S_k|).
    """
    eps = np.finfo(float).eps
    weight = np.abs(series.cos_part) + np.abs(series.sin_part)
    k = np.arange(len(weight))[:, None, None]
    return (2 * eps * series.base * np.abs(np.asarray(t))[:, None, None] * (k * weight).sum(axis=0)
            + len(weight) * eps * weight.sum(axis=0))


def _offgrid_times(tau, case):
    rng = np.random.default_rng(17)
    if case == "unsorted":  # includes 0 and times past 2 tau
        return rng.permutation(np.concatenate([[0.0, 2.2 * tau, 3.1 * tau],
                                               rng.uniform(0.0, 3.0 * tau, 47)]))
    return {"zero": np.array([0.0]), "single": np.array([1.37 * tau]), "none": np.zeros(0)}[case]


class TestOffGridSeries:
    """Off-grid times, which take blocked angle addition, against the
    `math.fsum` reference.  "blocked" shrinks `CHUNK_ELEMENTS` so that the
    phase tables hold a few times each, with chunk boundaries inside the
    time array."""

    @pytest.fixture(params=["default", "blocked"])
    def chunking(self, request, monkeypatch):
        if request.param == "blocked":
            monkeypatch.setattr(_util, "CHUNK_ELEMENTS", 40)
        return request.param

    @pytest.mark.parametrize("case", ["unsorted", "zero", "single", "none"])
    def test_scalar_bank(self, exp_pipeline, chunking, case):
        series = exp_pipeline._series()
        t = _offgrid_times(exp_pipeline.horizon, case)
        if case == "unsorted":  # and times far past the window
            t = np.concatenate([t, np.random.default_rng(2).uniform(0.0, 20.0, 100)])
        assert series._grid_divisions(t) == 0
        y = exp_pipeline.kernel(t)
        assert y.shape == (t.size, 1, 1)
        assert np.all(np.abs(y - _fsum_series(series, t)) <= _offgrid_tolerance(series, t))

    @pytest.mark.parametrize("n_harmonics", [1, 37, 300])  # DC only; N = 37, 300 not multiples of L
    @pytest.mark.parametrize("case", ["unsorted", "zero", "single", "none"])
    def test_twoport_series(self, chunking, n_harmonics, case):
        series = _twoport_series(n_harmonics, 0.5)
        t = _offgrid_times(0.5, case)
        y = series.evaluate(t)
        assert y.shape == (t.size, 2, 2)
        assert np.all(np.abs(y - _fsum_series(series, t)) <= _offgrid_tolerance(series, t))

    def test_empty_bank_gives_zeros(self, chunking):
        z = dissipative_lossless_approx(Trajectory(dt=0.01, values=np.zeros((500, 2, 2))), 0.5, 2.0)
        t = _offgrid_times(2.0, "unsorted")
        y = z.kernel(t)
        assert y.shape == (t.size, 2, 2)
        assert not y.any()

    def test_memory_stays_chunked(self):
        rng = np.random.default_rng(4)
        series = _HarmonicSeries(base=np.pi / 6.296, cos_part=rng.standard_normal((4623, 1, 1)),
                                 sin_part=rng.standard_normal((4623, 1, 1)))
        t = np.sort(rng.uniform(0.0, 5.0, 5001))
        tracemalloc.start()
        try:
            series.evaluate(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestRealizeHarmonic:
    def test_scalar_cosine(self):
        blk = realize_harmonic(np.array([[2.0]]), 1.0)
        g = impulse_response(blk, 0.01, 300)
        np.testing.assert_allclose(g.values[:, 0, 0], 2 * np.cos(g.times), atol=1e-12)

    def test_complex_rank_one(self):
        blk = realize_harmonic(np.array([[1.0, -1j], [1j, 1.0]]), 1.0)
        assert blk.n == 2  # rank-1 residue needs a single oscillating pair
        g = impulse_response(blk, 0.01, 300)
        target = (
            np.cos(g.times)[:, None, None] * np.eye(2)
            + np.sin(g.times)[:, None, None] * np.array([[0.0, 1.0], [-1.0, 0.0]])
        )
        np.testing.assert_allclose(g.values, target, atol=1e-12)

    def test_zero_residue_gives_empty_block(self):
        assert realize_harmonic(np.zeros((2, 2)), 3.0).n == 0

    def test_dc_block(self):
        blk = realize_harmonic(np.array([[3.0]]), 0.0)
        np.testing.assert_allclose(blk.B.T @ blk.B, [[1.5]])
        assert np.all(np.asarray(blk.J) == 0.0)

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            realize_harmonic(np.array([[-1.0]]), 1.0)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            realize_harmonic(np.array([[1.0, 1.0], [0.0, 1.0]]), 1.0)

    def test_nonzero_initial_state_is_visible(self):
        # the bank is meant to start at rest: any nonzero start leaks into
        # the output, so there is no hidden-state freedom to exploit
        blk = realize_harmonic(np.array([[2.0]]), 1.0)
        _, y = simulate_linear(blk, None, x0=[1.0, 0.0], dt=1e-2, horizon=3.0)
        assert np.abs(y.values).max() > 0.5


class TestPipelineEdges:
    def test_zero_kernel(self):
        z = dissipative_lossless_approx(Trajectory(dt=0.01, values=np.zeros(500)), 0.5, 2.0)
        assert z.system.n == 0
        assert z.n_harmonics == 0
        assert z.l2_error_measured == 0.0
        assert z.n_empirical == 0
        assert z.blocks == ()

    def test_a_harmonic_with_a_zero_residue_is_an_empty_block(self):
        cos = np.array([[[1.0]], [[0.0]], [[2.0]]])
        f = FourierLosslessApprox(
            horizon=2.0, n_harmonics=3, shift=0.0, target_error=0.1,
            cos_coefficients=cos, sin_coefficients=0 * cos[1:], peak_gain=1.0,
            derivative_mass=1.0, kernel_mass=1.0, error_constant=1.0, tail_mass=0.0,
            system=_realize_bank(cos[0], cos[1:], np.pi / 2.0)[0], effective_cos=cos / 2,
            effective_sin=0 * cos,
            window=Trajectory(dt=0.5, values=np.zeros((5, 1, 1))), l2_error_measured=0.0,
        )
        assert [blk.n for blk in f.blocks] == [1, 0, 2]
        for k, blk in enumerate(f.blocks):
            single = realize_harmonic(cos[k], k * np.pi / 2.0)
            assert np.asarray(blk.J).tobytes() == single.J.tobytes()
            assert blk.B.shape == single.B.shape and blk.B.tobytes() == single.B.tobytes()

    def test_no_empirical_count_past_the_target(self):
        # a record whose full bank misses the target has no partial bank that meets it
        one = np.ones((2, 1, 1))
        f = FourierLosslessApprox(
            horizon=1.0, n_harmonics=2, shift=0.0, target_error=0.1,
            cos_coefficients=one, sin_coefficients=0 * one[:1], peak_gain=1.0,
            derivative_mass=1.0, kernel_mass=1.0, error_constant=1.0, tail_mass=0.0,
            system=_realize_bank(one[0], one[1:], np.pi)[0], effective_cos=one / 2,
            effective_sin=0 * one,
            window=Trajectory(dt=0.5, values=np.zeros((3, 1, 1))), l2_error_measured=0.2,
        )
        assert f.n_empirical is None
        assert [blk.n for blk in f.blocks] == [1, 2]

    def test_non_dissipative_rejected(self, exp_kernel):
        flipped = Trajectory(dt=exp_kernel.dt, values=-exp_kernel.values)
        with pytest.raises(ValueError, match="positive-realness"):
            dissipative_lossless_approx(flipped, 0.1, 5.0, tail=lambda t: np.exp(-t))

    def test_state_budget_rejection(self, exp_kernel):
        with pytest.raises(ValueError, match="budget"):
            dissipative_lossless_approx(exp_kernel, 0.03, 5.0, tail=lambda t: np.exp(-t))

    def test_fast_response_matches_rk4_on_dense_bank(self, exp_kernel):
        f = dissipative_lossless_approx(exp_kernel, 0.5, 2.0, tail=lambda t: np.exp(-t))
        assert not scipy.sparse.issparse(f.system.J)
        dt = 1e-3
        t = np.arange(int(1.0 / dt) + 1) * dt
        u = Trajectory(dt=dt, values=np.sin(np.pi * t) ** 2)
        y_fast = f.zero_state_response(u.values[:, None], dt)
        _, y_rk4 = simulate_linear(f.system, u)
        np.testing.assert_allclose(y_fast, y_rk4.values, atol=1e-5)


class TestL2Error:
    def test_identical(self):
        g = Trajectory(dt=0.1, values=np.ones(11))
        assert l2_error(g, g) == 0.0

    def test_unit_gap(self):
        a = Trajectory(dt=0.01, values=np.ones(101))
        b = Trajectory(dt=0.01, values=np.zeros(101))
        assert l2_error(a, b) == pytest.approx(1.0)

    def test_window_argument(self):
        a = Trajectory(dt=0.01, values=np.ones(401))
        b = Trajectory(dt=0.01, values=np.zeros(401))
        assert l2_error(a, b, horizon=1.0) == pytest.approx(1.0)

    def test_negative_window_rejected(self):
        # at -0.5 the window length would index from the end, [0, 0.501]
        a = Trajectory(dt=1e-3, values=np.exp(-np.arange(1001) * 1e-3))
        b = Trajectory(dt=1e-3, values=np.zeros(1001))
        with pytest.raises(ValueError, match="horizon must be nonnegative"):
            l2_error(a, b, horizon=-0.5)
        assert l2_error(a, b, horizon=0.0) == 0.0

    def test_grid_mismatch(self):
        a = Trajectory(dt=0.01, values=np.ones(11))
        b = Trajectory(dt=0.02, values=np.ones(11))
        with pytest.raises(ValueError, match="step"):
            l2_error(a, b)
