"""Tests for thermal ensembles, the FDT machinery, and Langevin paths.

Statistical assertions run at fixed seeds, so they are deterministic;
tolerances are quoted in Monte-Carlo standard errors where the estimate
is stochastic (equipartition within 3, kernel deviations within 5) and
as exact identities where the math is exact (the analytic kernel versus
the impulse response, the closed-form noise decomposition).
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from lossless import dissipative_lossless_approx, memoryless_lossless_approx
from lossless.approx_linear import factor_psd
from lossless._util import derive_rng, expm
from lossless.statespace import (
    LosslessLinear,
    Trajectory,
    impulse_response,
    integrate_ode,
    lc_ladder,
    matrix_exponential,
    simulate_linear,
)
from lossless.thermal import (
    BOLTZMANN_SI,
    LangevinModel,
    ThermalEnsemble,
    analytic_fluctuation_covariance,
    empirical_fdt_check,
    internal_energy,
    johnson_nyquist_intensity,
    nonlinear_thermal_decompose,
    sample_gibbs,
    sample_johnson_noise,
    simulate_langevin,
    supply_noise_variance,
    _exact_step,
    _transient_maps,
)


class TestThermalEnsemble:
    def test_zero_temperature_collapses_to_the_mean(self):
        ens = ThermalEnsemble(temperature=0.0, dimension=2, mean=[1.0, -3.0], seed=5)
        xs = sample_gibbs(ens, 100)
        assert np.all(xs == np.array([1.0, -3.0]))

    def test_equipartition(self):
        # mean internal energy n k_B T / 2 = 3, with SE k_B T sqrt(n/2) / sqrt(M)
        ens = ThermalEnsemble(temperature=2.0, dimension=3, seed=11)
        xs = sample_gibbs(ens, 100_000)
        se = 2.0 * np.sqrt(1.5) / np.sqrt(100_000)
        assert abs(internal_energy(xs).mean() - 3.0) <= 3 * se

    def test_empirical_covariance(self):
        ens = ThermalEnsemble(temperature=2.0, dimension=3, seed=11)
        xs = sample_gibbs(ens, 100_000)
        cov = xs.T @ xs / xs.shape[0]
        assert np.abs(cov - 2.0 * np.eye(3)).max() <= 0.05 * 2.0

    def test_empty_draw(self):
        ens = ThermalEnsemble(temperature=1.0, dimension=2)
        assert sample_gibbs(ens, 0).shape == (0, 2)

    def test_si_preset_scale(self):
        ens = ThermalEnsemble(temperature=BOLTZMANN_SI * 300.0, dimension=1, seed=1)
        assert ens.state_variance == pytest.approx(300.0 * 1.380649e-23)

    def test_validation(self):
        with pytest.raises(ValueError, match="temperature"):
            ThermalEnsemble(temperature=-1.0, dimension=2)
        with pytest.raises(ValueError, match="dimension"):
            ThermalEnsemble(temperature=1.0, dimension=0)
        with pytest.raises(ValueError, match="mean"):
            ThermalEnsemble(temperature=1.0, dimension=2, mean=[1.0])
        with pytest.raises(ValueError, match="count"):
            sample_gibbs(ThermalEnsemble(temperature=1.0, dimension=1), -1)


class TestInternalEnergy:
    def test_at_the_mean(self):
        assert internal_energy([2.0, 1.0], [2.0, 1.0]) == 0.0

    def test_three_four_five(self):
        assert internal_energy([3.0, 4.0], [0.0, 0.0]) == 12.5

    def test_default_mean_is_zero(self):
        assert internal_energy([3.0, 4.0]) == 12.5

    def test_ensemble_mean_at_unit_temperature(self):
        ens = ThermalEnsemble(temperature=1.0, dimension=4, seed=2)
        xs = sample_gibbs(ens, 100_000)
        se = np.sqrt(2.0) / np.sqrt(100_000)
        assert abs(internal_energy(xs).mean() - 2.0) <= 3 * se


class TestAnalyticKernel:
    def test_zero_lag_is_gram_matrix(self):
        sys = lc_ladder()
        out = analytic_fluctuation_covariance(sys, 3.0, 1.3, 1.3)
        np.testing.assert_allclose(out, 3.0 * sys.B.T @ sys.B, atol=1e-15)

    def test_zero_temperature(self):
        assert np.all(analytic_fluctuation_covariance(lc_ladder(), 0.0, 1.0, 0.5) == 0.0)

    def test_matches_impulse_response_exactly(self):
        sys = lc_ladder()
        g = impulse_response(sys, 0.37, 2)
        forward = analytic_fluctuation_covariance(sys, 1.3, 2.37, 2.0)
        backward = analytic_fluctuation_covariance(sys, 1.3, 2.0, 2.37)
        np.testing.assert_allclose(forward, 1.3 * g.values[1], atol=1e-12)
        np.testing.assert_allclose(backward, 1.3 * g.values[1].T, atol=1e-12)

    @pytest.mark.parametrize("t", [-0.1, math.nan, math.inf])
    @pytest.mark.parametrize("bank", [False, True])
    def test_negative_times_rejected(self, t, bank):
        # a rotation-block bank and a dense J, checked before any map is taken
        sys = memoryless_lossless_approx(1.0, 1.0, 4).system if bank else lc_ladder()
        with pytest.raises(ValueError, match=f"t must be nonnegative, got {t}"):
            analytic_fluctuation_covariance(sys, 1.0, t, 0.0)
        with pytest.raises(ValueError, match=f"s must be nonnegative, got {t}"):
            analytic_fluctuation_covariance(sys, 1.0, 0.0, t)

    def test_stacked_maps_equal_one_expm_per_time(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 6))
        two_port = LosslessLinear(J=a - a.T, B=rng.standard_normal((6, 2)))
        times = np.linspace(0.0, 4.9, 50)
        for sys in (lc_ladder(), two_port):
            expected = [sys.B.T @ matrix_exponential(sys.J * t) for t in times]
            np.testing.assert_array_equal(_transient_maps(sys, times), expected)


class TestBankScaleFdt:
    """The transient maps of rotation blocks (every bank) are closed forms.

    Against the batched `expm` they differ by the rounding of each phase,
    about eps w t |b| per entry; on the 813-state dense bank that is 69 eps
    at w t <= 1250.  Above 2000 states a bank's J is CSR, which `expm`
    cannot take; 4000 states run in milliseconds.
    """

    @staticmethod
    def _sparse_bank():
        bank = memoryless_lossless_approx([[1.0]], 10.0, 2000).system
        assert scipy.sparse.issparse(bank.J) and bank.n == 3999
        return bank

    def test_dense_bank_maps_match_expm(self):
        t = np.arange(10001) * 1e-3
        g = Trajectory(dt=1e-3, values=np.exp(-t))
        bank = dissipative_lossless_approx(g, 0.3, 5.0, tail=lambda s: np.exp(-s)).system
        assert bank.n == 813
        times = np.array([0.37, 4.9])
        expected = bank.B.T @ expm(np.asarray(bank.J) * times[:, None, None])
        w_max = np.abs(np.asarray(bank.J)).max()
        bound = np.finfo(float).eps * (1.0 + w_max * times.max()) * np.abs(bank.B).max()
        np.testing.assert_allclose(_transient_maps(bank, times), expected, rtol=0, atol=bound)

    def test_sparse_bank_covariance_within_a_time_budget(self):
        bank = self._sparse_bank()
        start = time.perf_counter()
        forward = analytic_fluctuation_covariance(bank, 1.3, 2.37, 2.0)
        backward = analytic_fluctuation_covariance(bank, 1.3, 2.0, 2.37)
        elapsed = time.perf_counter() - start
        g = impulse_response(bank, 0.37, 2).values[1]
        w = np.abs(bank.J).max()
        bound = 16 * np.finfo(float).eps * (1.0 + w * 0.37) * 1.3 * np.sum(bank.B**2)
        np.testing.assert_allclose(forward, 1.3 * g, rtol=0, atol=bound)
        np.testing.assert_allclose(backward, 1.3 * g.T, rtol=0, atol=bound)
        assert elapsed < 1.0

    def test_sparse_bank_fdt_check_within_a_time_budget(self):
        bank = self._sparse_bank()
        start = time.perf_counter()
        report = empirical_fdt_check(bank, 1.0, 2000, np.linspace(0.0, 1.0, 5), seed=1)
        elapsed = time.perf_counter() - start
        assert report.empirical.shape == (5, 1, 5, 1)
        assert report.max_normalized_deviation <= 5.0
        assert elapsed < 3.0


class TestEmpiricalFdt:
    def test_lc_circuit_within_five_standard_errors(self):
        report = empirical_fdt_check(lc_ladder(), 1.0, 100_000, np.linspace(0, 4.9, 50), seed=3)
        assert report.max_normalized_deviation <= 5.0
        assert report.empirical.shape == (50, 1, 50, 1)

    def test_kernel_is_stationary(self):
        report = empirical_fdt_check(lc_ladder(), 1.0, 100_000, np.linspace(0, 4.9, 50), seed=3)
        assert report.stationarity_normalized <= 5.0

    def test_zero_temperature_is_exact(self):
        report = empirical_fdt_check(lc_ladder(), 0.0, 1000, np.linspace(0, 2, 10), seed=0)
        assert report.max_abs_deviation == 0.0
        assert report.max_normalized_deviation == 0.0

    def test_nonuniform_grid_skips_stationarity(self):
        report = empirical_fdt_check(lc_ladder(), 1.0, 2000, [0.0, 0.1, 0.5], seed=0)
        assert np.isnan(report.stationarity_normalized)
        assert report.max_normalized_deviation <= 5.0

    def test_mean_response_superposes_independent_of_temperature(self):
        # with a deterministic drive the ensemble-mean output is the
        # convolution alone; the residual is the propagated sample mean
        # of x0, which scales exactly as sqrt(T) at a shared seed
        sys = lc_ladder()
        t = np.arange(501) * 1e-2
        u = Trajectory(dt=1e-2, values=np.sin(np.pi * t / 2.5) ** 2)
        _, y_det = simulate_linear(sys, u)

        def mean_response(temperature):
            ens = ThermalEnsemble(temperature=temperature, dimension=3, seed=21)
            total = np.zeros(len(t))
            for x0 in sample_gibbs(ens, 200):
                _, y = simulate_linear(sys, u, x0=x0)
                total += y.values[:, 0]
            return total / 200

        dev1 = np.abs(mean_response(1.0) - y_det.values[:, 0]).max()
        dev4 = np.abs(mean_response(4.0) - y_det.values[:, 0]).max()
        assert dev1 <= 5.0 / np.sqrt(200)
        assert dev4 <= 5.0 * 2.0 / np.sqrt(200)
        assert dev4 == pytest.approx(2.0 * dev1, rel=1e-9)

    def test_temperature_persists_under_lossless_flow(self):
        # e^{Jt} is orthogonal, so the Gibbs covariance k_B T I is a
        # fixed point: exactly as a matrix identity, and statistically
        # for rotated samples
        sys = lc_ladder()
        rot = scipy.linalg.expm(np.asarray(sys.J) * 1.7)
        assert np.abs(rot @ rot.T - np.eye(3)).max() <= 1e-12
        assert np.abs(rot @ (2.0 * np.eye(3)) @ rot.T - 2.0 * np.eye(3)).max() <= 1e-12
        xs = sample_gibbs(ThermalEnsemble(temperature=2.0, dimension=3, seed=11), 100_000)
        rotated = xs @ rot.T
        cov = rotated.T @ rotated / xs.shape[0]
        assert np.abs(cov - 2.0 * np.eye(3)).max() <= 0.02

    def test_validation(self):
        with pytest.raises(ValueError, match="trials"):
            empirical_fdt_check(lc_ladder(), 1.0, 0, [0.0, 1.0], seed=0)
        with pytest.raises(ValueError, match="nonnegative"):
            empirical_fdt_check(lc_ladder(), 1.0, 10, [-1.0, 1.0], seed=0)


class TestLangevin:
    def test_zero_temperature_zero_input_stays_at_rest(self):
        model = LangevinModel(J=[[0.0]], K=[[1.0]], B=[[1.0]], temperature=0.0)
        tr = simulate_langevin(model, None, None, 0.01, 10.0, seed=0)
        assert np.all(tr.values == 0.0)

    def test_ou_stationary_variance(self):
        # J=0, K=1: the classic Ornstein-Uhlenbeck process with
        # stationary variance 2 k_B T / (2 K) = k_B T
        model = LangevinModel(J=[[0.0]], K=[[1.0]], B=[[1.0]], temperature=1.0)
        tr = simulate_langevin(model, None, None, 0.02, 2000.0, seed=3)
        settled = tr.values[5000:, 0]
        assert settled.var() == pytest.approx(1.0, rel=0.05)

    def test_stationary_covariance_is_gibbs(self):
        # (J-K) X + X (J-K)^T + 2 k_B T K = 0 is solved by X = k_B T I
        # for every J, K: the Langevin flow preserves the ensemble
        model = LangevinModel(
            J=[[0.0, 1.0], [-1.0, 0.0]], K=np.diag([1.0, 0.5]), B=np.eye(2), temperature=0.7
        )
        tr = simulate_langevin(model, None, None, 0.02, 4000.0, seed=4)
        settled = tr.values[10_000:]
        cov = settled.T @ settled / settled.shape[0]
        assert np.abs(np.diag(cov) - 0.7).max() <= 0.05 * 0.7
        assert abs(cov[0, 1]) <= 0.05 * 0.7

    def test_deterministic_given_seed(self):
        model = LangevinModel(J=[[0.0]], K=[[1.0]], B=[[1.0]], temperature=1.0)
        a = simulate_langevin(model, None, None, 0.01, 10.0, seed=9)
        b = simulate_langevin(model, None, None, 0.01, 10.0, seed=9)
        assert np.array_equal(a.values, b.values)

    def test_deterministic_drive_shifts_the_mean(self):
        model = LangevinModel(J=[[0.0]], K=[[1.0]], B=[[1.0]], temperature=0.0)
        tr = simulate_langevin(model, lambda t: 1.0, None, 1e-3, 5.0, seed=0)
        # zero temperature: the ODE x' = -x + 1 from x = 0, stepped exactly, so
        # the path ends at 1 - e^{-5}
        assert tr.values[-1, 0] == pytest.approx(1.0, abs=1e-2)

    def test_a_long_step_stays_stationary(self):
        # the exact step is stable at any dt; at dt = 2.5 the lag-one
        # correlation e^{-2.5} leaves 2000 nearly independent samples, a
        # variance standard error of about 3.2%
        model = LangevinModel(J=[[0.0]], K=[[1.0]], B=[[1.0]], temperature=1.0)
        tr = simulate_langevin(model, None, None, 2.5, 5000.0, seed=0)
        assert np.isfinite(tr.values).all()
        assert tr.values[1:, 0].var() == pytest.approx(1.0, rel=0.1)

    @pytest.mark.parametrize("dt", [1e-3, 1e-2, 0.1, 1.0, 2.5])
    @pytest.mark.parametrize("rank", [3, 1, 0])
    def test_the_exact_step_keeps_the_gibbs_covariance(self, dt, rank):
        # Phi (k_B T I) Phi^T + Sigma = k_B T I to rounding, with Phi = I + E,
        # for a full, a rank-one and a zero K; K = 0 has Sigma = 0 exactly
        rng = np.random.default_rng(40)
        m, ell = rng.standard_normal((3, 3)), rng.standard_normal((3, rank))
        kbt = 0.7
        model = LangevinModel(J=m - m.T, K=ell @ ell.T, B=np.eye(3)[:, :1], temperature=kbt)
        e, _, sigma = _exact_step(model, dt)
        phi = np.eye(3) + e
        deviation = np.abs(kbt * phi @ phi.T + sigma - kbt * np.eye(3)).max()
        assert deviation <= 4 * np.finfo(float).eps * kbt
        if rank == 0:
            assert np.all(sigma == 0.0)

    def test_matches_the_per_step_exact_map(self):
        # a per-step loop of the exact map on the same kicks: Phi = e^{A dt},
        # Gamma = A^-1 (Phi - I) B for the held input, Sigma = k_B T (I - Phi Phi^T)
        model = LangevinModel(
            J=[[0.0, 1.0], [-1.0, 0.0]], K=np.diag([1.0, 0.5]), B=np.eye(2)[:, :1], temperature=0.7
        )
        dt, steps = 0.01, 2000
        tr = simulate_langevin(model, lambda t: np.sin(t), [1.0, -0.5], dt, steps * dt, seed=6)
        a = model.J - model.K
        phi = scipy.linalg.expm(a * dt)
        gamma = np.linalg.solve(a, (phi - np.eye(2)) @ model.B[:, 0])
        factor = factor_psd(0.7 * (np.eye(2) - phi @ phi.T))
        kicks = derive_rng(6).standard_normal((steps, factor.shape[0]))
        x, expected = np.array([1.0, -0.5]), [np.array([1.0, -0.5])]
        for k in range(steps):
            x = phi @ x + gamma * np.sin(k * dt) + kicks[k] @ factor
            expected.append(x)
        expected = np.array(expected)
        np.testing.assert_allclose(tr.values, expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    def test_dt_must_match_a_sampled_input(self):
        model = LangevinModel(J=[[0.0]], K=[[1.0]], B=[[1.0]], temperature=1.0)
        u = Trajectory(dt=0.01, values=np.ones(101))
        with pytest.raises(ValueError, match="sample step"):
            simulate_langevin(model, u, None, 0.02, 1.0, seed=0)
        assert simulate_langevin(model, u, None, 0.01, 1.0, seed=0).n_samples == 101

    @pytest.mark.parametrize("dt, horizon", [(-0.1, -1.0), (math.nan, 1.0)])
    def test_a_negative_or_nan_step_is_rejected(self, dt, horizon):
        # named, not a math domain error or a NaN-to-int conversion
        model = LangevinModel(J=[[0.0]], K=[[1.0]], B=[[1.0]], temperature=1.0)
        with pytest.raises(ValueError, match="dt must be positive"):
            simulate_langevin(model, None, None, dt, horizon, seed=0)

    def test_factor_is_checked(self):
        with pytest.raises(ValueError, match="antisymmetric"):
            LangevinModel(J=[[1.0]], K=[[1.0]], B=[[1.0]], temperature=1.0)

    def test_lossless_model_runs_noise_free(self):
        # K = 0 means no dissipation, hence no fluctuation channel: the
        # exact step is the rotation e^{J dt}, which conserves the energy
        # to rounding, and the seed changes nothing
        sys = lc_ladder()
        model = LangevinModel(J=np.asarray(sys.J), K=np.zeros((3, 3)), B=sys.B, temperature=5.0)
        tr = simulate_langevin(model, None, [1.0, 0.0, 0.0], 1e-3, 1.0, seed=0)
        energy = 0.5 * np.sum(tr.values**2, axis=1)
        assert energy[0] == 0.5
        assert np.abs(energy - 0.5).max() <= 1e-13
        again = simulate_langevin(model, None, [1.0, 0.0, 0.0], 1e-3, 1.0, seed=1)
        assert np.array_equal(tr.values, again.values)


class TestJohnsonNyquist:
    def test_zero_temperature(self):
        assert np.all(johnson_nyquist_intensity(1.0, 0.0) == 0.0)

    def test_unit_resistor(self):
        np.testing.assert_allclose(johnson_nyquist_intensity(1.0, 1.0), [[2.0]])

    def test_si_units(self):
        out = johnson_nyquist_intensity(50.0, BOLTZMANN_SI * 300.0)
        assert out[0, 0] == pytest.approx(2 * 1.380649e-23 * 300 * 50)

    def test_discretized_variance(self):
        tr = sample_johnson_noise(1.0, 1.0, dt=0.01, steps=100_000, seed=5)
        assert tr.values.var() == pytest.approx(2.0 / 0.01, rel=0.05)

    def test_matrix_intensity_shared_across_ports(self):
        ks = np.array([[2.0, 1.0], [1.0, 2.0]])
        tr = sample_johnson_noise(ks, 0.5, dt=0.1, steps=200_000, seed=6)
        cov = tr.values.T @ tr.values / tr.values.shape[0]
        np.testing.assert_allclose(cov, 2 * 0.5 * ks / 0.1, rtol=0.05)

    def test_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            johnson_nyquist_intensity([[0.0, 1.0], [-1.0, 0.0]], 1.0)
        with pytest.raises(ValueError, match="semidefinite"):
            johnson_nyquist_intensity(-1.0, 1.0)
        with pytest.raises(ValueError, match="temperature"):
            johnson_nyquist_intensity(1.0, -0.5)


#: The four thermal functions that take the temperature k_B T as a plain
#: number, each called as f(temperature).
_KBT_ENTRY_POINTS = {
    "analytic_fluctuation_covariance": lambda t: analytic_fluctuation_covariance(lc_ladder(), t, 1.0, 0.5),
    "johnson_nyquist_intensity": lambda t: johnson_nyquist_intensity(1.0, t),
    "sample_johnson_noise": lambda t: sample_johnson_noise(1.0, t, dt=0.1, steps=4, seed=0).values,
    "supply_noise_variance":
        lambda t: supply_noise_variance(1.0, 10.0, t, Trajectory(dt=0.1, values=np.ones(3))).values,
}


class TestThermalConstants:
    # the rule of ThermalEnsemble, LangevinModel and Device: k_B T finite
    # and >= 0, so a product such as BOLTZMANN_SI * inf is refused too
    @pytest.mark.parametrize("entry", sorted(_KBT_ENTRY_POINTS))
    @pytest.mark.parametrize("temperature, message", [
        (-1.0, "temperature must be nonnegative, got -1.0"),
        (math.nan, "temperature must be nonnegative, got nan"),
        (math.inf, "temperature must be nonnegative, got inf"),
    ])
    def test_constants_are_checked_and_zero_temperature_is_valid(self, entry, temperature, message):
        call = _KBT_ENTRY_POINTS[entry]
        assert np.all(call(0.0) == 0.0)
        with pytest.raises(ValueError, match=message):
            call(temperature)


class TestNonlinearDecomposition:
    def test_zero_offset_kills_the_thermal_leak(self):
        u = Trajectory(dt=0.1, values=np.sin(np.arange(11) * 0.1))
        _, leak = nonlinear_thermal_decompose(1.0, 10.0, u, 0.0)
        assert np.all(leak.values == 0.0)

    def test_zero_input_kills_both(self):
        u = Trajectory(dt=0.1, values=np.zeros(11))
        drift, leak = nonlinear_thermal_decompose(1.0, 10.0, u, 0.3)
        assert np.all(drift.values == 0.0) and np.all(leak.values == 0.0)

    def test_decomposition_reproduces_the_perturbed_supply(self):
        # integrate the perturbed supply state directly and compare with
        # k u + n_d + n_s
        k, e0, offset = -0.8, 10.0, 0.37
        root = np.sqrt(2 * e0)
        dt = 1e-4
        tt = np.arange(int(1 / dt) + 1) * dt
        u = Trajectory(dt=dt, values=np.cos(tt))
        drift, leak = nonlinear_thermal_decompose(k, e0, u, offset)
        supply = integrate_ode(
            lambda s, x: (k / root) * np.cos(s) ** 2 * np.ones(1), [root + offset], dt, 1.0
        )
        simulated = (k / root) * supply.values[:, 0] * u.values
        decomposed = k * u.values + drift.values + leak.values
        assert np.abs(simulated - decomposed).max() <= 1e-8

    def test_leak_variance_matches_the_ensemble_law(self):
        # k=1, E0=10, T=1, u=1: Var n_s = k^2 k_B T u^2 / (2 E0) = 1/20
        offsets = sample_gibbs(ThermalEnsemble(temperature=1.0, dimension=1, seed=8), 100_000)
        u = Trajectory(dt=0.1, values=np.ones(11))
        leaks = offsets[:, 0] / np.sqrt(20.0)  # n_s(t) for unit gain and input
        predicted = supply_noise_variance(1.0, 10.0, 1.0, u)
        assert predicted.values[5] == pytest.approx(0.05)
        assert leaks.var() == pytest.approx(0.05, rel=0.05)

    def test_variance_is_linear_in_temperature(self):
        u = Trajectory(dt=0.1, values=2.0 * np.ones(3))
        cold = supply_noise_variance(1.0, 10.0, 1.0, u)
        hot = supply_noise_variance(1.0, 10.0, 3.0, u)
        np.testing.assert_allclose(hot.values, 3.0 * cold.values)

    def test_drift_is_dominated_near_zero(self):
        # |n_d / n_s| grows like t: log-log slope close to one
        dt = 1e-5
        tt = np.arange(int(0.02 / dt) + 1) * dt
        u = Trajectory(dt=dt, values=np.cos(tt))
        drift, leak = nonlinear_thermal_decompose(1.0, 10.0, u, 0.3)
        probes = np.round(np.logspace(-4, -2, 20) / dt).astype(int)
        ratio = np.abs(drift.values[probes] / leak.values[probes])
        slope = np.polyfit(np.log(probes * dt), np.log(ratio), 1)[0]
        assert slope >= 0.9

    def test_vector_input_rejected(self):
        u = Trajectory(dt=0.1, values=np.ones((5, 2)))
        with pytest.raises(ValueError, match="single-port"):
            nonlinear_thermal_decompose(1.0, 1.0, u, 0.1)
        with pytest.raises(ValueError, match="single-port"):
            supply_noise_variance(1.0, 1.0, 1.0, u)
