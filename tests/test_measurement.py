"""Tests for probe back action, optimal filtering, and the trade-off.

The stochastic engines run at fixed seeds so every assertion is
deterministic.  Statistical claims are stated in Monte-Carlo standard
errors or against exact companion laws; the minimum-variance solver is
checked against three independent oracles (a closed-form scalar port,
an augmented-matrix-exponential Gramian, and an RK4 restart of the full
filter covariance equation).  Several closed-form targets that the
small-time expansion suggests are deliberately replaced by measured
laws where the expansion turned out to be wrong for a multi-state port;
those appear with their derivations inline.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from lossless import measurement
from lossless._util import derive_rng
from lossless.measurement import (
    DEVICE_VARIANTS,
    Device,
    MeasuredSystem,
    benchmark_estimator,
    device_summary,
    kalman_estimate,
    measured_lc,
    riccati_solve,
    simulate_device,
    tradeoff_product,
)
from lossless.statespace import Trajectory, integrate_ode, matrix_exponential


SYSTEM = measured_lc()
J, B, X0 = SYSTEM.J, SYSTEM.B, SYSTEM.x0


def gramian_by_van_loan(t, admittance, kbt):
    """Independent information Gramian via the augmented exponential.

    With A = J^T the block matrix [[-A^T, BB^T], [0, A^T]] integrates
    exactly: expm of it holds int_0^t e^{J^T s} B B^T e^{Js} ds in the
    off-diagonal block (both diagonal blocks equal J because J is
    antisymmetric).
    """
    n = B.shape[0]
    blk = np.zeros((2 * n, 2 * n))
    blk[:n, :n] = J
    blk[:n, n:] = np.outer(B, B)
    blk[n:, n:] = J
    F = scipy.linalg.expm(blk * t)
    return (admittance / (2.0 * kbt)) * F[n:, n:].T @ F[:n, n:]


class TestMeasuredSystem:
    def test_lc_fixture(self):
        assert SYSTEM.n == 3
        assert SYSTEM.c_cap == 1.0
        assert SYSTEM.y0 == 1.0
        assert np.array_equal(SYSTEM.x0, [1.0, 0.0, 0.0])

    def test_column_port_vector_is_flattened(self):
        s = MeasuredSystem(J=J, B=B.reshape(3, 1), x0=X0)
        assert s.B.shape == (3,)

    def test_rejects_non_antisymmetric_coupling(self):
        with pytest.raises(ValueError, match="antisymmetric"):
            MeasuredSystem(J=[[0.0, 1.0], [1.0, 0.0]], B=[1.0, 0.0], x0=[0.0, 0.0])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            MeasuredSystem(J=J, B=[1.0, 0.0], x0=X0)

    def test_rejects_zero_port(self):
        with pytest.raises(ValueError, match="nonzero"):
            MeasuredSystem(J=J, B=[0.0, 0.0, 0.0], x0=X0)


class TestDevice:
    def test_noisy_flags(self):
        assert DEVICE_VARIANTS == ("M1", "M1hat", "M2", "M2hat")
        assert not Device(variant="M1", admittance=1.0).is_noisy
        assert Device(variant="M1hat", admittance=1.0, temperature=0.5).is_noisy
        assert not Device(variant="M2", admittance=1.0).is_noisy
        assert Device(
            variant="M2hat", admittance=1.0, temperature=0.5, supply_energy=4.0
        ).is_noisy

    def test_realized_variant_requires_temperature(self):
        with pytest.raises(ValueError, match="requires temperature"):
            Device(variant="M1hat", admittance=1.0)

    def test_ideal_variant_rejects_temperature(self):
        with pytest.raises(ValueError, match="does not use temperature"):
            Device(variant="M1", admittance=1.0, temperature=1.0)

    def test_supply_energy_bookkeeping(self):
        with pytest.raises(ValueError, match="requires supply_energy"):
            Device(variant="M2hat", admittance=1.0, temperature=1.0)
        with pytest.raises(ValueError, match="does not use supply_energy"):
            Device(variant="M2", admittance=1.0, supply_energy=3.0)
        with pytest.raises(ValueError, match="supply_energy must be positive"):
            Device(variant="M2hat", admittance=1.0, temperature=1.0, supply_energy=0.0)

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant"):
            Device(variant="M3", admittance=1.0)

    def test_rejects_bad_scalars(self):
        with pytest.raises(ValueError, match="admittance must be positive"):
            Device(variant="M1", admittance=0.0)
        with pytest.raises(ValueError, match="temperature must be nonnegative"):
            Device(variant="M1hat", admittance=1.0, temperature=-0.1)
        with pytest.raises(ValueError, match="boltzmann"):
            Device(variant="M1hat", admittance=1.0, temperature=1.0, boltzmann=0.0)


class TestIdealProbes:
    def test_memoryless_probe_back_action_leading_order(self):
        # b(t_m) = -k_m y_0 B t_m + O(t_m^2)
        dev = Device(variant="M1", admittance=1.0)
        out = simulate_device(SYSTEM, dev, 1e-3, 1e-3 / 256, trials=50, seed=1)
        assert out.trials == 1
        np.testing.assert_allclose(out.b_d, -1.0 * 1.0 * B * 1e-3, atol=1e-6)
        assert out.max_correction_residual <= 1e-12
        assert np.all(out.P == 0.0)
        assert out.m_star == 0.0

    def test_memoryless_probe_matches_closed_form(self):
        km = 0.7
        dev = Device(variant="M1", admittance=km)
        out = simulate_device(SYSTEM, dev, 2e-3, 2e-3 / 128, trials=1, seed=1)
        loaded = matrix_exponential((J - km * np.outer(B, B)) * 2e-3) @ X0
        free = matrix_exponential(J * 2e-3) @ X0
        np.testing.assert_allclose(out.b_d, loaded - free, atol=1e-13)
        assert out.y_hat == pytest.approx(float(B @ loaded), abs=1e-13)

    def test_memoryless_back_action_is_first_order_in_horizon(self):
        dev = Device(variant="M1", admittance=1.0)
        small = simulate_device(SYSTEM, dev, 1e-3, 1e-3 / 64, trials=1, seed=1)
        large = simulate_device(SYSTEM, dev, 2e-3, 2e-3 / 64, trials=1, seed=1)
        ratio = np.linalg.norm(large.b_d) / np.linalg.norm(small.b_d)
        assert ratio == pytest.approx(2.0, rel=2e-3)

    def test_active_probe_has_no_back_action(self):
        dev = Device(variant="M2", admittance=5.0)
        out = simulate_device(SYSTEM, dev, 1e-2, 1e-2 / 256, trials=9, seed=1)
        assert np.all(out.b_d == 0.0)
        assert np.all(out.b_mean == 0.0)
        assert out.max_correction_residual <= 1e-12
        # the record is the unperturbed potential itself
        for k in (0, 100, 256):
            free = matrix_exponential(J * (k * 1e-2 / 256)) @ X0
            assert out.y_m.values[k] == pytest.approx(float(B @ free), abs=1e-12)


    @pytest.mark.parametrize("variant", ["M1", "M2"])
    def test_ideal_outcome_is_one_exact_trial(self, variant):
        dev = Device(variant=variant, admittance=0.7)
        out = simulate_device(SYSTEM, dev, 2e-3, 2e-3 / 128, trials=5, seed=3)
        assert out.trials == 1
        for name in ("estimate_variance", "mean_error", "delta_y", "delta_y_hat", "product"):
            value = getattr(out, name)
            assert value == 0.0 and math.copysign(1.0, value) == 1.0, name
        assert out.b_mean.tobytes() == out.b_d.tobytes()
        assert out.y_hat == out.y_m.values[-1]


class TestRiccatiSolve:
    def test_scalar_port_is_exact(self):
        # for n = 1 the information is c * B^2 * t, so t * m* = 2 kbt / k_m
        # at every horizon, with no transient
        scalar = MeasuredSystem(J=[[0.0]], B=[2.0], x0=[1.5])
        sol = riccati_solve(scalar, 0.7, 1.3, [0.01, 0.37, 5.0])
        np.testing.assert_allclose(
            sol.times * sol.m_star, 2.0 * 1.3 / 0.7, rtol=1e-9
        )

    def test_small_time_law_for_the_lc_port(self):
        # The estimate of y(t_m) is an endpoint extrapolation of a noisy
        # degree-(n-1) polynomial fit, so t * m* -> n^2 * 2 kbt / k_m
        # (sum of 2m+1 over the shifted-Legendre modes), which is 18 for
        # n = 3, NOT the single-state value 2.  Measured 17.99999931.
        sol = riccati_solve(SYSTEM, 1.0, 1.0, [1e-3])
        assert 1e-3 * sol.m_star[0] == pytest.approx(18.0, rel=1e-5)

    def test_against_augmented_exponential_gramian(self):
        for t, rtol in ((0.7, 1e-10), (100.0, 1e-9), (1e-3, 1e-4)):
            info = gramian_by_van_loan(t, 1.0, 1.0)
            prop = matrix_exponential(J * t)
            m_ref = (prop.T @ B) @ np.linalg.solve(info, prop.T @ B)
            sol = riccati_solve(SYSTEM, 1.0, 1.0, [t])
            assert sol.m_star[0] == pytest.approx(m_ref, rel=rtol)
        # full covariance at the well-conditioned horizon
        info = gramian_by_van_loan(0.7, 1.0, 1.0)
        prop = matrix_exponential(J * 0.7)
        x_ref = prop @ np.linalg.solve(info, prop.T)
        sol = riccati_solve(SYSTEM, 1.0, 1.0, [0.7])
        np.testing.assert_allclose(sol.state_covariance[0], x_ref, rtol=1e-10)

    def test_restart_oracle_for_the_filter_covariance_equation(self):
        # RK4-integrate the correlated-noise filter equation
        #   Xdot = Jk X + X Jk^T + 2 km kbt BB^T
        #          - (km / 2 kbt) (X - 2 kbt I)BB^T(X - 2 kbt I)^T
        # from the solver's X(0.05) and compare at 0.5.  This is the
        # unsimplified form, so it exercises the algebraic collapse the
        # solver relies on.
        km, kbt = 1.0, 1.0
        jk = J - km * np.outer(B, B)
        bbt = np.outer(B, B)
        sol = riccati_solve(SYSTEM, km, kbt, [0.05, 0.5])

        def xdot(_, x):
            shift = x - 2.0 * kbt * np.eye(3)
            return (
                jk @ x + x @ jk.T + 2.0 * km * kbt * bbt
                - (km / (2.0 * kbt)) * shift @ bbt @ shift.T
            )

        path = integrate_ode(xdot, sol.state_covariance[0], 0.45 / 4096, 0.45)
        np.testing.assert_allclose(
            sol.state_covariance[1], path.values[-1], rtol=1e-6
        )

    def test_monotone_decrease_and_universal_floor(self):
        grid = np.concatenate([np.geomspace(1e-3, 1.0, 40), np.linspace(1.5, 100.0, 80)])
        sol = riccati_solve(SYSTEM, 1.0, 1.0, grid)
        assert np.all(np.diff(sol.m_star) < 0.0)
        # e^{Jt} is orthogonal, so trace(I(t)) = c t B^T B bounds the top
        # eigenvalue and m* t >= 2 kbt / km everywhere
        assert np.all(grid * sol.m_star >= 2.0 - 1e-9)
        # the long-horizon value stays two orders above 1e-2
        assert sol.m_star[-1] == pytest.approx(0.0600221, rel=1e-3)

    def test_scales_with_temperature_over_admittance(self):
        base = riccati_solve(SYSTEM, 1.0, 1.0, [0.37])
        scaled = riccati_solve(SYSTEM, 2.0, 1.5, [0.37])
        assert scaled.m_star[0] == pytest.approx(1.5 / 2.0 * base.m_star[0], rel=1e-12)
        in_si = riccati_solve(SYSTEM, 1.0, 1.0, [0.37], boltzmann=3.0)
        assert in_si.m_star[0] == pytest.approx(3.0 * base.m_star[0], rel=1e-12)

    def test_covariance_is_symmetric_psd_and_consistent(self):
        sol = riccati_solve(SYSTEM, 1.0, 1.0, [0.01, 1.0, 20.0])
        for x, m in zip(sol.state_covariance, sol.m_star):
            np.testing.assert_allclose(x, x.T, atol=1e-12 * np.abs(x).max())
            assert np.linalg.eigvalsh(x).min() >= -1e-10 * np.abs(x).max()
            assert B @ x @ B == pytest.approx(m, rel=1e-12)

    def test_zero_temperature_means_zero_floor(self):
        sol = riccati_solve(SYSTEM, 1.0, 0.0, [0.1, 1.0])
        assert np.all(sol.m_star == 0.0)
        assert np.all(sol.state_covariance == 0.0)

    def test_unobservable_port_is_reported(self):
        # the third state never couples to the port, so the diffuse
        # start cannot be resolved
        deaf = MeasuredSystem(
            J=[[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
            B=[1.0, 0.0, 0.0],
            x0=[1.0, 0.0, 0.0],
        )
        with pytest.raises(ArithmeticError, match="singular"):
            riccati_solve(deaf, 1.0, 1.0, [0.5])

    @pytest.mark.parametrize("grid", [
        np.linspace(0.01, 10.0, 1000),  # 13 distinct panel widths among 1000 intervals
        np.cumsum(np.random.default_rng(7).uniform(1e-3, 0.05, 200)),
    ])
    def test_panels_shared_by_equal_widths_change_nothing(self, grid, monkeypatch):
        calls = []
        expm = measurement.matrix_exponential
        monkeypatch.setattr(measurement, "matrix_exponential", lambda a: calls.append(1) or expm(a))
        shared = riccati_solve(SYSTEM, 1.0, 1.0, grid)
        spans = np.diff(grid, prepend=0.0)
        widths = {s / max(2, math.ceil(s / 5e-3)) for s in spans}
        # one propagator per grid point, four node maps and one step per width
        assert len(calls) == grid.size + 5 * len(widths)
        fold = measurement._fold_gramian_rows
        monkeypatch.setattr(measurement, "_fold_gramian_rows", lambda *args: fold(*args[:-1], {}))
        fresh = riccati_solve(SYSTEM, 1.0, 1.0, grid)
        np.testing.assert_array_equal(shared.m_star, fresh.m_star)
        np.testing.assert_array_equal(shared.state_covariance, fresh.state_covariance)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_panel_reuse_is_exact_on_random_systems(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n))
        system = MeasuredSystem(J=a - a.T, B=rng.standard_normal(n), x0=np.zeros(n))
        grid = np.concatenate([np.linspace(0.02, 1.0, 50), np.geomspace(1.1, 30.0, 20)])
        shared = riccati_solve(system, 0.8, 1.2, grid)
        fold = measurement._fold_gramian_rows
        monkeypatch.setattr(measurement, "_fold_gramian_rows", lambda *args: fold(*args[:-1], {}))
        fresh = riccati_solve(system, 0.8, 1.2, grid)
        np.testing.assert_array_equal(shared.m_star, fresh.m_star)
        np.testing.assert_array_equal(shared.state_covariance, fresh.state_covariance)

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            riccati_solve(SYSTEM, 1.0, 1.0, [0.5, 0.5])
        with pytest.raises(ValueError, match="above 0"):
            riccati_solve(SYSTEM, 1.0, 1.0, [0.0, 1.0])
        with pytest.raises(ValueError, match="admittance"):
            riccati_solve(SYSTEM, -1.0, 1.0, [0.5])
        with pytest.raises(ValueError, match="temperature"):
            riccati_solve(SYSTEM, 1.0, -1.0, [0.5])


@pytest.fixture(scope="module")
def thermal_probe_run():
    dev = Device(variant="M1hat", admittance=1.0, temperature=1.0)
    return simulate_device(SYSTEM, dev, 1e-3, 1e-3 / 256, trials=100_000, seed=3)


class TestThermalMemorylessProbe:
    def test_back_action_covariance_magnitude(self, thermal_probe_run):
        # P = 2 km kbt BB^T t_m + O(t_m^2): trace ratio within 5
        # percent at 1e5 trials (SE ~ 0.45 percent; measured 0.9952)
        ratio = np.trace(thermal_probe_run.P) / 2e-3
        assert abs(ratio - 1.0) <= 0.05
        port_ratio = (B @ thermal_probe_run.P @ B) / 2e-3
        assert abs(port_ratio - 1.0) <= 0.05

    def test_deterministic_back_action_matches_memoryless_probe(self, thermal_probe_run):
        ideal = simulate_device(
            SYSTEM, Device(variant="M1", admittance=1.0), 1e-3, 1e-3 / 256, 1, seed=0
        )
        np.testing.assert_allclose(thermal_probe_run.b_d, ideal.b_d, atol=1e-12)

    def test_mean_back_action_agrees_with_deterministic(self, thermal_probe_run):
        # 4 SE per component, plus an absolute 1e-8 floor: along the
        # doubly-rotated state the kick variance is ~1e-16, so the
        # Euler mean bias (~4e-9) dominates the vanishing SE there
        se = np.sqrt(np.diag(thermal_probe_run.P) / thermal_probe_run.trials)
        dev = np.abs(thermal_probe_run.b_mean - thermal_probe_run.b_d)
        assert np.all(dev <= 4.0 * se + 1e-8)

    def test_correction_identity_holds_per_trial(self, thermal_probe_run):
        assert thermal_probe_run.max_correction_residual <= 1e-10

    def test_filter_reaches_the_riccati_floor(self, thermal_probe_run):
        # measured 0.979: the discrete record holds slightly more
        # information than the continuous limit (one extra sample)
        ratio = thermal_probe_run.estimate_variance / thermal_probe_run.m_star
        assert 0.9 <= ratio <= 1.1

    def test_filter_is_optimal_for_its_own_discretization(self, thermal_probe_run):
        # exact least-squares variance of the discrete problem:
        # meas^2 * B^T G (M^T M)^{-1} G^T B with Riemann-sum information
        dt = 1e-3 / 256
        chain = np.eye(3) + dt * J
        rows = np.empty((257, 3))
        rows[0] = B
        for k in range(256):
            rows[k + 1] = chain.T @ rows[k]
        gk = np.linalg.matrix_power(chain, 256)
        v = np.linalg.solve(rows.T @ rows, gk.T @ B)
        v_disc = (2.0 / dt) * (gk.T @ B) @ v
        assert thermal_probe_run.estimate_variance / v_disc == pytest.approx(1.0, abs=0.02)
        assert 0.95 <= v_disc / thermal_probe_run.m_star <= 1.005

    def test_outcome_consistency_fields(self, thermal_probe_run):
        out = thermal_probe_run
        assert out.trials == 100_000
        assert out.y_m.values.shape == (257,)
        assert out.delta_y == pytest.approx(math.sqrt(B @ out.P @ B), rel=1e-12)
        assert out.delta_y_hat == pytest.approx(math.sqrt(out.m_star), rel=1e-12)
        assert out.product == pytest.approx(out.delta_y * out.delta_y_hat, rel=1e-12)
        ref = riccati_solve(SYSTEM, 1.0, 1.0, [1e-3])
        assert out.m_star == pytest.approx(ref.m_star[0], rel=1e-12)
        assert np.linalg.eigvalsh(out.P).min() >= -1e-12 * np.abs(out.P).max()

    def test_thread_count_never_changes_results(self):
        dev = Device(variant="M1hat", admittance=1.0, temperature=1.0)
        one = simulate_device(SYSTEM, dev, 1e-3, 1e-3 / 256, trials=3000, seed=21)
        four = simulate_device(SYSTEM, dev, 1e-3, 1e-3 / 256, trials=3000, seed=21, threads=4)
        assert np.array_equal(one.P, four.P)
        assert np.array_equal(one.b_mean, four.b_mean)
        assert one.y_hat == four.y_hat
        assert one.estimate_variance == four.estimate_variance

    def test_validation(self):
        dev = Device(variant="M1hat", admittance=1.0, temperature=1.0)
        with pytest.raises(ValueError, match="trials"):
            simulate_device(SYSTEM, dev, 1e-3, 1e-3 / 256, trials=0, seed=1)
        with pytest.raises(ValueError, match="multiple"):
            simulate_device(SYSTEM, dev, 1e-3, 3e-4, trials=10, seed=1)


class TestLongHorizonEquilibration:
    def test_back_action_covariance_thermalizes(self):
        # After many port periods the displaced state forgets x0 and
        # its covariance settles at the Gibbs value kbt * I.  The
        # Euler-Maruyama chain equilibrates to its own discrete
        # Lyapunov fixed point Sigma_dt, a first-order-in-dt
        # deformation of kbt I, so both gaps are pinned separately.
        dev = Device(variant="M1hat", admittance=1.0, temperature=1.0)
        dt = 50.0 / 4096
        out = simulate_device(SYSTEM, dev, 50.0, dt, trials=10_000, seed=13)
        phi = np.eye(3) + dt * (J - np.outer(B, B))
        sigma_dt = scipy.linalg.solve_discrete_lyapunov(phi, 2.0 * dt * np.outer(B, B))
        assert np.abs(sigma_dt - np.eye(3)).max() <= 0.07  # deterministic: 0.0644
        assert np.abs(out.P - sigma_dt).max() <= 0.05  # Monte Carlo: 0.0174
        assert np.abs(out.P - np.eye(3)).max() <= 0.10
        # and the mean displaced state goes to zero: b_mean -> -e^{Jt} x0
        resettled = out.b_mean + matrix_exponential(J * 50.0) @ X0
        assert np.abs(resettled).max() <= 4.0 * math.sqrt(1.0 / 10_000)


class TestZeroTemperatureDevices:
    def test_realized_probe_reduces_to_ideal(self):
        cold = Device(variant="M1hat", admittance=1.0, temperature=0.0)
        out = simulate_device(SYSTEM, cold, 1e-3, 1e-3 / 256, trials=7, seed=2)
        ideal = simulate_device(
            SYSTEM, Device(variant="M1", admittance=1.0), 1e-3, 1e-3 / 256, 1, seed=2
        )
        assert out.m_star == 0.0
        assert out.estimate_variance <= 1e-25
        assert np.abs(out.P).max() <= 1e-15
        assert out.product == 0.0
        # Euler chain vs exact exponential stepping of the same flow
        assert np.abs(out.y_m.values - ideal.y_m.values).max() <= 1e-10

    def test_filter_echoes_an_exact_record(self):
        cold = Device(variant="M1hat", admittance=1.0, temperature=0.0)
        out = simulate_device(SYSTEM, cold, 1e-3, 1e-3 / 256, trials=1, seed=2)
        est, gains = kalman_estimate(SYSTEM, cold, out.y_m)
        assert np.array_equal(est.values, out.y_m.values)
        assert np.all(gains.values == 0.0)


class TestKalmanEstimate:
    def test_sequential_filter_matches_batch_engine(self, thermal_probe_run):
        dev = Device(variant="M1hat", admittance=1.0, temperature=1.0)
        est, gains = kalman_estimate(SYSTEM, dev, thermal_probe_run.y_m)
        assert est.values.shape == (257,)
        assert gains.values.shape == (257, 3)
        assert est.values[-1] == pytest.approx(thermal_probe_run.y_hat, abs=1e-9)

    def test_supply_backed_filter_matches_batch_engine(self):
        dev = Device(variant="M2hat", admittance=1.0, temperature=1.0, supply_energy=10.0)
        out = simulate_device(SYSTEM, dev, 1e-3, 1e-3 / 256, trials=200, seed=5)
        # the stored record is trial 0; its supply offset is the first
        # draw of the first chunked substream
        offset = math.sqrt(1.0) * derive_rng(5, 0).standard_normal(200)[0]
        est, _ = kalman_estimate(SYSTEM, dev, out.y_m, state_offset=offset)
        assert est.values[-1] == pytest.approx(out.y_hat, abs=1e-9)

    def test_gain_agrees_with_the_covariance_solution(self):
        # K(t) = (km / 2 kbt)(X(t) - 2 kbt I) B at the final sample
        dev = Device(variant="M1hat", admittance=1.0, temperature=1.0)
        out = simulate_device(SYSTEM, dev, 2.0, 2.0 / 2048, trials=1, seed=5)
        _, gains = kalman_estimate(SYSTEM, dev, out.y_m)
        sol = riccati_solve(SYSTEM, 1.0, 1.0, [2.0])
        ref = 0.5 * (sol.state_covariance[0] - 2.0 * np.eye(3)) @ B
        np.testing.assert_allclose(gains.values[-1], ref, rtol=0.02)

    def test_early_gains_match_exact_normal_equations(self):
        # Over t_m = 1e-2 the first rows b^T A^k are nearly parallel, so
        # the information matrix of the first ~20 samples is too ill
        # conditioned to invert in floating point; the reference inverts
        # it exactly, in rationals, from the same floating-point rows.
        from fractions import Fraction

        steps, kbt, c = 256, 1.0, 0.5
        dt = 1e-2 / steps
        dev = Device(variant="M1hat", admittance=1.0, temperature=kbt)
        out = simulate_device(SYSTEM, dev, 1e-2, dt, trials=1, seed=5)
        _, gains = kalman_estimate(SYSTEM, dev, out.y_m)
        exact = np.vectorize(Fraction, otypes=[object])
        chain = np.eye(3) + dt * J
        prop, info = np.eye(3), exact(np.zeros((3, 3)))
        for k in range(21):
            row = exact(B @ prop)
            info = info + Fraction(c * dt) * np.outer(row, row)
            if k >= 2:
                # inverse by cofactors: the columns are cross products of rows
                r0, r1, r2 = info
                adj = np.array([np.cross(r1, r2), np.cross(r2, r0), np.cross(r0, r1)]).T
                cov_b = exact(prop) @ (adj / (r0 @ np.cross(r1, r2))) @ row
                ref = np.array([float(v) for v in c * cov_b]) - 2.0 * c * kbt * B
                np.testing.assert_allclose(gains.values[k], ref, rtol=0,
                                           atol=1e-6 * np.abs(ref).max())
            prop = chain @ prop

    def test_validation(self):
        noisy = Device(variant="M1hat", admittance=1.0, temperature=1.0)
        supply = Device(variant="M2hat", admittance=1.0, temperature=1.0, supply_energy=4.0)
        out = simulate_device(SYSTEM, noisy, 1e-3, 1e-3 / 64, trials=1, seed=1)
        with pytest.raises(ValueError, match="realized variants"):
            kalman_estimate(SYSTEM, Device(variant="M1", admittance=1.0), out.y_m)
        with pytest.raises(ValueError, match="supply offset"):
            kalman_estimate(SYSTEM, supply, out.y_m)
        with pytest.raises(ValueError, match="no supply state"):
            kalman_estimate(SYSTEM, noisy, out.y_m, state_offset=0.1)

    def test_memoryless_filter_rejects_a_drift(self):
        dev = Device(variant="M1hat", admittance=1.0, temperature=1.0)
        out = simulate_device(SYSTEM, dev, 1e-3, 1e-3 / 64, trials=1, seed=1)
        drift = Trajectory(dt=out.y_m.dt, values=np.zeros(65))
        with pytest.raises(ValueError, match="no supply state"):
            kalman_estimate(SYSTEM, dev, out.y_m, drift=drift)

    def test_drift_record_must_share_the_readout_step(self):
        dev = Device(variant="M2hat", admittance=1.0, temperature=1.0, supply_energy=4.0)
        out = simulate_device(SYSTEM, dev, 1e-3, 1e-3 / 64, trials=1, seed=1)
        drift = Trajectory(dt=7.0, values=np.zeros(65))
        with pytest.raises(ValueError, match="readout grid"):
            kalman_estimate(SYSTEM, dev, out.y_m, state_offset=0.0, drift=drift)

    def test_explicit_noise_free_drift_matches_the_default(self):
        # w_d = k_m (x_r / sqrt(2 E_m) - 1) B^T x along the noise-free
        # closed loop of the supply-backed probe, integrated here apart
        # from the filter
        km, em, dt, steps = 1.0, 4.0, 1e-3 / 128, 128
        dev = Device(variant="M2hat", admittance=km, temperature=1.0, supply_energy=em)
        out = simulate_device(SYSTEM, dev, steps * dt, dt, trials=1, seed=8)
        root = math.sqrt(2.0 * em)

        def loop(_, z):
            y = B @ z[:3]
            return np.append(J @ z[:3] + km * (z[3] / root - 1.0) * y * B, (km / root) * y**2)

        path = integrate_ode(loop, np.append(X0, root), dt, steps * dt).values
        w_d = km * (path[:, 3] / root - 1.0) * (path[:, :3] @ B)
        default, _ = kalman_estimate(SYSTEM, dev, out.y_m, state_offset=0.2)
        for drift in (Trajectory(dt=dt, values=w_d), lambda t: w_d[int(round(t / dt))]):
            est, _ = kalman_estimate(SYSTEM, dev, out.y_m, state_offset=0.2, drift=drift)
            np.testing.assert_allclose(est.values, default.values, rtol=1e-12, atol=1e-12)
        with pytest.raises(ValueError, match="readout grid"):
            kalman_estimate(SYSTEM, dev, out.y_m, state_offset=0.2,
                            drift=Trajectory(dt=dt, values=w_d[:-1]))


@pytest.fixture(scope="module")
def supply_run():
    dev = Device(variant="M2hat", admittance=1.0, temperature=1.0, supply_energy=10.0)
    return simulate_device(SYSTEM, dev, 1e-3, 1e-3 / 256, trials=10_000, seed=5)


class TestSupplyBackedProbe:
    def test_back_action_covariance_magnitude(self, supply_run):
        # same leading covariance as the passive realization
        assert abs(np.trace(supply_run.P) / 2e-3 - 1.0) <= 0.05

    def test_filter_reaches_the_riccati_floor(self, supply_run):
        ratio = supply_run.estimate_variance / supply_run.m_star
        assert 0.9 <= ratio <= 1.1

    def test_correction_identity_holds_per_trial(self, supply_run):
        assert supply_run.max_correction_residual <= 1e-10

    def test_deterministic_back_action_is_second_order(self, supply_run):
        # b_d = (km^2 y0^3 / 4 Em) B t^2 + O(t^3)
        predicted = 1.0 / (4.0 * 10.0) * (1e-3) ** 2
        assert np.linalg.norm(supply_run.b_d) == pytest.approx(predicted, rel=1e-3)

    def test_back_action_coefficient_adjudicated_at_admittance_two(self):
        # Two closed-form candidates exist for the t^2 coefficient,
        # km^2 y0^3/(4 Em) and km y0^3/(4 Em); at km = 2 they differ by
        # a factor of two, and an independent fine-step Euler run of the
        # noise-free loop picks the quadratic one.
        km, em, t_m = 2.0, 10.0, 1e-3
        dev = Device(variant="M2hat", admittance=km, temperature=1.0, supply_energy=em)
        out = simulate_device(SYSTEM, dev, t_m, t_m / 256, trials=1, seed=1)
        root = math.sqrt(2.0 * em)
        ndt = 1e-6
        x, xr, xn = X0.copy(), root, X0.copy()
        for _ in range(1000):
            y2 = B @ x
            x = x + ndt * (J @ x + km * (xr / root - 1.0) * y2 * B)
            xr = xr + ndt * (km / root) * y2**2
            xn = xn + ndt * (J @ xn)
        oracle = x - xn
        np.testing.assert_allclose(out.b_d, oracle, rtol=5e-3, atol=1e-16)
        quad = km**2 / (4.0 * em) * t_m**2
        lin = km / (4.0 * em) * t_m**2
        assert np.linalg.norm(out.b_d) == pytest.approx(quad, rel=0.02)
        assert abs(np.linalg.norm(out.b_d) - lin) > 0.8 * lin

    def test_back_action_scales_inversely_with_supply_energy(self):
        small = Device(variant="M2hat", admittance=1.0, temperature=1.0, supply_energy=10.0)
        big = Device(variant="M2hat", admittance=1.0, temperature=1.0, supply_energy=20.0)
        b_small = simulate_device(SYSTEM, small, 1e-3, 1e-3 / 128, 1, seed=1).b_d
        b_big = simulate_device(SYSTEM, big, 1e-3, 1e-3 / 128, 1, seed=1).b_d
        assert np.linalg.norm(b_small) == pytest.approx(
            2.0 * np.linalg.norm(b_big), rel=1e-3
        )


class TestTradeoff:
    def test_product_against_the_port_scale(self):
        # |dy| |dyhat| / (2 kbt / C) -> n for an n-state port: the
        # disturbance floor is 2 km kbt t and the estimation floor is
        # n^2 2 kbt/(km t), so the product is n * 2 kbt B^T B, three
        # times the single-state value here.  The inequality direction
        # (lhs >= 0.9 rhs) holds with an enormous margin.
        for km in (0.5, 1.0, 2.0):
            dev = Device(variant="M1hat", admittance=km, temperature=1.0)
            rep = tradeoff_product(SYSTEM, dev, 1e-3, trials=10_000, seed=7)
            assert rep.rhs == 2.0
            assert 2.85 <= rep.ratio <= 3.15
            assert rep.lhs >= 0.9 * rep.rhs
            assert rep.lhs_empirical == pytest.approx(rep.lhs, rel=0.1)

    def test_supply_backed_variant_obeys_the_same_product(self):
        dev = Device(variant="M2hat", admittance=2.0, temperature=1.0, supply_energy=10.0)
        rep = tradeoff_product(SYSTEM, dev, 1e-3, trials=10_000, seed=7)
        assert rep.rhs == 2.0
        assert 2.85 <= rep.ratio <= 3.15
        assert rep.lhs >= 0.9 * rep.rhs

    def test_rejects_ideal_probes(self):
        with pytest.raises(ValueError, match="realized"):
            tradeoff_product(SYSTEM, Device(variant="M1", admittance=1.0), 1e-3, 10)


class TestBenchmarkEstimator:
    def test_reading_the_last_sample_is_far_from_optimal(self):
        dev = Device(variant="M1hat", admittance=1.0, temperature=1.0)
        rep = benchmark_estimator(
            SYSTEM, dev, lambda times, record: record[-1], 1e-3, 1e-3 / 256, 1000, seed=9
        )
        assert rep.trials == 1000
        assert rep.ratio >= 5.0  # measured 28.7

    def test_an_independent_least_squares_estimator_reaches_the_floor(self):
        km = 1.0
        dev = Device(variant="M1hat", admittance=km, temperature=1.0)

        def regress_back_to_the_start(times, record):
            dt = times[1] - times[0]
            steps = len(record) - 1
            chain = np.eye(3) + dt * J
            rows = np.empty((steps + 1, 3))
            rows[0] = B
            for k in range(steps):
                rows[k + 1] = chain.T @ rows[k]
            forcing = np.zeros(3)
            z = np.empty(steps + 1)
            for k in range(steps + 1):
                z[k] = record[k] - B @ forcing
                if k < steps:
                    forcing = chain @ forcing - km * dt * record[k] * B
            start = np.linalg.lstsq(rows, z, rcond=None)[0]
            return B @ (np.linalg.matrix_power(chain, steps) @ start + forcing)

        rep = benchmark_estimator(
            SYSTEM, dev, regress_back_to_the_start, 1e-3, 1e-3 / 256, 2000, seed=9
        )
        assert 0.9 <= rep.ratio <= 1.1  # measured 1.0026

    def test_scores_the_trials_simulate_device_draws(self):
        # the sequential filter's final value is the batch filter's
        # estimate, so scoring it must reproduce the batch error variance
        dev = Device(variant="M1hat", admittance=1.0, temperature=1.0)
        t_m, dt = 1e-3, 1e-3 / 64

        def sequential(times, record):
            estimates, _ = kalman_estimate(SYSTEM, dev, Trajectory(dt=dt, values=record))
            return estimates.values[-1]

        rep = benchmark_estimator(SYSTEM, dev, sequential, t_m, dt, 64, seed=4)
        out = simulate_device(SYSTEM, dev, t_m, dt, 64, seed=4)
        assert rep.variance == pytest.approx(out.estimate_variance, rel=1e-9)

    def test_rejects_noiseless_devices(self):
        with pytest.raises(ValueError, match="noisy"):
            benchmark_estimator(
                SYSTEM, Device(variant="M2", admittance=1.0), lambda t, r: 0.0,
                1e-3, 1e-3 / 256, 10,
            )

    @pytest.mark.parametrize("variant", ["M1hat", "M2hat"])
    def test_the_last_sample_errs_by_the_readout_noise_alone(self, variant):
        # record[-1] is y(t_m) + meas eta_steps exactly, so its mean square
        # error is meas^2 = 2 k_B T / (k_m dt): variance * k_m dt / (2 k_B T)
        # is the mean of `trials` squared unit normals, sd sqrt(2 / trials).
        # A 5-sd band fails with probability about 6e-7 per run; a sweep of
        # 300 seeds per variant measured a z-score sd of 1.03 (M1hat) and
        # 0.96 (M2hat), largest |z| 3.3 and 3.7.
        km, temperature, t_m, trials = 1.3, 0.7, 1e-3, 4000
        dt = t_m / 64
        extra = {"supply_energy": 10.0} if variant == "M2hat" else {}
        dev = Device(variant=variant, admittance=km, temperature=temperature, **extra)
        rep = benchmark_estimator(SYSTEM, dev, lambda times, record: record[-1], t_m, dt, trials, seed=5)
        ratio = rep.variance * km * dt / (2.0 * temperature)
        assert abs(ratio - 1.0) <= 5.0 * math.sqrt(2.0 / trials)


class TestProbeFaults:
    def test_a_diverging_supply_backed_probe_raises(self):
        # at t_m = 2 the M2hat probe leaves float range; the statistics
        # would be NaN, so the run stops at the first non-finite sample
        dev = Device(variant="M2hat", admittance=1.0, temperature=1.0, supply_energy=10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(FloatingPointError, match="diverged at t = "):
                simulate_device(SYSTEM, dev, 2.0, 2.0 / 256, 3000, seed=3)

    @pytest.mark.parametrize("variant", ["M1hat", "M2hat"])
    def test_a_record_shorter_than_the_state_is_rejected(self, variant):
        # 2 readout samples cannot determine the 3 states of x0
        extra = {"supply_energy": 10.0} if variant == "M2hat" else {}
        dev = Device(variant=variant, admittance=1.0, temperature=1.0, **extra)
        with pytest.raises(ValueError, match="x0 is not determined: 2 readout samples for 3 states"):
            simulate_device(SYSTEM, dev, 1e-3, 1e-3, 10, seed=1)
        assert simulate_device(SYSTEM, dev, 2e-3, 1e-3, 10, seed=1).trials == 10

    def test_ideal_probes_need_no_filter(self):
        out = simulate_device(SYSTEM, Device(variant="M1", admittance=1.0), 1e-3, 1e-3, 1)
        assert out.estimate_variance == 0.0


@pytest.fixture(scope="module")
def summary():
    devices = [
        Device(variant="M1", admittance=1.0),
        Device(variant="M1hat", admittance=1.0, temperature=1.0),
        Device(variant="M2", admittance=1.0),
        Device(variant="M2hat", admittance=1.0, temperature=1.0, supply_energy=10.0),
    ]
    return device_summary(SYSTEM, [1e-3, 3e-3, 1e-2], devices, trials=2000, seed=11)


class TestDeviceSummary:
    def fit(self, summary, variant, column):
        matches = [f for f in summary.fits if f.variant == variant and f.column == column]
        assert len(matches) == 1
        return matches[0]

    def test_row_layout(self, summary):
        assert len(summary.rows) == 12
        assert len(summary.fits) == 16
        assert summary.column("M1hat", "trace_p").shape == (3,)
        assert list(summary.column("M2", "t_m")) == [1e-3, 3e-3, 1e-2]

    def test_active_probe_rows_are_identically_zero(self, summary):
        for column in ("b_d_norm", "trace_p", "delta_y_sq", "m_star"):
            assert np.all(summary.column("M2", column) == 0.0)
            assert self.fit(summary, "M2", column).note == "identically zero"

    def test_memoryless_back_action_coefficient(self, summary):
        fit = self.fit(summary, "M1", "b_d_norm")
        assert fit.exponent == 1
        assert abs(fit.ratio - 1.0) <= 0.01  # deterministic: 0.99950
        assert 0.97 <= fit.slope <= 1.03
        assert self.fit(summary, "M1", "trace_p").note == "identically zero"

    def test_thermal_covariance_coefficients(self, summary):
        for variant in ("M1hat", "M2hat"):
            for column in ("trace_p", "delta_y_sq"):
                fit = self.fit(summary, variant, column)
                assert fit.exponent == 1
                assert abs(fit.ratio - 1.0) <= 0.15  # 2000 trials, SE ~ 3 percent

    def test_error_floor_shows_the_multi_state_factor(self, summary):
        # the reference column is the single-state law 2 kbt / km; the
        # fitted coefficient lands at n^2 times it, reported honestly
        fit = self.fit(summary, "M1hat", "m_star")
        assert fit.exponent == -1
        assert -1.01 <= fit.slope <= -0.99
        assert fit.ratio == pytest.approx(9.0, rel=1e-3)

    def test_supply_backed_back_action_is_quadratic(self, summary):
        fit = self.fit(summary, "M2hat", "b_d_norm")
        assert fit.exponent == 2
        assert 1.95 <= fit.slope <= 2.05
        assert abs(fit.ratio - 1.0) <= 0.01
        assert "k_m^2" in fit.note

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="tm_grid"):
            device_summary(SYSTEM, [1e-3], [Device(variant="M1", admittance=1.0)], 10)
