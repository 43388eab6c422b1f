"""Tests for the energy-supply construction and the lossless ODE wrapper.

The memoryless construction has a closed form, so most oracles are exact:
for gain -1 and unit input the output is -1 + t/(2 E0) and the supply
drains linearly, and for a scalar gain the proof-style running bound
coincides with the actual error.  The wrapper tests lean on two facts
checked analytically: wrapping a lossless linear system is exact (the
supply never moves), and the supply feedback enters the field at second
order, so measured convergence is 1/E0 even though only 1/sqrt(E0) is
guaranteed.
"""

import numpy as np
import pytest

from lossless.approx_nonlinear import (
    EnergySupplyApprox,
    _supply_forms,
    _wrapped_paths,
    convergence_order,
    simulate_energy_supply,
    simulate_wrapped,
    supply_error_bound,
    supply_error_running_bound,
    wrap_lossless,
)
from lossless.statespace import (
    Trajectory,
    _input_samples,
    energy_ledger,
    integrate_ode,
    lc_ladder,
    simulate_linear,
)
from lossless._util import cumulative_trapezoid, derive_rng


def _sine(dt=1e-3, horizon=1.0):
    t = np.arange(int(round(horizon / dt)) + 1) * dt
    return Trajectory(dt=dt, values=np.sin(t))


class TestEnergySupply:
    def test_zero_input(self):
        u = Trajectory(dt=0.1, values=np.zeros(11))
        y, s = simulate_energy_supply(-2.0, 5.0, u)
        assert np.all(y.values == 0.0)
        np.testing.assert_allclose(s.values, np.sqrt(10.0))

    def test_negative_unit_gain_constant_input(self):
        # u^T k u = -1 is constant, so the running trapezoid is exact:
        # y = -1 + t/(2 E0) and the supply drains linearly
        e0 = 7.0
        t = np.arange(1001) * 1e-3
        u = Trajectory(dt=1e-3, values=np.ones_like(t))
        y, s = simulate_energy_supply(-1.0, e0, u)
        np.testing.assert_allclose(y.values, -1.0 + t / (2 * e0), atol=1e-14)
        np.testing.assert_allclose(
            s.values, np.sqrt(2 * e0) - t / np.sqrt(2 * e0), atol=1e-14
        )

    def test_large_charge_recovers_static_gain(self):
        t = np.arange(1001) * 1e-3
        u = Trajectory(dt=1e-3, values=np.sin(np.pi * t) ** 2)
        y, _ = simulate_energy_supply(-1.0, 1e9, u)
        assert np.abs(y.values + u.values).max() <= 1e-8

    def test_antisymmetric_gain_is_reproduced_exactly(self):
        # u^T k u vanishes for antisymmetric k: the supply never moves
        k = np.array([[0.0, 1.0], [-1.0, 0.0]])
        t = np.arange(501) * 2e-3
        u = Trajectory(dt=2e-3, values=np.stack([np.sin(t), np.cos(t)], axis=1))
        y, s = simulate_energy_supply(k, 3.0, u)
        np.testing.assert_allclose(y.values, u.values @ k.T, atol=1e-15)
        np.testing.assert_allclose(s.values, np.sqrt(6.0))

    def test_supply_holds_the_energy_books(self):
        # d/dt (x_E^2 / 2) = y^T u is an algebraic identity of the closed
        # form; check it by central differences
        u = _sine(dt=1e-4)
        y, s = simulate_energy_supply(-1.0, 2.0, u)
        energy = 0.5 * s.values**2
        rate = (energy[2:] - energy[:-2]) / (2 * u.dt)
        work = y.values * u.values
        np.testing.assert_allclose(rate, work[1:-1], atol=1e-6)

    def test_closed_form_matches_rk4_of_the_wrapped_map(self):
        # `simulate_energy_supply` is the wrapper over an empty state.  There
        # the supply obeys dx_E/dt = k u^2 / sqrt(2 E0) exactly, and RK4
        # integrates that quadrature as Simpson's rule (error T h^4
        # max|w''''| / 2880, w = k u^2 = (cos 2t - 1) / 2, so |w''''| <= 8).
        # The closed form's trapezoid errs by at most T h^2 max|w''| / 12
        # with |w''| <= 2, and the output carries that error times
        # |k u| / sqrt(2 E0) <= 1 / sqrt(2 E0).
        e0, horizon = 10.0, 1.0
        root = np.sqrt(2 * e0)
        ws = wrap_lossless(lambda x, v: np.zeros(0), lambda x, v: -v, np.zeros(0), e0)
        for h in (1e-3, 1e-4):
            y_cf, s_cf = simulate_energy_supply(-1.0, e0, _sine(dt=h, horizon=horizon))
            states, s_rk, y_rk = simulate_wrapped(ws, np.sin, dt=h, horizon=horizon)
            assert states.values.shape == (y_cf.n_samples, 0)
            supply_tol = horizon * (h**2 * 2 / 12 + h**4 * 8 / 2880) / root
            assert np.abs(s_cf.values - s_rk.values).max() <= supply_tol
            assert np.abs(y_cf.values - y_rk.values[:, 0]).max() <= supply_tol / root

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            EnergySupplyApprox(gain=-1.0, initial_energy=0.0)
        with pytest.raises(ValueError, match="square"):
            EnergySupplyApprox(gain=np.ones((2, 3)), initial_energy=1.0)
        with pytest.raises(ValueError, match="channels"):
            simulate_energy_supply(np.eye(2), 1.0, _sine())


class TestSupplyErrorBound:
    def test_formula(self):
        assert supply_error_bound(1.0, 1.0, 1.0, 10.0) == pytest.approx(0.05)

    def test_halves_when_charge_doubles(self):
        assert supply_error_bound(-1.0, 1.0, 1.0, 20.0) == pytest.approx(0.025)

    def test_uses_spectral_norm(self):
        k = np.array([[0.0, 2.0], [0.0, 0.0]])
        assert supply_error_bound(k, 1.0, 4.0, 1.0) == pytest.approx(4.0)

    def test_positive_arguments_required(self):
        for bad in [(1.0, 0.0, 1.0, 1.0), (1.0, 1.0, -2.0, 1.0), (1.0, 1.0, 1.0, 0.0)]:
            with pytest.raises(ValueError, match="positive"):
                supply_error_bound(*bad)

    def test_running_bound_is_exact_for_scalar_gain(self):
        u = _sine()
        y, _ = simulate_energy_supply(-1.0, 10.0, u)
        err = np.abs(y.values + u.values)
        running = supply_error_running_bound(-1.0, u, 10.0)
        np.testing.assert_allclose(err, running.values, atol=1e-14)

    def test_flat_bound_majorizes_running_bound(self):
        u = _sine()
        running = supply_error_running_bound(-1.0, u, 10.0)
        flat = supply_error_bound(-1.0, 1.0, 1.0, 10.0)
        l2 = np.sqrt(
            np.concatenate(
                [[0.0], np.cumsum((u.values[1:] ** 2 + u.values[:-1] ** 2) / 2 * u.dt)]
            )
        )
        assert np.all(running.values <= flat * l2 + 1e-15)

    def test_inequality_on_randomized_smooth_inputs(self):
        # matrix gain, indefinite and non-normal; ten seeded inputs
        k = np.array([[-1.0, 0.3], [-0.2, -0.5]])
        t = np.arange(501) * 2e-3
        for trial in range(10):
            rng = derive_rng(99, trial)
            amps = rng.standard_normal((3, 2))
            vals = sum(
                np.sin((m + 1) * np.pi * t)[:, None] * amps[m] / (m + 1)
                for m in range(3)
            )
            u = Trajectory(dt=2e-3, values=vals)
            e0 = float(10.0 ** rng.uniform(0.5, 3.0))
            y, _ = simulate_energy_supply(k, e0, u)
            err = np.linalg.norm(y.values - u.values @ k.T, axis=1)
            running = supply_error_running_bound(k, u, e0)
            assert np.all(err <= running.values + 1e-12)
            peak = np.linalg.norm(vals, axis=1).max()
            flat = supply_error_bound(k, peak, 1.0, e0)
            l2 = np.sqrt(
                np.concatenate(
                    [
                        [0.0],
                        np.cumsum(
                            (
                                np.sum(vals[1:] ** 2, axis=1)
                                + np.sum(vals[:-1] ** 2, axis=1)
                            )
                            / 2
                            * u.dt
                        ),
                    ]
                )
            )
            assert np.all(err <= flat * l2 + 1e-12)


class TestBatchedSupplyForms:
    """`_supply_forms` over a batch of inputs against the public functions
    called once per input, and the error against its closed form, bit for
    bit."""

    @pytest.mark.parametrize("gain", [-0.7, [[-1.0, 0.3], [-0.2, -0.5]]])
    def test_batch_is_bitwise_the_per_input_calls(self, gain):
        k = np.atleast_2d(gain)
        dt, horizon = 2e-3, 1.0
        t = np.arange(501) * dt
        rng = np.random.default_rng(8)
        vals = np.cos(np.multiply.outer(t, rng.uniform(0.5, 4.0, (6, len(k)))))  # (time, input, port)
        energies = 10.0 ** rng.uniform(0.5, 3.0, 6)
        outputs, supply, errors, running, flat = _supply_forms(k, vals, dt, energies, horizon)
        for i, e0 in enumerate(energies):
            u = Trajectory(dt=dt, values=vals[:, i])
            y, x_e = simulate_energy_supply(k, e0, u)
            # the error ||k u|| |c| / (2 E0), c = int u . k u; differencing y
            # adds y's own rounding
            drive = vals[:, i] @ k.T
            charge = cumulative_trapezoid(np.sum(vals[:, i] * drive, axis=1), dt)
            err = np.linalg.norm(drive, axis=1) * np.abs(charge / (2.0 * e0))
            differenced = np.linalg.norm(y.values - drive, axis=1)
            assert np.all(np.abs(differenced - err) <= np.finfo(float).eps * np.linalg.norm(y.values, axis=1))
            norms = np.linalg.norm(vals[:, i], axis=1)
            bound = supply_error_bound(k, norms.max(), horizon, e0)
            for batched, alone in ((outputs[:, i], y.values), (supply[:, i], x_e.values),
                                   (errors[:, i], err),
                                   (running[:, i], supply_error_running_bound(k, u, e0).values),
                                   (flat[:, i], bound * np.sqrt(cumulative_trapezoid(norms**2, dt)))):
                assert np.array_equal(batched, alone)
        assert (running >= errors - 1e-15).all() and (flat >= errors - 1e-15).all()


class TestWrappedSystem:
    def test_frozen_maps_give_constants(self):
        ws = wrap_lossless(
            lambda x, v: np.zeros(2), lambda x, v: 0.0, [1.0, -2.0], 4.0
        )
        states, supply, outputs = simulate_wrapped(ws, lambda t: 0.0, dt=0.1, horizon=1.0)
        np.testing.assert_allclose(states.values, [[1.0, -2.0]] * 11)
        np.testing.assert_allclose(supply.values, np.sqrt(8.0))
        assert np.all(outputs.values == 0.0)

    def test_wrapping_a_lossless_system_is_exact(self):
        sys = lc_ladder()
        J, B = np.asarray(sys.J), np.asarray(sys.B)
        ws = wrap_lossless(
            lambda x, v: J @ x + B @ v, lambda x, v: B.T @ x, [1.0, 0.0, 0.0], 2.0
        )
        t = np.arange(2001) * 1e-3
        u = Trajectory(dt=1e-3, values=np.sin(np.pi * t / 2) ** 2 * np.cos(3 * t))
        states, supply, outputs = simulate_wrapped(ws, u)
        xs, ys = simulate_linear(sys, u, x0=[1.0, 0.0, 0.0])
        assert np.abs(supply.values - 2.0).max() <= 1e-12
        assert np.abs(states.values - xs.values).max() <= 1e-12
        assert np.abs(outputs.values[:, 0] - ys.values[:, 0]).max() <= 1e-12

    def test_supply_absorbs_dissipated_energy(self):
        # f = -x with no drive: the state's energy has to go somewhere,
        # and losslessness of the wrapper routes it into the supply
        ws = wrap_lossless(lambda x, v: -x, lambda x, v: x, [1.0], 1e8)
        states, supply, _ = simulate_wrapped(ws, lambda t: 0.0, dt=1e-3, horizon=2.0)
        assert np.abs(states.values[:, 0] - np.exp(-states.times)).max() <= 1e-8
        assert supply.values[-1] > supply.values[0]
        total = 0.5 * (states.values[:, 0] ** 2 + supply.values**2)
        assert np.abs(total - total[0]).max() <= 1e-4

    def test_tracks_the_plain_ode(self):
        drive = lambda t: 0.1 * np.sin(t)
        reference = integrate_ode(lambda t, x: -x + drive(t), [1.0], 1e-3, 2.0)
        ws = wrap_lossless(lambda x, v: -x + v, lambda x, v: x, [1.0], 1e6)
        states, _, _ = simulate_wrapped(ws, drive, dt=1e-3, horizon=2.0)
        dev = np.abs(states.values - reference.values).max()
        assert dev <= 1e-3  # the guaranteed scale at this charge
        assert dev <= 1e-6  # the measured second-order scale

    def test_energy_ledger_closes(self):
        ws = wrap_lossless(lambda x, v: -x + v, lambda x, v: x, [1.0], 10.0)
        drive = lambda t: 0.5 * np.sin(2 * t)
        states, supply, outputs = simulate_wrapped(ws, drive, dt=1e-3, horizon=1.0)
        full = np.concatenate([states.values, supply.values[:, None]], axis=1)
        u = Trajectory(dt=1e-3, values=np.array([drive(t) for t in states.times]))
        ledger = energy_ledger(
            Trajectory(dt=1e-3, values=full), u, Trajectory(dt=1e-3, values=outputs.values[:, 0])
        )
        assert ledger.balance_residual() <= 1e-8

    def test_overflow_reported_with_time(self):
        ws = wrap_lossless(lambda x, v: x**3, lambda x, v: x, [1.0], 1e10)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="diverged at t"):
                simulate_wrapped(ws, lambda t: 0.0, dt=0.1, horizon=2.0)

    def test_audit_catches_too_coarse_a_step(self):
        # true blow-up is impossible (energy is conserved), so a stiff
        # field at a coarse step surfaces as a failed audit instead
        ws = wrap_lossless(lambda x, v: x**2, lambda x, v: x, [1.0], 1e6)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="reduce dt"):
                simulate_wrapped(ws, lambda t: 0.0, dt=1e-3, horizon=2.0)

    def test_input_handling(self):
        ws = wrap_lossless(lambda x, v: -x, lambda x, v: x, [1.0], 1.0)
        with pytest.raises(TypeError, match="Trajectory or a callable"):
            simulate_wrapped(ws, None, dt=0.1, horizon=1.0)
        with pytest.raises(ValueError, match="dt and horizon"):
            simulate_wrapped(ws, lambda t: 0.0)
        with pytest.raises(ValueError, match="samples"):
            simulate_wrapped(ws, _sine(dt=0.1, horizon=1.0), horizon=2.0)

    def test_dt_must_match_a_sampled_input(self):
        ws = wrap_lossless(lambda x, v: -x, lambda x, v: x, [1.0], 1.0)
        with pytest.raises(ValueError, match="sample step"):
            simulate_wrapped(ws, _sine(dt=0.01, horizon=1.0), dt=0.02)
        states, _, _ = simulate_wrapped(ws, _sine(dt=0.01, horizon=1.0), dt=0.01)
        assert states.dt == 0.01

    def test_construction_validation(self):
        with pytest.raises(TypeError, match="callable"):
            wrap_lossless(None, lambda x, v: x, [1.0], 1.0)
        with pytest.raises(ValueError, match="positive"):
            wrap_lossless(lambda x, v: -x, lambda x, v: x, [1.0], -1.0)


class TestBatchedSweep:
    """One `_wrapped_paths` run over many charges against one call per charge."""

    ENERGIES = np.array([10.0, 1e2, 1e3, 1e4])

    @staticmethod
    def _cli_system():
        drive = lambda t: 0.1 * np.sin(t)
        return (lambda x, v: -x + v, lambda x, v: x, np.array([1.0]),
                drive, dict(dt=2e-3, horizon=2.0), _input_samples(drive, 1, 2e-3, 2.0))

    @staticmethod
    def _linear_system():
        rng = derive_rng(3, 0)
        A = rng.standard_normal((3, 3)) - 2 * np.eye(3)
        B, C = rng.standard_normal((3, 2)), rng.standard_normal((2, 3))
        t = np.arange(1001) * 1e-3
        u = Trajectory(dt=1e-3, values=np.stack([np.sin(3 * t), np.cos(t)], axis=1))
        # einsum sums each row in the same order for any batch; a BLAS
        # product may not, and would make the field itself batch-dependent
        field = lambda x, v: np.einsum("ij,...j->...i", A, x) + B @ v
        output = lambda x, v: np.einsum("ij,...j->...i", C, x)
        return field, output, np.array([1.0, -0.5, 0.2]), u, {}, _input_samples(u, 2, None, None)

    @pytest.mark.parametrize("system", ["_cli_system", "_linear_system"])
    def test_batch_is_bitwise_the_separate_runs(self, system):
        field, output, x0, u, grid, samples = getattr(self, system)()
        states, supply, outputs = _wrapped_paths(field, output, x0, np.sqrt(2 * self.ENERGIES), *samples)
        assert states.shape[1:] == (4, x0.shape[0]) and supply.shape[1:] == (4,)
        for i, e0 in enumerate(self.ENERGIES):
            single = simulate_wrapped(wrap_lossless(field, output, x0, e0), u, **grid)
            for batched, alone in zip((states, supply, outputs), single):
                assert np.array_equal(batched[:, i], alone.values)

    @pytest.mark.parametrize("power, dt, energies, match", [
        (2, 1e-3, [1.0, 10.0, 1e2, 1e4], "reduce dt"),  # only 1e4 fails its audit
        (3, 0.1, [1.0, 1e10], "diverged at t"),  # only 1e10 leaves float range
    ])
    def test_one_failing_charge_fails_the_batch(self, power, dt, energies, match):
        samples = _input_samples(lambda t: 0.0, 1, dt, 2.0)
        field = lambda x, v: x**power
        run = lambda e0: _wrapped_paths(field, lambda x, v: x, np.ones(1), np.sqrt(2 * np.asarray(e0)), *samples)
        with np.errstate(over="ignore", invalid="ignore"):
            run(energies[:-1])  # the passing charges pass together
            with pytest.raises(FloatingPointError, match=match):
                run(energies)


class TestConvergenceOrder:
    @staticmethod
    def _memoryless_family():
        t = np.arange(1001) * 1e-3
        u = Trajectory(dt=1e-3, values=np.sin(t))
        reference = Trajectory(dt=1e-3, values=-np.sin(t))
        factory = lambda e0: simulate_energy_supply(-1.0, e0, u)[0]
        return factory, reference

    def test_memoryless_slope_is_minus_one(self):
        factory, reference = self._memoryless_family()
        fit = convergence_order(factory, [1e2, 1e3, 1e4, 1e5, 1e6], reference)
        assert fit.slope == pytest.approx(-1.0, abs=1e-6)
        assert fit.excluded == ()

    def test_error_floor_points_are_dropped(self):
        factory, reference = self._memoryless_family()
        fit = convergence_order(
            factory, [1e2, 1e3, 1e4, 1e5, 1e6, 1e12, 1e13], reference
        )
        assert fit.excluded == (5, 6)
        assert fit.slope == pytest.approx(-1.0, abs=1e-6)
        assert fit.errors[-1] < 1e-12 < fit.errors[4]

    def test_generic_wrapper_beats_the_guaranteed_rate(self):
        drive = lambda t: 0.1 * np.sin(t)
        reference = integrate_ode(lambda t, x: -x + drive(t), [1.0], 2e-3, 2.0)

        def factory(e0):
            ws = wrap_lossless(lambda x, v: -x + v, lambda x, v: x, [1.0], e0)
            return simulate_wrapped(ws, drive, dt=2e-3, horizon=2.0)[0]

        fit = convergence_order(factory, [1e2, 1e3, 1e4, 1e5, 1e6], reference)
        assert fit.slope <= -0.4  # the contract
        assert fit.slope == pytest.approx(-1.0, abs=0.05)  # the measured law

    def test_narrow_grid_rejected(self):
        factory, reference = self._memoryless_family()
        with pytest.raises(ValueError, match="three decades"):
            convergence_order(factory, [1e2, 1e3], reference)

    def test_everything_on_the_floor_rejected(self):
        factory, reference = self._memoryless_family()
        with pytest.raises(ValueError, match="floor"):
            convergence_order(factory, [1e12, 1e13, 1e14, 1e15], reference)

    def test_shape_mismatch_rejected(self):
        factory, _ = self._memoryless_family()
        bad_ref = Trajectory(dt=1e-3, values=np.zeros(7))
        with pytest.raises(ValueError, match="shape"):
            convergence_order(factory, [1e2, 1e3, 1e4, 1e5], bad_ref)
