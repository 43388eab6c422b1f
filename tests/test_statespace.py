"""Tests for the state-space layer.

Expected values come from closed forms worked out independently of the
implementation: the LC ladder with unit elements has a zero eigenvalue along
(1, 0, 1)/sqrt(2) and a resonance at w = sqrt(2), so with x(0) = e1 and no
input

    x(t) = ((1 + cos(w t))/2,  sin(w t)/sqrt(2),  (1 - cos(w t))/2),

the stored energy is identically 1/2, and the impulse response is
g(t) = (1 + cos(w t))/2.
"""

import numpy as np
import pytest
import scipy.sparse

from lossless.measurement import MeasuredSystem
from lossless.statespace import (
    PSD_TOL,
    EnergyLedger,
    LinearStateSpace,
    LosslessLinear,
    SignatureMatrix,
    Trajectory,
    check_dissipative,
    check_lossless,
    check_reciprocal,
    _lti_run,
    check_time_reversible,
    energy_ledger,
    impulse_response,
    integrate_ode,
    lc_ladder,
    matrix_exponential,
    simulate_linear,
)
from lossless.thermal import LangevinModel

W = np.sqrt(2.0)


def lc_free_motion(t):
    return np.stack(
        [(1 + np.cos(W * t)) / 2, np.sin(W * t) / np.sqrt(2), (1 - np.cos(W * t)) / 2],
        axis=-1,
    )


@pytest.fixture
def fixture():
    return lc_ladder()


@pytest.fixture
def smooth_input():
    T, dt = 2.0, 1e-3
    t = np.arange(int(T / dt) + 1) * dt
    return Trajectory(dt=dt, values=np.sin(np.pi * t / T) ** 2 * np.cos(3 * t))


class TestTrajectory:
    def test_grid_properties(self):
        tr = Trajectory(dt=0.5, values=np.zeros((5, 2)))
        assert tr.n_samples == 5
        assert len(tr) == 5
        assert tr.duration == pytest.approx(2.0)
        np.testing.assert_allclose(tr.times, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_times_are_computed_once_and_read_only(self):
        tr = Trajectory(dt=0.37, values=np.zeros(1001))
        np.testing.assert_array_equal(tr.times, np.arange(1001) * 0.37)
        assert tr.times is tr.times
        with pytest.raises(ValueError):
            tr.times[3] = 0.0

    def test_sample_matches_function(self):
        tr = Trajectory.sample(lambda t: [t, t**2], dt=0.25, n_samples=4)
        np.testing.assert_allclose(tr.values[:, 1], (0.25 * np.arange(4)) ** 2)

    def test_values_are_read_only(self):
        tr = Trajectory(dt=1.0, values=np.ones(3))
        with pytest.raises(ValueError):
            tr.values[0] = 2.0

    @pytest.mark.parametrize("dt", [0.0, -1.0, np.nan])
    def test_bad_dt_rejected(self, dt):
        with pytest.raises(ValueError):
            Trajectory(dt=dt, values=np.ones(3))

    def test_non_finite_samples_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(dt=1.0, values=np.array([0.0, np.inf]))


class TestConstruction:
    def test_lc_ladder_matrices(self, fixture):
        np.testing.assert_allclose(
            fixture.J, [[0, -1, 0], [1, 0, -1], [0, 1, 0]], atol=0
        )
        np.testing.assert_allclose(fixture.B, [[1.0], [0.0], [0.0]])
        np.testing.assert_allclose(fixture.D, [[0.0]])

    def test_lc_ladder_general_elements(self):
        sys = lc_ladder(l1=2.0, c1=0.5, c2=8.0)
        assert sys.J[1, 0] == pytest.approx(1.0)  # 1/sqrt(l1 c1)
        assert sys.J[2, 1] == pytest.approx(0.25)  # 1/sqrt(l1 c2)
        assert sys.B[0, 0] == pytest.approx(np.sqrt(2.0))

    def test_lc_ladder_rejects_nonpositive_elements(self):
        with pytest.raises(ValueError):
            lc_ladder(c1=0.0)

    def test_non_skew_generator_rejected(self):
        with pytest.raises(ValueError, match="skew"):
            LosslessLinear(J=np.array([[0.0, 1.0], [1.0, 0.0]]), B=np.ones((2, 1)))

    def test_one_skew_test_for_every_class(self):
        # each of the three pairs is off by 4e-11: max |J + J^T| is 4e-11,
        # under SKEW_TOL, but the entrywise sum 2.4e-10 is over it
        j = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        j += 4e-11 * np.triu(np.ones((3, 3)), 1)
        with pytest.raises(ValueError, match="symmetric"):
            LosslessLinear(J=j, B=np.ones((3, 1)))
        with pytest.raises(ValueError, match="symmetric"):
            MeasuredSystem(J=j, B=[1.0, 0.0, 0.0], x0=[1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="symmetric"):
            LangevinModel(J=j, K=np.eye(3), B=np.eye(3), temperature=1.0)

    def test_non_skew_direct_term_rejected(self):
        with pytest.raises(ValueError, match="skew"):
            LosslessLinear(
                J=np.zeros((1, 1)), B=np.ones((1, 1)), D=np.array([[1.0]])
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LosslessLinear(J=np.zeros((2, 2)), B=np.ones((3, 1)))

    def test_statespace_port_shapes(self):
        with pytest.raises(ValueError, match="C must be"):
            LinearStateSpace(
                A=np.zeros((2, 2)), B=np.ones((2, 1)), C=np.ones((2, 2)), D=np.zeros((1, 1))
            )

    def test_sparse_generator_accepted(self, fixture):
        sp = LosslessLinear(J=scipy.sparse.csr_matrix(fixture.J), B=fixture.B)
        assert sp.n == 3
        x, _ = simulate_linear(sp, None, x0=[1, 0, 0], dt=1e-3, horizon=0.5)
        assert np.isfinite(x.values).all()

    def test_as_statespace_round_trip(self, fixture):
        ss = fixture.as_statespace()
        np.testing.assert_allclose(ss.C, fixture.B.T)
        assert ss.n == 3 and ss.p == 1


class TestSignature:
    def test_matrix(self):
        s = SignatureMatrix(signs=(1, -1))
        np.testing.assert_allclose(s.matrix, [[1.0, 0.0], [0.0, -1.0]])

    def test_identity(self):
        assert SignatureMatrix.identity(3).signs == (1, 1, 1)

    @pytest.mark.parametrize("signs", [(), (0,), (2, 1)])
    def test_invalid_signs(self, signs):
        with pytest.raises(ValueError):
            SignatureMatrix(signs=signs)


class TestSimulation:
    def test_free_motion_matches_closed_form(self, fixture):
        dt, T = 1e-3, 2.0
        x, y = simulate_linear(fixture, None, x0=[1, 0, 0], dt=dt, horizon=T)
        t = x.times
        np.testing.assert_allclose(x.values, lc_free_motion(t), atol=1e-11)
        np.testing.assert_allclose(y.values[:, 0], (1 + np.cos(W * t)) / 2, atol=1e-11)

    def test_free_motion_conserves_energy(self, fixture):
        x, _ = simulate_linear(fixture, None, x0=[1, 0, 0], dt=1e-3, horizon=2.0)
        energy = 0.5 * np.sum(x.values**2, axis=1)
        np.testing.assert_allclose(energy, 0.5, atol=1e-13)

    def test_impulse_response_closed_form(self, fixture):
        g = impulse_response(fixture, dt=1e-3, n_samples=2001)
        expected = (1 + np.cos(W * g.times)) / 2
        np.testing.assert_allclose(g.values[:, 0, 0], expected, atol=1e-12)

    @pytest.mark.parametrize("n_samples", [1, 2, 37, 1000])
    def test_impulse_response_matches_per_sample_stepping(self, n_samples):
        # Non-normal A and C != B^T; 37 and 1000 are not whole panels.
        rng = np.random.default_rng(7)
        a = np.triu(rng.standard_normal((5, 5)), 1) * 3.0 - np.diag([0.5, 1.0, 1.5, 2.0, 0.1])
        sys = LinearStateSpace(A=a, B=rng.standard_normal((5, 2)),
                               C=rng.standard_normal((2, 5)), D=np.zeros((2, 2)))
        phi = matrix_exponential(a * 0.01)
        x = np.array(sys.B)
        expected = np.empty((n_samples, 2, 2))
        for k in range(n_samples):
            expected[k] = sys.C @ x
            x = phi @ x
        g = impulse_response(sys, dt=0.01, n_samples=n_samples)
        assert g.values.shape == expected.shape
        np.testing.assert_allclose(g.values, expected, rtol=0,
                                   atol=1e-12 * np.abs(expected).max())

    def test_impulse_response_rejects_sparse(self, fixture):
        sp = LosslessLinear(J=scipy.sparse.csr_matrix(fixture.J), B=fixture.B)
        with pytest.raises(TypeError):
            impulse_response(sp, dt=0.1, n_samples=4)

    def test_driven_energy_balance(self, fixture, smooth_input):
        x, y = simulate_linear(fixture, smooth_input)
        ledger = energy_ledger(x, smooth_input, y)
        assert ledger.balance_residual() < 1e-10
        assert ledger.net_work() != 0.0

    def test_callable_input_requires_grid(self, fixture):
        with pytest.raises(ValueError, match="dt and horizon"):
            simulate_linear(fixture, lambda t: 0.0)

    def test_horizon_must_fit_record(self, fixture, smooth_input):
        with pytest.raises(ValueError, match="samples"):
            simulate_linear(fixture, smooth_input, horizon=3.0)

    def test_horizon_truncates_record(self, fixture, smooth_input):
        x, _ = simulate_linear(fixture, smooth_input, horizon=1.0)
        assert x.n_samples == 1001

    def test_channel_mismatch_rejected(self, fixture):
        bad = Trajectory(dt=0.1, values=np.zeros((5, 2)))
        with pytest.raises(ValueError, match="channels"):
            simulate_linear(fixture, bad)

    def test_x0_dimension_checked(self, fixture, smooth_input):
        with pytest.raises(ValueError, match="dimension"):
            simulate_linear(fixture, smooth_input, x0=[1.0, 0.0])

    def test_dt_must_match_a_sampled_input(self, fixture, smooth_input):
        with pytest.raises(ValueError, match="sample step"):
            simulate_linear(fixture, smooth_input, dt=2e-3)
        x, _ = simulate_linear(fixture, smooth_input, dt=1e-3)
        assert x.n_samples == smooth_input.n_samples

    def test_rk4_fourth_order_convergence(self, fixture):
        def run(dt):
            u = lambda t: np.sin(3 * t)
            _, y = simulate_linear(fixture, u, dt=dt, horizon=1.0)
            return y.values[-1, 0]

        truth = run(1e-5)
        errs = [abs(run(dt) - truth) for dt in (4e-3, 2e-3)]
        ratio = errs[0] / errs[1]
        assert 12 < ratio < 20


class TestIntegrateOde:
    def test_scalar_decay(self):
        tr = integrate_ode(lambda t, x: -x, np.array([1.0]), dt=1e-3, horizon=1.0)
        assert tr.values[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_batched_states(self):
        x0 = np.ones((4, 2))
        tr = integrate_ode(lambda t, x: -x, x0, dt=1e-2, horizon=0.5)
        assert tr.values.shape == (51, 4, 2)

    def test_divergence_reported_with_time(self):
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="diverged at t"):
            integrate_ode(lambda t, x: x**3, np.array([2.0]), dt=0.5, horizon=50.0)

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            integrate_ode(lambda t, x: x, np.array([1.0]), dt=0.3, horizon=1.0)


class TestLtiRun:
    """The lifted runner against a plain per-step loop, written out here."""

    @pytest.mark.parametrize("readout", ["states", "matrix", "vector"])
    @pytest.mark.parametrize("driven", [False, True])
    @pytest.mark.parametrize("batch", [None, 4])
    @pytest.mark.parametrize("steps", [0, 1, 2, 37, 1000, 5000])
    def test_matches_per_step_loop(self, steps, batch, driven, readout):
        # non-normal phi (strong upper coupling) with one eigenvalue on the
        # unit circle, so the readouts neither vanish nor blow up
        rng = np.random.default_rng(steps)
        n, m = 5, 2
        phi = np.triu(rng.standard_normal((n, n)), 1) * 0.5 + np.diag([0.9, 0.95, 0.99, 0.5, 1.0])
        tail = () if batch is None else (batch,)
        x0 = rng.standard_normal((n,) + tail)
        gamma = rng.standard_normal((n, m)) if driven else None
        u = rng.standard_normal((steps, m) + tail) if driven else None
        c = {"states": None, "matrix": rng.standard_normal((3, n)),
             "vector": rng.standard_normal(n)}[readout]
        x, expected = x0.copy(), []
        for k in range(steps + 1):
            expected.append(x.copy() if c is None else c @ x)
            if k < steps:
                x = phi @ x + (gamma @ u[k] if driven else 0.0)
        expected = np.array(expected)
        out, final = _lti_run(phi, x0, gamma, u, c, steps)
        assert out.shape == expected.shape
        assert final.shape == x.shape
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12 * np.abs(expected).max())
        np.testing.assert_allclose(final, x, rtol=0, atol=1e-12 * np.abs(x).max())
        if c is None:
            np.testing.assert_allclose(final, out[-1], rtol=0, atol=1e-12 * np.abs(x).max())


def test_matrix_exponential_nilpotent():
    np.testing.assert_allclose(
        matrix_exponential([[0.0, 1.0], [0.0, 0.0]]), [[1.0, 1.0], [0.0, 1.0]]
    )


def test_energy_ledger_grid_mismatch():
    a = Trajectory(dt=0.1, values=np.zeros((5, 2)))
    b = Trajectory(dt=0.1, values=np.zeros((4, 1)))
    with pytest.raises(ValueError):
        energy_ledger(a, b, b)


def test_energy_ledger_net_work_quadrature():
    t = np.linspace(0.0, 1.0, 101)
    ledger = EnergyLedger(times=t, total_energy=np.zeros_like(t), work_rate=t**2)
    assert ledger.net_work() == pytest.approx(1.0 / 3.0, abs=1e-10)


class TestLosslessVerdict:
    def test_fixture_passes(self, fixture):
        v = check_lossless(fixture, trials=4, seed=7)
        assert v.passed
        assert v.skew_residual == 0.0
        assert v.energy_residual < 1e-8

    def test_structural_only_mode(self, fixture):
        v = check_lossless(fixture, trials=0)
        assert v.passed
        assert np.isnan(v.energy_residual)

    def test_damped_system_fails(self):
        sys = LinearStateSpace(
            A=-np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 2)), D=np.zeros((1, 1))
        )
        v = check_lossless(sys, trials=2)
        assert not v.passed
        assert v.skew_residual == pytest.approx(4.0)

    def test_scalar_decay_residual(self):
        sys = LinearStateSpace(
            A=np.array([[-1.0]]), B=np.ones((1, 1)), C=np.ones((1, 1)), D=np.zeros((1, 1))
        )
        assert check_lossless(sys, trials=0).skew_residual == pytest.approx(2.0)

    def test_general_statespace_needs_matched_port(self, fixture):
        sys = LinearStateSpace(
            A=fixture.J, B=fixture.B, C=2.0 * fixture.B.T, D=np.zeros((1, 1))
        )
        assert not check_lossless(sys, trials=0).passed


class TestDissipativeVerdict:
    def test_lossless_sits_on_the_boundary(self, fixture):
        v = check_dissipative(fixture)
        assert v.dissipative
        assert abs(v.min_eigenvalue) < 1e-10

    def test_constant_positive_kernel(self):
        v = check_dissipative(np.array([[2.0]]))
        assert v.dissipative
        assert v.min_eigenvalue == pytest.approx(4.0)

    def test_constant_negative_kernel(self):
        v = check_dissipative(np.array([[-1.0]]))
        assert not v.dissipative
        assert v.min_eigenvalue == pytest.approx(-2.0)

    def test_antisymmetric_kernel_is_borderline(self):
        v = check_dissipative(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert v.dissipative
        assert v.min_eigenvalue == pytest.approx(0.0, abs=1e-15)

    def test_sampled_decaying_kernel(self):
        t = np.arange(0, 40.0 + 1e-9, 0.01)
        g = Trajectory(dt=0.01, values=np.exp(-t))
        v = check_dissipative(g)
        assert v.dissipative
        assert v.warning is None
        assert v.tail_fraction < 1e-10

    def test_sampled_kernel_against_transform(self):
        # Re g_hat(jw) = 1/(1 + w^2) for g = exp(-t); spot-check one frequency.
        t = np.arange(0, 40.0 + 1e-9, 0.01)
        g = Trajectory(dt=0.01, values=np.exp(-t))
        v = check_dissipative(g, frequencies=np.array([1.0]))
        assert v.min_eigenvalue == pytest.approx(1.0, rel=1e-3)

    def test_non_decaying_kernel_warns(self):
        t = np.arange(0, 20.0 + 1e-9, 0.01)
        g = Trajectory(dt=0.01, values=np.cos(t))
        v = check_dissipative(g)
        assert v.warning is not None
        assert v.tail_fraction > 0.1

    def test_damped_statespace(self):
        sys = LinearStateSpace(
            A=np.array([[-1.0, 1.0], [0.0, -1.0]]),
            B=np.eye(2),
            C=np.eye(2),
            D=np.zeros((2, 2)),
        )
        v = check_dissipative(sys)
        assert v.dissipative
        assert v.min_eigenvalue >= -PSD_TOL

    @pytest.mark.parametrize("shape", [(50, 2, 3), (50, 1, 1, 1), (50, 2)])
    def test_non_square_samples_named(self, shape):
        g = Trajectory(dt=0.1, values=np.ones(shape))
        with pytest.raises(ValueError, match=rf"square matrices, got shape \({', '.join(map(str, shape))}\)"):
            check_dissipative(g)


class TestReciprocity:
    def test_scalar_kernel_always_reciprocal(self, fixture):
        g = impulse_response(fixture, dt=0.01, n_samples=200)
        v = check_reciprocal(g, SignatureMatrix.identity(1))
        assert v.reciprocal
        assert v.max_residual == 0.0

    def test_gyrator_needs_mixed_signature(self):
        vals = np.broadcast_to(np.array([[0.0, 1.0], [-1.0, 0.0]]), (5, 2, 2)).copy()
        g = Trajectory(dt=0.1, values=vals)
        assert not check_reciprocal(g, SignatureMatrix.identity(2)).reciprocal
        assert check_reciprocal(g, SignatureMatrix.identity(2)).max_residual == pytest.approx(2.0)
        assert check_reciprocal(g, SignatureMatrix(signs=(1, -1))).reciprocal

    def test_vector_kernel_rejected(self):
        g = Trajectory(dt=0.1, values=np.zeros((5, 2)))
        with pytest.raises(ValueError):
            check_reciprocal(g, SignatureMatrix.identity(2))


class TestReversibility:
    def test_lossless_fixture_reverses(self, fixture, smooth_input):
        for signs in [(1,), (-1,)]:
            v = check_time_reversible(fixture, SignatureMatrix(signs=signs), smooth_input)
            assert v.reversible
            assert v.max_deviation < 1e-9

    def test_damped_system_fails_every_signature(self, smooth_input):
        sys = LinearStateSpace(
            A=np.array([[-1.0, 1.0], [0.0, -1.0]]),
            B=np.eye(2),
            C=np.eye(2),
            D=np.zeros((2, 2)),
        )
        t = smooth_input.times
        u = Trajectory(
            dt=smooth_input.dt,
            values=np.stack([smooth_input.values, np.sin(2 * t) * np.sin(np.pi * t / 2) ** 2], axis=1),
        )
        for signs in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
            v = check_time_reversible(sys, SignatureMatrix(signs=signs), u)
            assert not v.reversible
            assert v.max_deviation > 0.5

    def test_nonzero_initial_state_rejected(self, fixture, smooth_input):
        with pytest.raises(ValueError, match="rest"):
            check_time_reversible(
                fixture, SignatureMatrix.identity(1), smooth_input, x0=[1, 0, 0]
            )
