"""Tests for the state-space layer.

Expected values come from closed forms worked out independently of the
implementation: the LC ladder with unit elements has a zero eigenvalue along
(1, 0, 1)/sqrt(2) and a resonance at w = sqrt(2), so with x(0) = e1 and no
input

    x(t) = ((1 + cos(w t))/2,  sin(w t)/sqrt(2),  (1 - cos(w t))/2),

the stored energy is identically 1/2, and the impulse response is
g(t) = (1 + cos(w t))/2.
"""

import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from lossless import memoryless_lossless_approx
from lossless._util import derive_rng, midpoint_samples
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
    _input_samples,
    _lti_run,
    _rk4,
    _rk4_states,
    _smooth_test_input,
    _ENERGY_TOL,
    _default_frequencies,
    _dense_resolvent,
    _kernel_stride,
    _port_matrices,
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

    def test_sample_needs_a_sample(self):
        def fn(t):
            raise AssertionError("fn called")

        with pytest.raises(ValueError, match="n_samples must be >= 1"):
            Trajectory.sample(fn, dt=0.25, n_samples=0)

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


# A step of the wrong sign, or NaN, against one of the right sign.
BAD_STEPS = [(-0.1, -1.0), (math.nan, 1.0)]


class TestStepValidation:
    """A step and a span must be finite and positive: rejected, naming
    which, before any work."""

    @pytest.mark.parametrize("dt, horizon", BAD_STEPS)
    def test_simulate_linear_with_a_callable_input(self, fixture, dt, horizon):
        calls = []
        with pytest.raises(ValueError, match="dt must be positive"):
            simulate_linear(fixture, lambda t: calls.append(t) or 1.0, dt=dt, horizon=horizon)
        assert calls == []

    @pytest.mark.parametrize("dt", [-0.1, math.nan])
    def test_impulse_response(self, fixture, dt):
        with pytest.raises(ValueError, match="dt must be positive"):
            impulse_response(fixture, dt, 5)

    def test_integrate_ode_rejects_a_nan_horizon(self):
        with pytest.raises(ValueError, match="horizon must be positive, got nan"):
            integrate_ode(lambda t, x: -x, np.array([1.0]), dt=0.1, horizon=math.nan)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_integrate_ode_rejects_a_non_finite_start(self, bad):
        # a bad start, not a divergence one step in
        with pytest.raises(ValueError, match="x0 contains non-finite entries"):
            integrate_ode(lambda t, x: -x, np.array([1.0, bad]), dt=0.1, horizon=1.0)


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

    def test_a_sampled_drive_steps_as_its_closure_bit_for_bit(self):
        # a forced field stepped on the drive's samples is the same RK4 as
        # the field that evaluates the drive at each stage time
        drive = lambda s: 0.1 * np.sin(s)
        tr = integrate_ode(lambda s, x: -x + drive(s), [1.0], 2e-3, 2.0)
        u_vals, u_mids, h = _input_samples(drive, 1, 2e-3, 2.0)
        np.testing.assert_array_equal(_rk4(lambda x, v: -x + v, np.ones(1), u_vals, u_mids, h),
                                      tr.values)


class TestLtiRun:
    """The lifted runner against a plain per-step loop, written out here."""

    @pytest.mark.parametrize("readout", ["states", "matrix", "vector"])
    @pytest.mark.parametrize("driven", [False, True])
    @pytest.mark.parametrize("batch", [None, 4])
    @pytest.mark.parametrize("steps", [0, 1, 2, 37, 1000, 5000])
    def test_matches_per_step_loop(self, steps, batch, driven, readout):
        # non-normal phi (strong upper coupling) with one eigenvalue on the
        # unit circle, so the readouts neither vanish nor blow up; the
        # runner takes its increment phi - I, which is not small here
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
        out, final = _lti_run(phi - np.eye(n), x0, gamma, u, c, steps)
        assert out.shape == expected.shape
        assert final.shape == x.shape
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12 * np.abs(expected).max())
        np.testing.assert_allclose(final, x, rtol=0, atol=1e-12 * np.abs(x).max())
        if c is None:
            np.testing.assert_allclose(final, out[-1], rtol=0, atol=1e-12 * np.abs(x).max())

    @pytest.mark.parametrize("readout", ["states", "matrix", "vector"])
    @pytest.mark.parametrize("driven", [False, True])
    @pytest.mark.parametrize("batch", [None, 4])
    @pytest.mark.parametrize("steps", [0, 1, 2, 37, 1000, 5000])
    def test_increment_form_matches_per_step_loop(self, steps, batch, driven, readout):
        # the step map I + E as its increment E; under 8 steps a run is the
        # step loop, from 37 steps lifted blocks
        rng = np.random.default_rng(steps)
        n, m = 5, 2
        e = np.triu(rng.standard_normal((n, n)), 1) * 0.05 - np.diag([0.1, 0.05, 0.01, 0.5, 0.0])
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
                x = x + (e @ x + (gamma @ u[k] if driven else 0.0))
        expected = np.array(expected)
        out, final = _lti_run(e, x0, gamma, u, c, steps)
        assert out.shape == expected.shape
        assert final.shape == x.shape
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12 * np.abs(expected).max())
        np.testing.assert_allclose(final, x, rtol=0, atol=1e-12 * np.abs(x).max())


def rk4_four_stage(A, B, u_vals, u_mids, dt, x0):
    """The four-stage RK4 loop the closed-form stepper replaced."""
    x = np.array(x0, dtype=float)
    out = np.empty((len(u_vals),) + x.shape)
    out[0] = x
    rate = lambda x, u: A @ x + B @ u
    for k in range(len(u_vals) - 1):
        k1 = rate(x, u_vals[k])
        k2 = rate(x + 0.5 * dt * k1, u_mids[k])
        k3 = rate(x + 0.5 * dt * k2, u_mids[k])
        k4 = rate(x + dt * k3, u_vals[k + 1])
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(x).all():
            raise FloatingPointError(f"state diverged at t = {(k + 1) * dt:.6g}")
        out[k + 1] = x
    return out


def _nonnormal_statespace():
    # strong upper coupling, C != B^T, two ports
    rng = np.random.default_rng(7)
    a = np.triu(rng.standard_normal((5, 5)), 1) * 3.0 - np.diag([0.5, 1.0, 1.5, 2.0, 0.1])
    return LinearStateSpace(A=a, B=rng.standard_normal((5, 2)),
                            C=rng.standard_normal((2, 5)), D=np.zeros((2, 2)))


def _sparse_bank():
    blocks = [np.array([[0.0, -w], [w, 0.0]]) for w in (0.5, 1.0, 2.0, 3.5)]
    rng = np.random.default_rng(11)
    return LosslessLinear(J=scipy.sparse.block_diag(blocks, format="csr"),
                          B=rng.standard_normal((8, 1)))


class TestRk4Stepper:
    """The closed-form RK4 increment map against the four-stage loop."""

    @pytest.mark.parametrize("batch", [None, 3])
    @pytest.mark.parametrize("steps", [1, 2, 37, 5000])
    @pytest.mark.parametrize("system", ["ladder", "nonnormal", "sparse"])
    def test_matches_four_stage_loop(self, system, steps, batch):
        sys = {"ladder": lc_ladder, "nonnormal": _nonnormal_statespace,
               "sparse": _sparse_bank}[system]()
        A = sys.J if isinstance(sys, LosslessLinear) else sys.A
        n, p = sys.B.shape
        dt = 0.01
        rng = np.random.default_rng(steps)
        tail = () if batch is None else (batch,)
        t = np.arange(steps + 1) * dt
        freqs = rng.uniform(0.5, 3.0, (p,) + tail)
        u_vals = np.sin(np.multiply.outer(t, freqs))
        u_mids = midpoint_samples(u_vals)
        x0 = rng.standard_normal((n,) + tail)
        expected = rk4_four_stage(A, sys.B, u_vals, u_mids, dt, x0)
        states = _rk4_states(A, sys.B, u_vals, u_mids, dt, x0)
        assert states.shape == expected.shape == (steps + 1, n) + tail
        np.testing.assert_allclose(states, expected, rtol=0,
                                   atol=1e-12 * np.abs(expected).max())

    def test_unstable_system_names_the_same_blow_up_time(self):
        # The state grows by about 1e20 per step, so the old loop's stages
        # and the new increment leave float range in the same step.  On a
        # slow blow-up the old loop named the step at which its stage sum
        # overflowed, which can come several steps before the state does.
        sys = LinearStateSpace(A=[[1e6, 1.0], [0.0, 2e6]], B=np.eye(2),
                               C=np.eye(2), D=np.zeros((2, 2)))
        u = lambda t: np.array([np.sin(t), np.cos(2 * t)])
        dt, steps = 0.1, 50
        times = np.arange(steps + 1) * dt
        u_vals, u_mids = u(times).T, u(times[:-1] + 0.5 * dt).T
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(FloatingPointError) as old:
            rk4_four_stage(sys.A, sys.B, u_vals, u_mids, dt, np.ones(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError) as new:
                simulate_linear(sys, u, x0=np.ones(2), dt=dt, horizon=steps * dt)
        assert str(new.value) == str(old.value)
        assert "diverged at t = 1.6" in str(new.value)

    @staticmethod
    def increment_loop(A, B, u_vals, u_mids, dt, x0):
        """The step loop `_rk4_states` ran before lifting: x[k+1] = x[k] + (E x[k] + d[k])."""
        z = A * dt
        z2 = z @ z
        e = z + z2 / 2.0 + z2 @ z / 6.0 + z2 @ z2 / 24.0
        q0 = dt / 6.0 * (B + z @ B + z2 @ B / 2.0 + z2 @ (z @ B) / 4.0)
        qm = dt / 6.0 * (4.0 * B + 2.0 * (z @ B) + z2 @ B / 2.0)
        d = u_vals[:-1] @ q0.T + u_mids @ qm.T + u_vals[1:] @ (dt / 6.0 * B).T
        out = np.empty((len(u_vals), len(x0)))
        out[0] = x = x0
        for k in range(len(d)):
            x = out[k + 1] = x + (e @ x + d[k])
        return out

    def test_long_fine_run_matches_the_step_loop(self):
        # 1e5 steps of dt = 1e-5 on the ladder, lifted in blocks of 64.
        # Each run rounds x[k] + (increment) once a step, within eps/2
        # max|x|, and the lossless ladder does not grow those errors, so
        # the runs differ by at most steps eps max|x| = 2.2e-11 max|x|;
        # measured 1.9e-14.
        sys = lc_ladder()
        dt, steps = 1e-5, 100_000
        t = np.arange(steps + 1) * dt
        u_vals = np.sin(3 * t)[:, None]
        u_mids = midpoint_samples(u_vals)
        x0 = np.array([1.0, 0.0, -0.5])
        expected = self.increment_loop(sys.J, sys.B, u_vals, u_mids, dt, x0)
        states = _rk4_states(sys.J, sys.B, u_vals, u_mids, dt, x0)
        scale = np.abs(expected).max()
        np.testing.assert_allclose(states, expected, rtol=0, atol=steps * np.finfo(float).eps * scale)

    def test_a_large_sparse_bank_steps_sparse_in_place(self):
        # 2199 states in CSR: too many to lift, so the step loop runs with
        # E sparse and the drives formed in the state record itself.  The
        # two-pass drive of the old loop peaked at 2.0x the record (67.4 MiB).
        sys = memoryless_lossless_approx(1.0, 10.0, 1100).system
        assert scipy.sparse.issparse(sys.J)
        dt, steps = 1e-3, 2000
        t = np.arange(steps + 1) * dt
        u_vals = np.sin(2 * t)[:, None]
        u_mids = midpoint_samples(u_vals)
        x0 = np.random.default_rng(3).standard_normal(sys.n)
        tracemalloc.start()
        try:
            states = _rk4_states(sys.J, sys.B, u_vals, u_mids, dt, x0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * states.nbytes  # measured 1.13x
        expected = rk4_four_stage(sys.J, sys.B, u_vals, u_mids, dt, x0)
        np.testing.assert_allclose(states, expected, rtol=0, atol=1e-12 * np.abs(expected).max())


class TestBatchedLosslessCheck:
    """`check_lossless` against its per-trial loop of implicit midpoint
    steps, each a solve with I - h A / 2, written out here.

    On a lossless system both ledgers are rounding, about 1e-13 of the
    input work, so they cannot agree to any relative digit: both must sit
    below `_ENERGY_TOL`.  On the lossy ladder (a 0.05 resistor across its
    last state) the ledger is h sum_k xbar_k^T A xbar_k, about 2e-2 of the
    work, and the two agree to 1e-9 relative.
    """

    @staticmethod
    def per_trial(sys, trials, seed, horizon=2.0, h=1e-3):
        a, b, c, d = _port_matrices(sys)
        n = len(b)
        lhs, rhs = np.eye(n) - 0.5 * h * a, np.eye(n) + 0.5 * h * a
        worst = 0.0
        for trial in range(trials):
            u = _smooth_test_input(derive_rng(seed, trial), sys.p, horizon)
            x, work, scale = np.zeros(n), 0.0, 0.0
            for k in range(int(round(horizon / h))):
                u_mid = u((k + 0.5) * h)
                x_next = np.linalg.solve(lhs, rhs @ x + h * b @ u_mid)
                rate = float((c @ (x + x_next) / 2 + d @ u_mid) @ u_mid)
                work, scale, x = work + h * rate, scale + h * abs(rate), x_next
            worst = max(worst, abs(0.5 * x @ x - work) / max(scale, 1e-300))
        return worst

    @pytest.mark.parametrize("trials", [1, 8])
    @pytest.mark.parametrize("system", ["ladder", "skew_d_two_port", "lossy_ladder"])
    def test_matches_per_trial_loop(self, system, trials):
        if system == "skew_d_two_port":
            rng = np.random.default_rng(5)
            j = rng.standard_normal((4, 4))
            sys = LosslessLinear(J=j - j.T, B=rng.standard_normal((4, 2)),
                                 D=np.array([[0.0, 0.7], [-0.7, 0.0]]))
        else:
            sys = lc_ladder()
            if system == "lossy_ladder":
                sys = LinearStateSpace(A=sys.J - np.diag([0.0, 0.0, 0.05]), B=sys.B,
                                       C=sys.B.T, D=sys.D)
        verdict = check_lossless(sys, trials=trials, seed=3)
        expected = self.per_trial(sys, trials, seed=3)
        if system == "lossy_ladder":
            assert verdict.energy_residual == pytest.approx(expected, rel=1e-9)
            assert expected > 1e-3
        else:
            assert max(verdict.energy_residual, expected) <= _ENERGY_TOL
        structural = check_lossless(sys, trials=0)
        assert verdict.passed == (structural.passed and expected <= _ENERGY_TOL)


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


def test_energy_ledger_net_work_needs_even_times():
    t = np.linspace(0.0, 1.0, 101) ** 2
    ledger = EnergyLedger(times=t, total_energy=np.zeros_like(t), work_rate=t)
    with pytest.raises(ValueError, match="evenly spaced"):
        ledger.net_work()


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

    def test_negative_trial_count_rejected(self, fixture):
        with pytest.raises(ValueError, match="trials must be nonnegative"):
            check_lossless(fixture, trials=-1)

    def test_damped_system_fails(self):
        sys = LinearStateSpace(
            A=-np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 2)), D=np.zeros((1, 1))
        )
        v = check_lossless(sys, trials=2)
        assert not v.passed
        assert v.skew_residual == pytest.approx(4.0)

    def test_diverging_run_raises(self):
        sys = LinearStateSpace(A=1e3 * np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 2)),
                               D=np.zeros((1, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="state diverged at t = "):
                check_lossless(sys, trials=2)

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


class TestLosslessBanks:
    """Exactly lossless banks pass `check_lossless` at any w_max h.

    The memoryless banks of 800, 1100, 2000 and 4623 harmonics have 1599
    (dense), 2199, 3999 and 9245 (CSR) states and w_max h = 0.25, 0.35,
    0.63 and 1.45.  Under RK4 at h = 1e-3 the first three read 5.9e-9,
    1.5e-8 and 7.5e-8 (the last two rejected), and the dense one took 9 s.
    The midpoint run, one Tustin-warped kernel convolution on rotation
    blocks, reads about 1e-15-1e-14 for each, in 0.03-0.11 s with one BLAS
    thread.
    """

    @pytest.mark.parametrize("harmonics", [800, 1100, 2000, 4623])
    def test_bank_passes_within_a_time_budget(self, harmonics):
        system = memoryless_lossless_approx([[1.0]], 10.0, harmonics).system
        assert system.n == 2 * harmonics - 1
        start = time.perf_counter()
        verdict = check_lossless(system, trials=2)
        elapsed = time.perf_counter() - start
        assert verdict.passed and verdict.skew_residual == 0.0
        assert verdict.energy_residual <= _ENERGY_TOL
        assert elapsed < 1.0

    def test_memory_stays_chunked(self):
        # the closed form's `CHUNK_ELEMENTS` tables set the peak, not n:
        # about 8 MiB at 9245 states
        system = memoryless_lossless_approx([[1.0]], 10.0, 4623).system
        tracemalloc.start()
        try:
            check_lossless(system, trials=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_damped_bank_is_rejected(self):
        bank = memoryless_lossless_approx([[1.0]], 10.0, 100).system
        sys = LinearStateSpace(A=bank.J - 1e-6 * np.eye(bank.n), B=bank.B, C=bank.B.T, D=bank.D)
        verdict = check_lossless(sys, trials=2)
        assert not verdict.passed
        assert verdict.energy_residual > 1e3 * _ENERGY_TOL

    def test_mismatched_port_of_a_sparse_bank_is_rejected(self):
        bank = memoryless_lossless_approx([[1.0]], 10.0, 1100).system
        assert scipy.sparse.issparse(bank.J)
        sys = LinearStateSpace(A=bank.J, B=bank.B, C=(1.0 + 1e-6) * bank.B.T, D=bank.D)
        verdict = check_lossless(sys, trials=2)
        assert not verdict.passed
        assert verdict.energy_residual > 1e3 * _ENERGY_TOL


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

    @pytest.mark.parametrize("obj", [
        LosslessLinear(J=np.zeros((2, 2)), B=np.zeros((2, 0))),
        LosslessLinear(J=np.array([[0.0, 1.0], [-1.0, 0.0]]), B=np.zeros((2, 0))),
        LinearStateSpace(A=[[-1.0]], B=np.zeros((1, 0)), C=np.zeros((0, 1)), D=np.zeros((0, 0))),
        np.zeros((0, 0)),
        Trajectory(dt=0.1, values=np.zeros((5, 0, 0))),
    ], ids=["zero-J", "rotation", "dense", "direct-term", "kernel"])
    def test_no_ports_is_refused(self, obj):
        with pytest.raises(ValueError, match="no ports"):
            check_dissipative(obj)

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

    @pytest.mark.parametrize("n_samples, dt, stride", [(4001, 0.01, 1), (70001, 1e-3, 2)])
    def test_default_kernel_grid_stops_at_the_decimated_nyquist(self, n_samples, dt, stride):
        # the transform sums every stride-th sample, so a frequency above
        # pi / (stride dt) aliases; the default grid keeps what is below
        g = Trajectory(dt=dt, values=np.exp(-np.arange(n_samples) * dt))
        assert _kernel_stride(g) == stride
        nyquist = np.pi / (stride * dt)
        full = _default_frequencies(20.0 * np.pi / g.duration)
        v = check_dissipative(g)
        assert v.frequencies.max() <= nyquist
        np.testing.assert_array_equal(v.frequencies, full[full <= nyquist])
        given = check_dissipative(g, full)  # a caller's grid stays as given
        np.testing.assert_array_equal(given.frequencies, full)

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


def _rotated_ladder(seed):
    """The LC ladder in rotated coordinates Q J Q^T, Q B: its J is singular
    in exact arithmetic (odd state count) but not in floating point."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    lc = lc_ladder()
    return q @ np.asarray(lc.J) @ q.T, q @ lc.B


class TestDissipativeNearPoles:
    @pytest.mark.parametrize("seed", range(6))
    def test_rotated_lossless_ladder_sits_on_the_boundary(self, seed):
        # At w = 0 the resolvent of -J has reciprocal condition below eps
        # (1e-17 for seed 0): it is the pole at the origin, skipped like an
        # exactly singular one, instead of a -3.8e16 Hermitian part.
        j, b = _rotated_ladder(seed)
        v = check_dissipative(LosslessLinear(J=j, B=b))
        assert v.dissipative
        assert abs(v.min_eigenvalue) < 1e-9
        assert 0.0 not in v.frequencies

    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_rotated_ladder_is_dissipative_in_any_port_units(self, scale):
        # next to the skipped pole at w = 0 the Hermitian part carries
        # rounding of order eps |B|^2 / w: -1.6e-5 at scale 1e3, far over
        # PSD_TOL but within PSD_TOL of |ghat(jw)| at that frequency
        j, b = _rotated_ladder(0)
        v = check_dissipative(LosslessLinear(J=j, B=scale * b))
        assert v.dissipative
        assert abs(v.min_eigenvalue) < 1e-9 * scale**2

    def test_rotated_negative_resistance_is_still_rejected(self):
        # the same rotated ladder with a negative direct term: Hermitian part
        # -1 at every frequency kept
        j, b = _rotated_ladder(0)
        sys = LinearStateSpace(A=j, B=b, C=b.T, D=np.array([[-0.5]]))
        v = check_dissipative(sys)
        assert not v.dissipative
        assert v.min_eigenvalue == pytest.approx(-1.0, abs=1e-9)

    def test_stateless_system_is_its_direct_term(self):
        sys = LosslessLinear(J=np.zeros((0, 0)), B=np.zeros((0, 1)), D=np.zeros((1, 1)))
        v = check_dissipative(sys)
        assert v.dissipative and v.min_eigenvalue == 0.0
        assert v.frequencies.size == 201

    def test_active_load_is_rejected(self):
        # x' = (J + B B^T) x + B u: the port feeds energy back, Re ghat < 0
        lc = lc_ladder()
        j = np.asarray(lc.J)
        sys = LinearStateSpace(A=j + lc.B @ lc.B.T, B=lc.B, C=lc.B.T, D=np.zeros((1, 1)))
        v = check_dissipative(sys)
        assert not v.dissipative
        assert v.min_eigenvalue < -0.1


def _resonance(w0, zeta, direct):
    """g(s) = D - 3 zeta w0 s / (s^2 + 2 zeta w0 s + w0^2), plus 1 / (s + 1)
    when D = 0: Re g(j w0) = D - 1.5 (+ 1 / (1 + w0^2)), negative in a
    band around w0 of relative width about zeta (D = 1) or 10 zeta (D = 0)."""
    a = np.array([[0.0, 1.0], [-w0**2, -2.0 * zeta * w0]])
    b, c = np.array([[0.0], [1.0]]), np.array([[0.0, -3.0 * zeta * w0]])
    if direct == 0:
        a = scipy.linalg.block_diag(a, -1.0)
        b, c = np.vstack([b, [[1.0]]]), np.hstack([c, [[1.0]]])
    return LinearStateSpace(A=a, B=b, C=c, D=np.array([[float(direct)]]))


class TestHamiltonianCrossings:
    """A dense state-space scan reads the global minimum over w by the
    level-set iteration on the Hamiltonian's imaginary eigenvalues, and the
    limit at w -> inf, so a negative band is seen however narrow.  On a
    201-point 7%-spaced log grid alone, 79-197 of 200 resonances with
    zeta = 0.03 down to 1e-3 and D = 1, and 3-182 with D = 0, read
    dissipative."""

    @pytest.mark.parametrize("direct", [1, 0])
    @pytest.mark.parametrize("zeta", [0.03, 0.01, 1e-3])
    def test_narrow_resonances_are_rejected(self, zeta, direct):
        for w0 in np.random.default_rng(14).uniform(0.5, 5.0, 25):
            v = check_dissipative(_resonance(w0, zeta, direct))
            # the Hermitian part at w0 is 2 Re g(j w0); the global minimum is at
            # or below it, up to the few eps of rounding in each reading (D = 1
            # has its minimum at w0 itself)
            at_w0 = 2.0 * (direct - 1.5 + (1.0 / (1.0 + w0**2) if direct == 0 else 0.0))
            assert not v.dissipative, w0
            assert v.min_eigenvalue <= at_w0 + 8 * EPS * abs(at_w0), w0

    @pytest.mark.parametrize("zeta", [0.03, 0.01])
    def test_a_wide_band_reads_its_depth(self, zeta):
        # D = 0: the band's minimum sits off w0, where the crossings' midpoint
        # alone read 0.49-1.0 of a dense local scan's
        for w0 in np.random.default_rng(14).uniform(0.5, 5.0, 25):
            sys = _resonance(w0, zeta, 0)
            scan = check_dissipative(sys, np.linspace(0.5 * w0, 1.5 * w0, 5001)).min_eigenvalue
            assert check_dissipative(sys).min_eigenvalue <= scan + 1e-8 * abs(scan) < 0.0, w0

    @pytest.mark.parametrize("w0", [5.0, 50.0, 200.0])
    def test_a_passive_dip_reads_its_depth(self, w0):
        # 1 + 1 / (s + 1) - zeta w0 s / (s^2 + 2 zeta w0 s + w0^2) is passive; its
        # Hermitian part dips from 2 at w -> inf to about 1 near w0, a band
        # that no crossing of -PSD_TOL marks
        res = _resonance(w0, 0.01, 0)
        sys = LinearStateSpace(A=res.A, B=res.B, C=res.C / [3.0, 3.0, 1.0], D=np.array([[1.0]]))
        scan = check_dissipative(sys, np.linspace(0.99 * w0, 1.01 * w0, 20001)).min_eigenvalue
        v = check_dissipative(sys)
        assert v.dissipative
        assert v.min_eigenvalue == pytest.approx(scan, rel=1e-8)

    @pytest.mark.parametrize("c, d, dissipative", [
        (100.0, -1e-6, False), (1.0, -1e-6, False), (100.0, -4e-9, True),
    ])
    def test_the_limit_at_infinity_is_judged(self, c, d, dissipative):
        # c / (s + 1) + d: 2 Re g tends to 2 d as w -> inf, past every
        # crossing of -PSD_TOL; 2 d = -2e-6 is 200 PSD_TOL below zero
        v = check_dissipative(LinearStateSpace(A=[[-1.0]], B=[[1.0]], C=[[c]], D=[[d]]))
        assert v.dissipative is dissipative
        assert v.min_eigenvalue == pytest.approx(2.0 * d, rel=1e-12)

    @pytest.mark.parametrize("d, dissipative", [(-5e-9, True), (-4e-9, True), (-6e-9, False)])
    def test_a_limit_on_the_tolerance(self, d, dissipative):
        # at d = -5e-9 the limit 2 d is -PSD_TOL itself, where a first level of
        # -PSD_TOL made R = D + D^T - level I singular; it sits exactly on the
        # tolerance, so the verdict holds
        v = check_dissipative(LinearStateSpace(A=[[-1.0]], B=[[1.0]], C=[[1.0]], D=[[d]]))
        assert v.dissipative is dissipative
        assert v.min_eigenvalue == 2.0 * d

    def test_a_given_grid_is_used_as_given(self):
        # the 201-point log grid misses this band; passed in, it is not
        # extended, and the level set finds it from a few points
        sys = _resonance(1.3, 1e-3, 1)
        grid = _default_frequencies(np.linalg.norm(sys.A, 2))
        v = check_dissipative(sys, grid)
        assert np.array_equal(v.frequencies, grid)
        assert v.dissipative
        found = check_dissipative(sys)
        assert not found.dissipative and found.frequencies.size < 30

    def test_passive_controls_are_accepted(self):
        # J - R with R PSD, C = B^T and a D with PSD symmetric part is positive
        # real; the ladder's own imaginary modes are crossings and poles both
        assert check_dissipative(lc_ladder()).dissipative
        rng = np.random.default_rng(15)
        for _ in range(50):
            m, l, d = rng.standard_normal((6, 6)), rng.standard_normal((6, 6)), rng.standard_normal((2, 2))
            b = rng.standard_normal((6, 2))
            sys = LinearStateSpace(A=m - m.T - 0.1 * l @ l.T, B=b, C=b.T, D=0.1 * d @ d.T + d - d.T)
            assert check_dissipative(sys).dissipative


EPS = np.finfo(float).eps


def _scipy_resolvent(A, B, C, D, omegas):
    """The retired dense scan, the reference: one scipy solve per frequency,
    skipped as a pole when it raises LinAlgError or warns LinAlgWarning
    (LAPACK's estimated 1-norm reciprocal condition number below eps)."""
    eye = np.eye(A.shape[0])
    rows, kept = [], []
    for w in omegas:
        with warnings.catch_warnings():
            warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
            try:
                rows.append(C @ scipy.linalg.solve(1j * w * eye - A, B) + D)
            except (np.linalg.LinAlgError, scipy.linalg.LinAlgWarning):
                continue
        kept.append(w)
    return np.reshape(rows, (len(rows),) + D.shape), np.array(kept)


class TestDenseResolvent:
    """The batched numpy scan keeps the frequencies the scipy scan kept,
    down to the eps boundary: the default grid and w (1 +- k eps) around
    every eigenfrequency, k = 1/4 .. 64."""

    @pytest.mark.parametrize("active", [False, True], ids=["lc-ladder", "active-load"])
    def test_keeps_the_frequencies_the_scipy_scan_kept(self, active):
        lc = lc_ladder()
        a = np.asarray(lc.J) + (lc.B @ lc.B.T if active else 0.0)  # J + b b^T is non-normal
        b, c, d = lc.B, lc.B.T, np.zeros((1, 1))
        poles = np.unique(np.abs(np.linalg.eigvals(a).imag))
        k = 2.0 ** np.arange(-2, 7)
        near = (poles[:, None] * (1.0 + np.concatenate([k, -k]) * EPS)).ravel()
        omegas = np.concatenate([_default_frequencies(np.linalg.norm(a, 2)), poles, near])
        ghat, kept = _dense_resolvent(a, b, c, d, omegas)
        expected, expected_kept = _scipy_resolvent(a, b, c, d, omegas)
        assert np.array_equal(kept, expected_kept)
        if not active:  # the ladder's poles are on the axis: the boundary cuts the k sweep
            assert 0 < np.isin(near, kept).sum() < near.size
        # each solve carries rounding of eps times its condition number
        cond = np.linalg.cond(1j * kept[:, None, None] * np.eye(3) - a, 1)
        bound = 16 * EPS * cond * np.abs(expected).max(axis=(1, 2))
        assert (np.abs(ghat - expected).max(axis=(1, 2)) <= bound).all()

    def test_rejects_non_finite_frequencies(self, fixture):
        with pytest.raises(ValueError, match="frequencies contains non-finite entries"):
            check_dissipative(fixture, frequencies=np.array([1.0, np.nan]))


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

    @pytest.mark.parametrize("shape", [(50,), (50, 1)])
    def test_one_port_shapes_share_the_verdict(self, shape):
        vals = np.exp(-np.arange(50) * 0.1)
        reference = check_reciprocal(Trajectory(dt=0.1, values=vals[:, None, None]),
                                     SignatureMatrix.identity(1))
        v = check_reciprocal(Trajectory(dt=0.1, values=vals.reshape(shape)),
                             SignatureMatrix.identity(1))
        assert v == reference
        assert v.reciprocal and v.max_residual == 0.0

    def test_non_square_stack_rejected(self):
        g = Trajectory(dt=0.1, values=np.zeros((50, 2, 3)))
        with pytest.raises(ValueError, match=r"kernel samples must be square matrices"):
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

    @pytest.mark.parametrize("tau, harmonics", [(0.1, 800), (10.0, 1100)])
    def test_a_bank_reverses_to_rounding(self, tau, harmonics, smooth_input):
        # tau = 0.1: 1599 dense states up to w_max h = 25, past the |w h| =
        # 2 sqrt 2 where RK4 turns unstable on the imaginary axis; the
        # midpoint rule is stable at any w h.  tau = 10: 2199 states, a CSR
        # generator.
        bank = memoryless_lossless_approx(1.0, tau, harmonics).system
        v = check_time_reversible(bank, SignatureMatrix.identity(1), smooth_input)
        assert v.reversible
        assert v.max_deviation <= 1e-12

    @pytest.mark.parametrize("system", ["chain", "damped"])
    def test_a_sparse_generator_that_is_not_rotation_blocks_steps_sparse(self, system, smooth_input):
        # a skew chain is reversible under R = diag((-1)^i) with Sigma = 1; the
        # damped pair is neither reversible nor lossless.  The sparse LU step
        # agrees with the dense step to rounding, on both verdicts.
        if system == "chain":
            k = np.linspace(1.0, 3.0, 99)
            a = np.diag(k, -1) - np.diag(k, 1)
            make = lambda m: LosslessLinear(J=m, B=np.eye(100, 1))
        else:
            a = np.array([[-1.0, 1.0], [0.0, -1.0]])
            make = lambda m: LinearStateSpace(A=m, B=np.ones((2, 1)), C=np.ones((1, 2)),
                                              D=np.zeros((1, 1)))
        sparse, dense = make(scipy.sparse.csr_matrix(a)), make(a)
        assert scipy.sparse.issparse(_port_matrices(sparse)[0])
        one = SignatureMatrix.identity(1)
        rev = [check_time_reversible(sys, one, smooth_input).max_deviation for sys in (sparse, dense)]
        assert rev[0] == pytest.approx(rev[1], rel=1e-9, abs=1e-12)
        assert (rev[0] <= 1e-12) == (system == "chain")
        energy = [check_lossless(sys, trials=2) for sys in (sparse, dense)]
        assert energy[0].passed == energy[1].passed == (system == "chain")
        assert energy[0].energy_residual == pytest.approx(energy[1].energy_residual, rel=1e-9, abs=1e-12)

    def test_a_reversed_run_that_leaves_float_range_raises(self, smooth_input):
        # the reversed experiment steps dv/dt = +500 v and overflows near t = 1.42
        sys = LinearStateSpace(A=-500.0 * np.eye(2), B=np.eye(2), C=np.eye(2), D=np.zeros((2, 2)))
        u = Trajectory(dt=smooth_input.dt, values=np.stack([smooth_input.values] * 2, axis=1))
        with pytest.raises(FloatingPointError, match="state diverged at t = "):
            check_time_reversible(sys, SignatureMatrix.identity(2), u)
