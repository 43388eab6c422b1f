"""Tests for the Picard passes of `statespace._rk4`.

`_rk4` builds a record by passes over windows of steps, each rebuilt as
running sums of its RK4 increments, and commits the rows that equal their
guesses bit for bit.  The library keeps no step loop beside it, so the
reference is `step_loop` below: x[k+1] = x[k] + (h/6)(k1 + 2 k2 + 2 k3 + k4),
one state at a time.  Every record here must equal it bit for bit, raise
where it raises, and take at most `steps` passes, whatever the windows:
`schedule` forces them four ways besides the counted default.
"""

import math
import warnings

import numpy as np
import pytest

from lossless import measurement, statespace
from lossless.approx_nonlinear import _wrapped_paths, simulate_wrapped, wrap_lossless
from lossless.measurement import MeasuredSystem, _supply_aux_path, measured_lc
from lossless.statespace import _RK4_LOOKAHEAD, _RK4_PROBE, _RK4_WINDOW, _input_samples, _rk4, integrate_ode


def step_loop(rate, x0, u_vals, u_mids, h):
    x = np.array(x0, dtype=float)
    out = [x]
    for k in range(len(u_vals) - 1):
        k1 = rate(x, u_vals[k])
        k2 = rate(x + 0.5 * h * k1, u_mids[k])
        k3 = rate(x + 0.5 * h * k2, u_mids[k])
        k4 = rate(x + h * k3, u_vals[k + 1])
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(x).all():
            raise FloatingPointError(f"state diverged at t = {(k + 1) * h:.6g}")
        out.append(x)
    return np.stack(out)


class _Counted:
    """A rate that counts its calls: four per pass."""

    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, x, u):
        self.calls += 1
        return self.f(x, u)


@pytest.fixture(params=["counted", "windows", "narrow", "rows", "brief"])
def schedule(request, monkeypatch):
    """How `_Window` picks passes.  `counted`: its rule; `windows`: a
    burst may lose without end, so the first never ends; `narrow` as well,
    with windows of at most 3 rows aiming at 2 times the rows settled;
    `rows`: no burst starts; `brief`: each window pass is booked dear, so
    every burst ends after one pass, and the next starts `_RK4_PROBE`
    one-row passes later."""
    if request.param in ("windows", "narrow"):
        monkeypatch.setattr(statespace, "_RK4_LOSS", math.inf)
    if request.param == "narrow":
        monkeypatch.setattr(statespace, "_RK4_WINDOW", 3)
        monkeypatch.setattr(statespace, "_RK4_LOOKAHEAD", 2)
    if request.param == "rows":
        monkeypatch.setattr(statespace, "_RK4_PROBE", 10**9)
    if request.param == "brief":
        monkeypatch.setattr(statespace, "_RK4_PASS", 1e9)
        monkeypatch.setattr(statespace, "_RK4_BACKOFF", 1)
    return request.param


def van_der_pol(x, u):
    """Forced Van der Pol, for one state (2,) or any stack (..., 2), with
    input rows (..., 1): elementwise, so each row is its own."""
    return np.stack([x[..., 1], 2.0 * (1.0 - x[..., 0] ** 2) * x[..., 1] - x[..., 0] + u[..., 0]], axis=-1)


def sine_samples(steps, h, ports=1):
    t = np.arange(steps + 1) * h
    u_vals = np.stack([np.sin((i + 1) * t) for i in range(ports)], axis=1)
    u_mids = np.stack([np.sin((i + 1) * (t[:-1] + 0.5 * h)) for i in range(ports)], axis=1)
    return u_vals, u_mids


def run(f, x0, u_vals, u_mids, h):
    """`_rk4` with `f` as its one-row and its stacked rate, and its passes."""
    rate, stack = _Counted(f), _Counted(f)
    path = _rk4(rate, x0, u_vals, u_mids, h, stack)
    return path, (rate.calls + stack.calls) // 4


@pytest.mark.parametrize("steps", [
    1, 2, _RK4_PROBE, _RK4_PROBE + 1, _RK4_PROBE + _RK4_LOOKAHEAD, _RK4_PROBE + _RK4_LOOKAHEAD + 1,
    _RK4_WINDOW, _RK4_WINDOW + 1, _RK4_PROBE + _RK4_WINDOW, _RK4_PROBE + _RK4_WINDOW + 1, 1000,
])
def test_a_smooth_field_is_the_step_loop(schedule, steps):
    h = 1e-3
    u_vals, u_mids = sine_samples(steps, h)
    path, passes = run(van_der_pol, [2.0, 0.0], u_vals, u_mids, h)
    assert path.shape == (steps + 1, 2)
    np.testing.assert_array_equal(path, step_loop(van_der_pol, [2.0, 0.0], u_vals, u_mids, h))
    assert passes <= steps
    if schedule == "windows" and steps == 1000:
        assert passes <= steps // 10  # many steps per pass where windows run


def test_a_batch_of_states_takes_one_input_row(schedule):
    # states B + (n,) with B = (2, 3); the stack's inputs are rows (w, 1, 1, p)
    h, steps = 2e-2, 300
    u_vals, u_mids = sine_samples(steps, h, ports=2)
    x0 = np.linspace(-1.0, 1.0, 12).reshape(2, 3, 2)

    def pendulum(x, u):
        return np.stack([x[..., 1], -np.sin(x[..., 0]) + u[..., 0] * u[..., 1]], axis=-1)

    rows = [u.reshape(len(u), 1, 1, 2) for u in (u_vals, u_mids)]
    path, passes = run(pendulum, x0, *rows, h)
    assert path.shape == (steps + 1, 2, 3, 2) and passes <= steps
    np.testing.assert_array_equal(path, step_loop(pendulum, x0, u_vals, u_mids, h))


@pytest.mark.parametrize("field, h", [
    (lambda x, u: -x, 2.7),  # h lambda = -2.7, inside RK4's real edge at -2.785
    (lambda x, u: np.stack([x[..., 1], -x[..., 0]], axis=-1), 2.8),  # h omega = 2.8 < 2 sqrt(2)
])
def test_a_field_at_the_stability_edge_settles_slowly_but_exactly(schedule, field, h):
    steps = 300
    u_vals, u_mids = np.zeros((steps + 1, 1)), np.zeros((steps, 1))
    x0 = np.array([1.0, 0.5])
    path, passes = run(field, x0, u_vals, u_mids, h)
    np.testing.assert_array_equal(path, step_loop(field, x0, u_vals, u_mids, h))
    assert passes <= steps
    assert 0.0 < np.abs(path[-1]).max() < 1.0  # decays, slowly


def test_a_field_that_turns_nan_mid_record(schedule):
    # x' = sqrt(2 - x) from 0 reaches 2 near t = 2 sqrt(2); a stage past it reads nan
    h, steps = 0.05, 100
    field = lambda x, u: np.sqrt(2.0 - x)
    u_vals, u_mids = np.zeros((steps + 1, 1)), np.zeros((steps, 1))
    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError) as want:
        step_loop(field, [0.0], u_vals, u_mids, h)
    assert 2.5 < float(str(want.value).split("= ")[1]) < 3.0
    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError) as got:
        run(field, [0.0], u_vals, u_mids, h)
    assert str(got.value) == str(want.value)


def test_signed_zeros_settle_by_their_bits(schedule):
    # a stays -0 (its increments are -0), but a fresh guess extending it
    # reads +0, which == calls equal; b's rate tells the two apart
    steps, h = 60, 0.1
    field = lambda x, u: np.stack([u[..., 0], np.copysign(1.0, x[..., 0])], axis=-1)
    u_vals, u_mids = np.full((steps + 1, 1), -0.0), np.full((steps, 1), -0.0)
    path, _ = run(field, [-0.0, 0.0], u_vals, u_mids, h)
    np.testing.assert_array_equal(path, step_loop(field, [-0.0, 0.0], u_vals, u_mids, h))
    assert np.signbit(path[:, 0]).all() and path[-1, 1] < 0.0


def test_a_diverging_field_is_reported_at_the_same_time(schedule):
    # x' = x^3 from 0.5 blows up at t = 2; dt = 0.1 overflows a few steps later
    h, steps = 0.1, 40
    field = lambda x, u: x**3
    u_vals, u_mids = np.zeros((steps + 1, 1)), np.zeros((steps, 1))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FloatingPointError) as want:
        step_loop(field, [0.5], u_vals, u_mids, h)
    assert str(want.value) == "state diverged at t = 2.2"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a stacked record warns of no overflow
        with pytest.raises(FloatingPointError) as got:
            run(field, [0.5], u_vals, u_mids, h)
    assert str(got.value) == str(want.value)


def test_a_diverging_wrapped_sweep_is_reported_as_one_system_alone(schedule):
    # `test_overflow_reported_with_time`'s system from 0.5, as a batch and
    # stacked: only the charge 1e10 leaves float range
    samples = _input_samples(lambda t: 0.0, 1, 0.1, 4.0)
    field, output = (lambda x, v: x**3), (lambda x, v: x)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FloatingPointError) as want:
        simulate_wrapped(wrap_lossless(field, output, [0.5], 1e10), lambda t: 0.0, dt=0.1, horizon=4.0)
    assert str(want.value) == "state diverged at t = 2.2"
    with pytest.raises(FloatingPointError) as got:
        _wrapped_paths(field, output, np.full(1, 0.5), np.sqrt(2 * np.array([1.0, 1e10])), *samples, stacked=True)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("energies", [[1e2, 1e3, 1e4, 1e5, 1e6], [[10.0, 1e3], [1e4, 1e6]]])
def test_the_stacked_sweep_is_the_one_row_sweep(schedule, energies):
    # the CLI's convergence sweep, in any batch shape of charges
    samples = _input_samples(lambda s: 0.1 * np.sin(s), 1, 2e-3, 2.0)
    args = (lambda x, v: -x + v, lambda x, v: x, np.ones(1), np.sqrt(2.0 * np.asarray(energies)), *samples)
    for stacked, alone in zip(_wrapped_paths(*args, stacked=True), _wrapped_paths(*args)):
        np.testing.assert_array_equal(stacked, alone)


class _Passes:
    """Counts the one-row and the window passes of the `_rk4` records run
    while it is installed: a window pass settles once, a one-row pass
    only increments."""

    def __init__(self, monkeypatch):
        self.increments = self.windows = 0
        increment, settle = statespace._increment, statespace._settle

        def counted_increment(*args):
            self.increments += 1
            return increment(*args)

        def counted_settle(*args):
            self.windows += 1
            return settle(*args)

        monkeypatch.setattr(statespace, "_increment", counted_increment)
        monkeypatch.setattr(statespace, "_settle", counted_settle)

    def of(self, op):
        self.increments = self.windows = 0
        op()
        return self.increments - self.windows, self.windows


def test_a_record_takes_the_same_passes_on_every_run(monkeypatch):
    # the CLI's convergence sweep (1000 steps, 5 charges) and kalman_M2hat's
    # 2048-step supply path, past `_aux_path`'s memo, whose windows pay; and
    # a dense 16-state supply path at h w = 0.1, whose windows lose, so the
    # ledger ends its bursts: the passes are the inputs' alone, whatever the host
    samples = _input_samples(lambda s: 0.1 * np.sin(s), 1, 2e-3, 2.0)
    roots = np.sqrt(2.0 * np.array([1e2, 1e3, 1e4, 1e5, 1e6]))
    lc, dense = measured_lc(), random_system(16)
    dt = 0.1 / np.abs(np.linalg.eigvals(dense.J)).max()

    def sweep():
        _wrapped_paths(lambda x, v: -x + v, lambda x, v: x, np.ones(1), roots, *samples, stacked=True)

    def supply_path():
        measurement._aux_path.__wrapped__(lc.J.tobytes(), lc.B.tobytes(), lc.x0.tobytes(),
                                          1.0, 10.0, 1e-2 / 2048, 2048)

    def dense_path():
        measurement._aux_path.__wrapped__(dense.J.tobytes(), dense.B.tobytes(), dense.x0.tobytes(),
                                          0.2, 10.0, dt, 512)

    passes = _Passes(monkeypatch)
    assert [passes.of(sweep) for _ in range(2)] == [(8, 47)] * 2
    assert [passes.of(supply_path) for _ in range(2)] == [(8, 40)] * 2
    assert [passes.of(dense_path) for _ in range(2)] == [(473, 28)] * 2


def test_a_field_that_stiffens_ends_a_paying_burst(monkeypatch):
    # Van der Pol whose damping steps from 0.2 to 8 at t = 10: the first
    # burst pays, then loses past its best once the field stiffens, and
    # later bursts back off
    def field(x, u):
        return np.stack([x[..., 1], u[..., 0] * (1.0 - x[..., 0] ** 2) * x[..., 1] - x[..., 0]], axis=-1)

    h, steps = 2e-2, 1500
    t = np.arange(steps + 1) * h
    u_vals, u_mids = (np.where(s < 10.0, 0.2, 8.0)[:, None] for s in (t, t[:-1] + 0.5 * h))
    passes = _Passes(monkeypatch)
    assert passes.of(lambda: np.testing.assert_array_equal(
        _rk4(field, np.array([2.0, 0.0]), u_vals, u_mids, h, field),
        step_loop(field, [2.0, 0.0], u_vals, u_mids, h))) == (933, 105)


def test_bursts_that_never_pay_back_off(monkeypatch):
    # every window pass booked dear: the first burst, at row `_RK4_PROBE`,
    # ends after one pass, and the next waits `_RK4_BACKOFF` times as long,
    # so 1000 steps take two window passes
    monkeypatch.setattr(statespace, "_RK4_PASS", 1e9)
    h, steps = 1e-3, 1000
    u_vals, u_mids = sine_samples(steps, h)
    passes = _Passes(monkeypatch)
    assert passes.of(lambda: run(van_der_pol, [2.0, 0.0], u_vals, u_mids, h))[1] == 2
    assert _RK4_PROBE * (1 + statespace._RK4_BACKOFF) < steps < _RK4_PROBE * statespace._RK4_BACKOFF**2


def random_system(n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    return MeasuredSystem(J=(a - a.T) / math.sqrt(n), B=b / np.linalg.norm(b), x0=rng.standard_normal(n))


def closed_loop(system, km, energy):
    """The supply path's rate for one state, written as `_aux_path` wrote it
    before its stacked form: a gemv and a dot."""
    j, b, n, root = system.J, system.B, system.B.shape[0], math.sqrt(2.0 * energy)

    def rate(z, _):
        y = b @ z[:n]
        return np.append(j @ z[:n] + km * (z[n] / root - 1.0) * y * b, km / root * y**2)

    return rate, np.append(system.x0, root)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 17, 33])
def test_the_supply_path_of_a_dense_system_is_the_step_loop(schedule, n):
    system, km, energy, steps = random_system(n), 0.2, 10.0, 300
    dt = 0.02 / max(1.0, np.abs(np.linalg.eigvals(system.J)).max())
    measurement._aux_path.cache_clear()
    final, drift = _supply_aux_path(system, km, energy, dt, steps)
    rate, z0 = closed_loop(system, km, energy)
    path = step_loop(rate, z0, np.zeros(steps + 1), np.zeros(steps), dt)
    root = math.sqrt(2.0 * energy)
    np.testing.assert_array_equal(final, path[-1, :n])
    np.testing.assert_array_equal(drift, km * (path[:, n] / root - 1.0) * (path[:, :n] @ system.B))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 16, 17, 64])
@pytest.mark.parametrize("rows", [1, 2, 7, 24, 256])
def test_the_supply_stack_rounds_each_row_as_alone(n, rows):
    # one stacked BLAS product, `x @ b` or `x @ j.T`, rounds many of these
    # rows otherwise than `b @ x` and `j @ x` do for one state, and an
    # array's y ** 2 otherwise than a numpy scalar's
    rng = np.random.default_rng(n * 1000 + rows)
    j, b = rng.standard_normal((n, n)), rng.standard_normal(n)
    rate, stack = measurement._supply_rates(j, b, 0.7, 2.5)
    z = rng.standard_normal((rows, n + 1))
    z[:, n] += 2.5
    stacked = stack(z, None)
    for i in range(rows):
        assert np.array_equal(stacked[i], rate(z[i], None))


def test_the_supply_path_stacks_only_small_states(monkeypatch):
    # above `_SUPPLY_STACK_STATES` a stacked row's gemv makes windows lose,
    # so the record runs one-row passes only
    cap, passes = measurement._SUPPLY_STACK_STATES, _Passes(monkeypatch)
    for n, windows in ((cap, True), (cap + 1, False)):
        system = random_system(n)
        dt = 0.005 / np.abs(np.linalg.eigvals(system.J)).max()
        args = (system.J.tobytes(), system.B.tobytes(), system.x0.tobytes(), 0.2, 10.0, dt, 100)
        assert (passes.of(lambda: measurement._aux_path.__wrapped__(*args))[1] > 0) == windows


def test_a_diverging_supply_path_raises_without_warnings():
    # t_m = 30 with E_m = 0.5: the closed loop leaves float range
    system, km, energy, steps = measured_lc(), 1.0, 0.5, 256
    rate, z0 = closed_loop(system, km, energy)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FloatingPointError) as want:
        step_loop(rate, z0, np.zeros(steps + 1), np.zeros(steps), 30.0 / steps)
    measurement._aux_path.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError) as got:
            _supply_aux_path(system, km, energy, 30.0 / steps, steps)
    assert str(got.value) == str(want.value)


def test_one_state_callables_see_one_state():
    # integrate_ode and simulate_wrapped keep their (n,) and (p,) contract
    shapes = set()

    def field(t, x):
        shapes.add(np.shape(x))
        return -x

    integrate_ode(field, [1.0, 2.0], 1e-2, 1.0)
    ws = wrap_lossless(lambda x, v: shapes.add(("field",) + np.shape(x) + np.shape(v)) or -x + v,
                       lambda x, v: shapes.add(("output",) + np.shape(x) + np.shape(v)) or x, [1.0], 1e3)
    simulate_wrapped(ws, lambda t: 0.1 * math.sin(t), dt=1e-2, horizon=1.0)
    assert shapes == {(2,), ("field", 1, 1), ("output", 1, 1)}
