"""Tests for the blocked square-root information folds of `measurement`.

`kalman_estimate` and `riccati_solve` fold their weighted rows into
triangular factors a block of `_FOLD_BLOCK` row blocks per batched QR
(`_prefix_factors`), instead of one QR per sample.  Each is compared here
with the sequential fold it replaces, kept in this file as the reference.
Both are backward-stable QR factorizations of the same rows, so they differ
by rounding: a factor of k folded rows moves by about sqrt(k) eps of their
norm, and what is solved with it moves by that times its condition number.
The last supply path of the active probe is remembered by the content of
its inputs; its tests check that a hit is the same path, bit for bit, and that
no other input is served it.
"""

import math

import numpy as np
import pytest

from lossless import measurement
from lossless.measurement import (
    Device,
    MeasuredSystem,
    Trajectory,
    _FOLD_BLOCK,
    _lti_run,
    _prefix_factors,
    _record_chain,
    _supply_aux_path,
    kalman_estimate,
    matrix_exponential,
    measured_lc,
    riccati_solve,
    simulate_device,
)
from lossless.statespace import integrate_ode

EPS = np.finfo(float).eps
M1HAT = Device(variant="M1hat", admittance=1.0, temperature=1.0)
M2HAT = Device(variant="M2hat", admittance=1.0, temperature=1.0, supply_energy=10.0)


def _random_system(n, seed):
    """Random lossless (J, B) with |J|_2 = 1 (n > 1) and |B| = 1, random x0."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    j = a - a.T
    if n > 1:
        j /= np.linalg.norm(j, 2)
    b = rng.standard_normal(n)
    return MeasuredSystem(J=j, B=b / np.linalg.norm(b), x0=rng.standard_normal(n))


def _assert_within(deviation, bound):
    """Every deviation at most its bound (broadcast), naming the worst ratio."""
    deviation, bound = np.broadcast_arrays(deviation, bound)
    ratio = np.divide(deviation, bound, out=np.zeros(bound.shape), where=deviation > 0)
    assert np.all(deviation <= bound), f"deviation reaches {ratio.max():.3g} of its bound"


class TestPrefixFactors:
    @pytest.mark.parametrize("count", [1, _FOLD_BLOCK - 1, _FOLD_BLOCK, _FOLD_BLOCK + 1,
                                       3 * _FOLD_BLOCK + 5])
    @pytest.mark.parametrize("r, m", [(1, 1), (1, 4), (3, 2), (8, 3)])
    def test_every_prefix_has_the_gram_matrix_of_its_rows(self, count, r, m):
        blocks = np.random.default_rng(count + 10 * r + m).standard_normal((count, r, m))
        facs = _prefix_factors(blocks, m)
        assert facs.shape == (count, m, m)
        assert np.all(np.tril(facs, -1) == 0.0)
        gram = np.cumsum(np.einsum("kri,krj->kij", blocks, blocks), axis=0)
        rows = np.arange(1, count + 1)[:, None, None] * r
        _assert_within(np.abs(facs.transpose(0, 2, 1) @ facs - gram),
                       16 * EPS * np.sqrt(rows) * np.abs(gram).max())

    def test_zero_rows_leave_the_factor_alone(self):
        # interleaved zero rows change only the order of the rounding
        blocks = np.random.default_rng(3).standard_normal((_FOLD_BLOCK + 3, 2, 3))
        padded = np.concatenate([blocks, np.zeros_like(blocks)], axis=1)
        plain = np.abs(_prefix_factors(blocks, 3))
        _assert_within(np.abs(np.abs(_prefix_factors(padded, 3)) - plain),
                       16 * EPS * np.sqrt(2 * np.arange(1, _FOLD_BLOCK + 4))[:, None, None]
                       * plain.max(axis=(1, 2))[:, None, None])


def _sequential_filter(system, device, record, dt, drift=None, offset=None):
    """`kalman_estimate` as it folded before: one QR and one `pinv` per sample.
    Also returns, per sample, the condition number of the state factor and
    the sizes of the terms that make up the estimate and the gain."""
    n, b, km = system.n, system.B, device.admittance
    kbt = device.temperature
    chain, rows, pushed = _record_chain(system, device, dt, record, drift, offset)
    props, _ = _lti_run(chain, np.eye(n), steps=record.shape[0] - 1)
    c = km / (2.0 * kbt)
    weighted = math.sqrt(c * dt) * np.column_stack([rows, record - pushed])
    fac = np.empty((0, n + 1))
    count = record.shape[0]
    estimates, gains = np.empty(count), np.empty((count, n))
    kappa, est_scale, gain_scale = np.empty(count), np.empty(count), np.empty(count)
    for k in range(count):
        fac = np.linalg.qr(np.vstack([fac, weighted[k]]), mode="r")
        r_pinv = np.linalg.pinv(fac[:n, :n])
        estimates[k] = rows[k] @ (r_pinv @ fac[:n, n]) + pushed[k]
        gains[k] = c * (props[k] @ (r_pinv @ (r_pinv.T @ rows[k])) - 2.0 * kbt * b)
        sv = np.linalg.svd(fac[:n, :n], compute_uv=False)
        kappa[k] = sv[0] / sv[-1] if sv[-1] > 0 else np.inf
        inv = np.linalg.norm(r_pinv, 2)
        est_scale[k] = (np.linalg.norm(rows[k]) * inv * np.linalg.norm(weighted[:k + 1, n])
                        + abs(pushed[k]))
        gain_scale[k] = (c * np.linalg.norm(props[k], 2) * inv**2 * np.linalg.norm(rows[k])
                         + 2.0 * kbt * np.linalg.norm(b))
    return estimates, gains, kappa, est_scale, gain_scale


class TestBlockedFilter:
    # Once the record determines x0 (from sample n on), both folds solve
    # the same least-squares problem: they agree within
    # 8 eps sqrt(k + 1) kappa(R_k) times the size of the terms summed
    # (measured: at most 0.16 of it for the estimates and 0.23 for the
    # gains, both at n = 1, where kappa = 1 and the sums over the record
    # dominate).
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("samples", [2, _FOLD_BLOCK - 1, _FOLD_BLOCK, _FOLD_BLOCK + 1, 2049])
    def test_matches_the_sequential_fold(self, n, samples):
        system = _random_system(n, 40 + n)
        dt = 1e-2 / 2048
        record = system.y0 + np.random.default_rng(n + samples).standard_normal(samples)
        est, gains = kalman_estimate(system, M1HAT, Trajectory(dt=dt, values=record))
        old_est, old_gains, kappa, est_scale, gain_scale = _sequential_filter(
            system, M1HAT, record, dt)
        assert est.values.shape == (samples,) and gains.values.shape == (samples, n)
        bound = 8 * EPS * np.sqrt(np.arange(1, samples + 1)) * kappa
        determined = slice(n, None)
        _assert_within(np.abs(est.values - old_est)[determined], (bound * est_scale)[determined])
        _assert_within(np.abs(gains.values - old_gains).max(axis=1)[determined],
                       (bound * gain_scale)[determined])

    def test_m2hat_matches_the_sequential_fold(self):
        system, dt, steps = measured_lc(), 1e-2 / 2048, 2048
        _, drift = _supply_aux_path(system, 1.0, 10.0, dt, steps)
        record = system.y0 + np.random.default_rng(9).standard_normal(steps + 1)
        est, gains = kalman_estimate(system, M2HAT, Trajectory(dt=dt, values=record),
                                     state_offset=0.3)
        old_est, old_gains, kappa, est_scale, gain_scale = _sequential_filter(
            system, M2HAT, record, dt, drift, 0.3)
        bound = 8 * EPS * np.sqrt(np.arange(1, steps + 2)) * kappa
        _assert_within(np.abs(est.values - old_est)[3:], (bound * est_scale)[3:])
        _assert_within(np.abs(gains.values - old_gains).max(axis=1)[3:], (bound * gain_scale)[3:])

    def test_a_single_sample_is_rejected(self):
        with pytest.raises(ValueError, match="at least two samples"):
            kalman_estimate(measured_lc(), M1HAT, Trajectory(dt=1e-3, values=[1.0]))

    def test_the_first_estimate_is_the_minimum_norm_fit(self):
        # One sample cannot determine x0 for n > 1; the pinv estimate is the
        # minimum-norm x0 = B y0 / |B|^2 that fits it, so it returns y0.
        system = _random_system(4, 7)
        record = np.random.default_rng(1).standard_normal(40)
        est, _ = kalman_estimate(system, M1HAT, Trajectory(dt=1e-2 / 2048, values=record))
        assert est.values[0] == pytest.approx(record[0], rel=1e-12)
        assert np.all(np.isfinite(est.values))


def _sequential_riccati(system, km, kbt, times, max_substep=5e-3):
    """`riccati_solve` as it folded before: one QR and two triangular
    solves per grid point, raising at the first singular factor."""
    from scipy.linalg import solve_triangular

    j, b, n = system.J, system.B, system.n
    c = km / (2.0 * kbt)
    r_fac = np.zeros((n, n))
    covs, mstars = np.empty((len(times), n, n)), np.empty(len(times))
    kappa = np.empty(len(times))
    prev, start = 0.0, np.eye(n)
    for idx, t in enumerate(times):
        nsub = max(2, int(math.ceil((t - prev) / max_substep)))
        h = (t - prev) / nsub
        nodes, weights = np.polynomial.legendre.leggauss(4)
        node_rows = np.stack([b @ matrix_exponential(j * (0.5 * h * (xi + 1.0))) for xi in nodes])
        node_rows *= np.sqrt(c * 0.5 * h * weights)[:, None]
        rows, _ = _lti_run(matrix_exponential(j * h) - np.eye(n), start, c=node_rows, steps=nsub - 1)
        r_fac = np.linalg.qr(np.vstack([r_fac, rows.reshape(-1, n)]))[1]
        diag = np.abs(np.diag(r_fac))
        if diag.min() <= 1e-14 * max(diag.max(), 1e-300):
            raise ArithmeticError(f"information matrix is singular at t = {t:.6g}")
        start = matrix_exponential(j * t)
        half = solve_triangular(r_fac, start.T, trans="T")
        covs[idx] = 0.5 * (half.T @ half + (half.T @ half).T)
        vec = solve_triangular(r_fac, start.T @ b, trans="T")
        mstars[idx] = vec @ vec
        sv = np.linalg.svd(r_fac, compute_uv=False)
        kappa[idx] = sv[0] / sv[-1]
        prev = t
    return covs, mstars, kappa


class TestBlockedRiccati:
    # M* = |R^-T e^{J^T t} B|^2 and the covariance move by about
    # eps kappa(R) relative, times the growth of the rounding over the
    # folded rows (measured: at most 41 eps kappa in M* and 47 in the
    # covariance on these grids, both at n = 2 on the uniform grid; n = 1-5,
    # kappa up to 1e13 at n = 5).
    @pytest.mark.parametrize("grid", [
        np.linspace(0.01, 10.0, 1000),
        np.cumsum(np.random.default_rng(7).uniform(1e-3, 0.05, 200)),
        np.concatenate([np.geomspace(1e-2, 1.0, 40), np.linspace(1.5, 30.0, 30)]),
    ])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_the_sequential_fold(self, n, grid):
        system = measured_lc() if n == 3 else _random_system(n, 70 + n)
        sol = riccati_solve(system, 0.8, 1.2, grid)
        covs, mstars, kappa = _sequential_riccati(system, 0.8, 1.2, grid)
        bound = 256 * EPS * kappa
        _assert_within(np.abs(sol.m_star - mstars), bound * mstars)
        scale = np.abs(covs).max(axis=(1, 2))
        _assert_within(np.abs(sol.state_covariance - covs).max(axis=(1, 2)), bound * scale)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_the_floor_does_not_depend_on_the_partition(self, n):
        # the same 5e-3 panels cover [0, 1] and [1, 10] as 1000 intervals or
        # as two (measured: at most 0.013 of the bound, at t = 10 for n = 4)
        system = measured_lc() if n == 3 else _random_system(n, 70 + n)
        fine = riccati_solve(system, 0.8, 1.2, np.linspace(0.01, 10.0, 1000))
        coarse = riccati_solve(system, 0.8, 1.2, [1.0, 10.0])
        _, _, kappa = _sequential_riccati(system, 0.8, 1.2, np.array([1.0, 10.0]))
        _assert_within(np.abs(fine.m_star[[99, 999]] - coarse.m_star),
                       256 * EPS * kappa * coarse.m_star)

    def test_rounding_does_not_compound_over_the_panels(self, monkeypatch):
        # every map 4 ulp off orthogonal: node rows read off powers of one
        # step map would drift by about 4 eps per panel over the 1800 panels
        # of [1, 10] (measured: 23 times the bound); panel doubling applies
        # a map once per level, 4 eps at each of the 11 levels of [1, 10]
        # (measured: 0.14 of it)
        expm = measurement.expm
        monkeypatch.setattr(measurement, "expm", lambda a: expm(a) * (1.0 + 4.0 * EPS))
        system = _random_system(2, 72)
        fine = riccati_solve(system, 0.8, 1.2, np.linspace(0.01, 10.0, 1000))
        coarse = riccati_solve(system, 0.8, 1.2, [1.0, 10.0])
        _, _, kappa = _sequential_riccati(system, 0.8, 1.2, np.array([1.0, 10.0]))
        _assert_within(np.abs(fine.m_star[[99, 999]] - coarse.m_star),
                       256 * EPS * kappa * coarse.m_star)

    def test_a_span_with_fewer_rows_than_states_is_padded(self):
        # two panels give 8 node rows, so a 10-state factor has two zero rows
        system, span, c = _random_system(10, 3), 2e-3, 0.4
        r = measurement._span_factor(system.J, system.B, c, span)
        assert r.shape == (10, 10) and not r[8:].any()
        nodes, weights = np.polynomial.legendre.leggauss(4)
        gramian = sum(
            w * np.outer(row, row)
            for start in (0.0, span / 2)
            for xi, w in zip(nodes, weights)
            for row in [system.B @ matrix_exponential(system.J * (start + span / 4 * (xi + 1.0)))]
        ) * (c * span / 4)
        np.testing.assert_allclose(r.T @ r, gramian, atol=1e-15 * np.abs(gramian).max())

    def test_a_long_interval_is_reduced_before_padding(self):
        # 4 points, one interval of 2^11 panels (8192 node rows) reduced to
        # its factor; the others are padded
        grid = np.array([0.01, 0.02, 10.0, 10.01])
        sol = riccati_solve(measured_lc(), 1.0, 1.0, grid)
        _, mstars, _ = _sequential_riccati(measured_lc(), 1.0, 1.0, grid)
        np.testing.assert_allclose(sol.m_star, mstars, rtol=1e-12)

    @pytest.mark.parametrize("system, grid", [
        (MeasuredSystem(J=[[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                        B=[1.0, 0.0, 0.0], x0=[1.0, 0.0, 0.0]), [0.5, 1.0, 2.0]),
        (_random_system(6, 46), np.linspace(1e-3, 0.05, 3 * _FOLD_BLOCK)),
    ])
    def test_singular_port_names_the_same_first_time(self, system, grid):
        with pytest.raises(ArithmeticError) as old:
            _sequential_riccati(system, 1.0, 1.0, np.asarray(grid))
        first = str(old.value).split("t = ")[1]
        with pytest.raises(ArithmeticError, match=f"singular at t = {first}:"):
            riccati_solve(system, 1.0, 1.0, grid)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_small_time_law_is_n_squared(self, n):
        # t M*/2 -> n^2 (k_B T = k_m = 1, |B| = 1): the endpoint variance of
        # a degree-(n-1) least-squares polynomial fit.  The O((t |J|)^2)
        # terms are below 1e-6 at t = 1e-3.  At n = 4 the fold's rounding
        # dominates (kappa(R) about 1e9): one of these systems reads 16.0535
        # with the sequential fold and 16.0246 with the blocked one.
        rel = 1e-2 if n == 4 else 1e-6
        for seed in range(3):
            system = _random_system(n, 100 + 10 * seed + n)
            sol = riccati_solve(system, 1.0, 1.0, [1e-3])
            assert 1e-3 * sol.m_star[0] / 2.0 == pytest.approx(n * n, rel=rel)


class TestSupplyPathMemo:
    def test_default_drift_is_the_explicit_path_bit_for_bit(self):
        system, dt, steps = measured_lc(), 1e-2 / 512, 512
        outcome = simulate_device(system, M2HAT, 1e-2, dt, 1, seed=4)
        hits = measurement._aux_path.cache_info().hits
        est, gains = kalman_estimate(system, M2HAT, outcome.y_m, state_offset=0.2)
        assert measurement._aux_path.cache_info().hits == hits + 1
        _, drift = _supply_aux_path(system, 1.0, 10.0, dt, steps)
        given, given_gains = kalman_estimate(system, M2HAT, outcome.y_m, state_offset=0.2,
                                             drift=Trajectory(dt=dt, values=drift))
        np.testing.assert_array_equal(est.values, given.values)
        np.testing.assert_array_equal(gains.values, given_gains.values)

    def test_cached_arrays_are_read_only(self):
        final, drift = _supply_aux_path(measured_lc(), 1.0, 10.0, 1e-3, 64)
        assert drift.shape == (65,) and final.shape == (3,)
        for array in (final, drift):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_the_path_is_rk4_of_the_closed_loop_bit_for_bit(self):
        _assert_rk4_of_the_closed_loop(measured_lc(), 0.7, 3.0, 1e-4, 300)

    def test_the_supply_output_is_squared_by_pow(self):
        # here y * y and C's pow(y, 2) round apart in a supply rate whose
        # change reaches the path (3 of 300 random cases of this kind)
        ladder = measured_lc()
        system = MeasuredSystem(J=np.asarray(ladder.J), B=ladder.B,
                                x0=[-1.5378274988221816, 0.7988417918440939, 0.22080756153531705])
        _assert_rk4_of_the_closed_loop(system, 2.317066202491349, 1.2193651460781776,
                                       0.001714191827589961, 200)

    @pytest.mark.parametrize("change", ["J", "B", "x0", "km", "supply_energy", "dt"])
    def test_another_input_is_not_served_a_stale_path(self, change):
        base = dict(J=np.asarray(measured_lc().J), B=measured_lc().B, x0=[1.0, 0.0, 0.0])
        args = dict(km=1.0, supply_energy=10.0, dt=1e-3)
        system = MeasuredSystem(**base)
        first = _supply_aux_path(system, args["km"], args["supply_energy"], args["dt"], 64)
        if change in base:
            base[change] = np.asarray(base[change]) * 1.5
        else:
            args[change] *= 1.5
        system = MeasuredSystem(**base)
        served = _supply_aux_path(system, args["km"], args["supply_energy"], args["dt"], 64)
        measurement._aux_path.cache_clear()
        fresh = _supply_aux_path(system, args["km"], args["supply_energy"], args["dt"], 64)
        for a, b, f in zip(served, first, fresh):
            np.testing.assert_array_equal(a, f)
            assert not np.array_equal(a, b)


def _assert_rk4_of_the_closed_loop(system, km, energy, dt, steps):
    """The memoized supply path is `integrate_ode`'s RK4 of the closed loop,
    bit for bit, with the supply output squared as `_aux_path` squares it."""
    j, b, root = system.J, system.B, math.sqrt(2.0 * energy)
    n = system.n

    def closed_loop(_, z):
        y = b @ z[:n]
        return np.append(j @ z[:n] + km * (z[n] / root - 1.0) * y * b, km / root * y**2)

    path = integrate_ode(closed_loop, np.append(system.x0, root), dt, steps * dt).values
    final, drift = _supply_aux_path(system, km, energy, dt, steps)
    np.testing.assert_array_equal(final, path[-1, :n])
    np.testing.assert_array_equal(drift, km * (path[:, n] / root - 1.0) * (path[:, :n] @ b))
