"""Tests for the Monte-Carlo chunks written as matrix products.

Three chunk workers replace per-trial loops with a few products each: the
M1hat noise map of `simulate_device`, the M2hat probe with its filter
read out as one product, and the Gram-matrix moments of
`empirical_fdt_check`.  The last two are compared with the code they
replace, kept here as the reference, on the same random draws.  An M1hat chunk draws its trials' statistic, not
their white noise, so only each chunk's first trial, which draws its
noise, meets the per-trial pipeline on the same draws; the others are
checked in distribution, as z-scores of the chunk moments.  The bounds
are in eps: a reordered sum of m terms moves by about m eps of its
largest term, and a least-squares solve moves by eps times the condition
number of its triangular factor.
"""

import functools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from lossless import measurement
from lossless._util import CHUNK_TRIALS, derive_rng, run_chunked
from lossless.measurement import (
    Device,
    MeasuredSystem,
    _FIRST_INTERVALS,
    _barycentric,
    _exact_nodes,
    _filter_weights,
    _natural_final,
    _noise_factor,
    _noise_map,
    _lobatto_weights,
    _offset_nodes,
    _probe_trials,
    _read_out,
    _record_chain,
    _supply_aux_path,
    matrix_exponential,
    measured_lc,
    simulate_device,
)
from lossless.statespace import LosslessLinear
from lossless.thermal import ThermalEnsemble, _transient_maps, empirical_fdt_check

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


def _reference_trial_zero(system, t_m, dt, seed):
    """Trial 0 of `simulate_device`'s M1hat run through the per-trial pipeline:
    the probe on its white noise, the first draw of chunk 0's substream,
    `_record_chain` on its record, and a QR of the filter rows.  Returns its
    outcome (the record and the estimate) and its largest |y_m| or |pushed|."""
    steps = round(t_m / dt)
    records, _, _ = _probe_trials(system, M1HAT, dt, steps, derive_rng(seed, 0), 1)
    _, rows, pushed = _record_chain(system, M1HAT, dt, records)
    q, r = np.linalg.qr(rows)
    theta = scipy.linalg.solve_triangular(r, q.T @ (records - pushed))
    estimate = float((rows[-1] @ theta + pushed[-1])[0])
    return records[:, 0], estimate, max(np.abs(records).max(), np.abs(pushed).max())


#: Largest |z| a moment of an M1hat run may show.  A sample variance of
#: 256 trials is a scaled chi-square, whose upper tail at z = 6 is about
#: 1e-7 (a normal's, at 5, is 6e-7).  Seeds 0-499 over the 48 cases of
#: `test_chunk_moments_match_the_noise_covariance` (24 000 runs, 356 000
#: z-scores, sd 0.99) gave a largest |z| of 5.47: one run above 5, none
#: above 5.5; the padded case's 500 runs peaked at 3.23.
Z_MAX = 6.0


def _moment_z_scores(system, out, dt):
    """z-scores of an M1hat outcome's chunk moments against their law: a
    trial's final state and estimate are const + N(0, G G^T), `_noise_map`'s
    (const, G).  The back action x - x_nat has mean const[:n] - x_nat and
    covariance S = (G G^T)[:n, :n], whose unbiased sample estimate P has
    entry variance (S_kl^2 + S_kk S_ll) / (trials - 1); the error w^T x,
    w = (-B, 1), has mean mu and variance v, and its mean square v + mu^2
    has variance (2 v^2 + 4 mu^2 v) / trials."""
    n, trials = system.n, out.trials
    const, gain = _noise_map(system, M1HAT, dt, round(out.t_m / dt))
    cov = gain @ gain.T
    s, d = cov[:n, :n], np.diag(cov)[:n]
    z_mean = (out.b_mean - (const[:n] - _natural_final(system, out.t_m))) / np.sqrt(d / trials)
    z_cov = (out.P - s) / np.sqrt((s**2 + np.outer(d, d)) / (trials - 1))
    w = np.append(-system.B, 1.0)
    mu, v = w @ const, w @ cov @ w
    z_err = (out.mean_error - mu) / math.sqrt(v / trials)
    z_sq = (out.estimate_variance - (v + mu**2)) / math.sqrt((2 * v**2 + 4 * mu**2 * v) / trials)
    return np.concatenate([z_mean, z_cov[np.triu_indices(n)], [z_err, z_sq]])


class TestNoiseMap:
    @pytest.mark.parametrize("trials", [CHUNK_TRIALS // 4, CHUNK_TRIALS + 200])
    @pytest.mark.parametrize("t_m", [1e-3, 1e-2, 2.0, 50.0])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_trial_zero_matches_the_per_trial_pipeline(self, n, t_m, trials, monkeypatch):
        # riccati_solve cannot resolve every random system at small t_m,
        # and the error floor is not what is compared here
        monkeypatch.setattr(measurement, "_m_star", lambda *args: 0.0)
        system, dt = _random_system(n, 10 + n), t_m / 256
        out = simulate_device(system, M1HAT, t_m, dt, trials, seed=n)
        record, y_hat, scale = _reference_trial_zero(system, t_m, dt, seed=n)
        # An estimate is v^T y_m in one form and R^-1 Q^T (y_m - pushed) in
        # the other: they part by eps kappa(R) in the solve and by eps per
        # term in the 257-term sums, relative to the largest |y_m| or |pushed|.
        _, rows, _ = _record_chain(system, M1HAT, dt, np.zeros(257))
        kappa = np.linalg.cond(np.linalg.qr(rows, mode="r"))
        d_est = EPS * (256 + 16 * kappa) * scale
        assert out.y_hat == pytest.approx(y_hat, rel=0, abs=d_est)
        np.testing.assert_allclose(out.y_m.values, record, rtol=0,
                                   atol=256 * EPS * np.abs(record).max())
        loaded = matrix_exponential((system.J - np.outer(system.B, system.B)) * t_m)
        np.testing.assert_array_equal(out.b_d, loaded @ system.x0 - _natural_final(system, t_m))

    @pytest.mark.parametrize("trials", [CHUNK_TRIALS // 4, CHUNK_TRIALS + 200])
    @pytest.mark.parametrize("t_m", [1e-3, 1e-2, 2.0, 50.0])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_chunk_moments_match_the_noise_covariance(self, n, t_m, trials, monkeypatch):
        # all trials but each chunk's first draw F xi with F F^T = G G^T
        monkeypatch.setattr(measurement, "_m_star", lambda *args: 0.0)
        system, dt = _random_system(n, 10 + n), t_m / 256
        out = simulate_device(system, M1HAT, t_m, dt, trials, seed=n)
        assert np.abs(_moment_z_scores(system, out, dt)).max() <= Z_MAX

    @pytest.mark.parametrize("t_m", [1e-3, 2.0])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_factor_reproduces_the_noise_covariance(self, n, t_m):
        # Householder QR is columnwise backward stable (Higham, Accuracy and
        # Stability of Numerical Algorithms, Thm 19.4): R^T R = (G + dG)(G +
        # dG)^T with |dG_i| <= c m (n + 1) eps |G_i| for row i, m = steps + 1,
        # and G G^T itself rounds by m eps |G_i| |G_j|
        system, steps = _random_system(n, 10 + n), 256
        _, gain = _noise_map(system, M1HAT, t_m / steps, steps)
        factor = _noise_factor(gain)
        assert factor.shape == (n + 1, n + 1)
        norms = np.linalg.norm(gain, axis=1)
        bound = 4 * (n + 1) * (steps + 1) * EPS * np.outer(norms, norms)
        assert np.all(np.abs(factor @ factor.T - gain @ gain.T) <= bound)

    def test_a_record_of_n_samples_pads_the_factor(self):
        # t_m / dt = 2 on the 3-state ladder: G^T is 3 x 4, so R has 3 rows
        # and F's last column is zero
        system = measured_lc()
        _, gain = _noise_map(system, M1HAT, 1e-3, 2)
        factor = _noise_factor(gain)
        assert gain.shape == (4, 3)
        assert factor.shape == (4, 4)
        assert np.all(factor[:, 3] == 0.0)
        norms = np.linalg.norm(gain, axis=1)  # the bound above at n = 3, steps = 2
        assert np.all(np.abs(factor @ factor.T - gain @ gain.T) <= 4 * 4 * 3 * EPS * np.outer(norms, norms))
        # the ladder's B leaves state components without noise at 2 steps;
        # a random 3-state port gives every moment a positive variance
        system = _random_system(3, 13)
        out = simulate_device(system, M1HAT, 2e-3, 1e-3, CHUNK_TRIALS + 200, seed=3)
        assert np.abs(_moment_z_scores(system, out, 1e-3)).max() <= Z_MAX

    def test_memory_is_linear_in_the_steps(self):
        # one (steps + 1)^2 map, as pushing an identity basis through the
        # pipeline would build, is 32 MiB at 2048 steps; the map needs O(steps n)
        tracemalloc.start()
        try:
            simulate_device(measured_lc(), M1HAT, 1e-2, 1e-2 / 2048, 1, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_zero_temperature_gain_is_exactly_zero(self):
        cold = Device(variant="M1hat", admittance=1.0, temperature=0.0)
        const, gain = _noise_map(measured_lc(), cold, 1e-3 / 256, 256)
        assert gain.shape == (4, 257)
        assert np.all(gain == 0.0)
        assert np.all(_noise_factor(gain) == 0.0)
        assert np.all(np.isfinite(const))


def _old_probe(system, device, dt, steps, rng, count):
    """The M2hat probe as it stepped before the fusion: (count, n) states."""
    j, b, n = system.J, system.B, system.n
    km = device.admittance
    kbt = device.temperature
    kick = -math.sqrt(2.0 * km * kbt * dt)
    meas = math.sqrt(2.0 * kbt / (km * dt))
    root = math.sqrt(2.0 * device.supply_energy)
    offsets = math.sqrt(kbt) * rng.standard_normal(count)
    supply = root + offsets
    eta = rng.standard_normal((steps + 1, count))
    states = np.broadcast_to(system.x0, (count, n)).copy()
    records = np.empty((steps + 1, count))
    for k in range(steps + 1):
        y2 = states @ b
        records[k] = y2 + meas * eta[k]
        if k == steps:
            break
        load = (km * (supply / root - 1.0) * y2)[:, None] * b
        states = states + dt * (states @ j.T + load) + kick * (eta[k][:, None] * b)
        supply = supply + dt * (km / root) * y2**2
    return records, states, offsets


def _old_chain(system, device, dt, records, drift, offset):
    """The per-trial record chain as it stepped before the fusion."""
    b, n, km = system.B, system.n, device.admittance
    a0 = np.eye(n) + dt * system.J
    port = dt * drift[:-1] - (km * dt) * records[:-1]
    scale = dt * km * (1.0 + offset / math.sqrt(2.0 * device.supply_energy))
    steps, count = port.shape[0], scale.shape[0]
    rows = np.empty((count, steps + 1, n))
    cur = np.repeat(b[:, None], count, axis=1)
    forcing = np.zeros((n, count))
    pushed = np.empty((steps + 1, count))
    for k in range(steps + 1):
        pushed[k] = b @ forcing
        rows[:, k, :] = cur.T
        if k == steps:
            break
        forcing = a0 @ forcing + b[:, None] * (scale * (b @ forcing) + port[k])
        cur = a0.T @ cur + b[:, None] * (scale * (b @ cur))
    return rows, pushed


def _supply_read_out(system, device, dt, steps, records, offsets):
    """The M2hat estimates of `simulate_device`'s read-out for these records
    and offsets, and its node table (None where the nodes are the offsets)."""
    _, drift = _supply_aux_path(system, device.admittance, device.supply_energy, dt, steps)
    weights = functools.partial(_filter_weights, system, device, dt, steps, drift)
    table = _offset_nodes(weights, offsets.min(), offsets.max(), steps, offsets.shape[0])
    return _read_out(table or _exact_nodes(weights, offsets), offsets, records), table


def _assert_within_the_solve_bound(system, device, dt, steps, records, offsets, estimates):
    """The estimates against an SVD least-squares solve per trial over the
    stepped chain's rows.  The two part by eps kappa(R) in the solve and by
    eps per term in the 257-term sums, relative to the largest |y_m| or
    |pushed| (the TestNoiseMap bound); the interpolation in the offset adds
    at most eps (steps + kappa) of the weights by its node rule."""
    _, drift = _supply_aux_path(system, device.admittance, device.supply_energy, dt, steps)
    old_rows, old_pushed = _old_chain(system, device, dt, records, drift[:, None], offsets)
    count = offsets.shape[0]
    ref = np.array([old_rows[i, -1] @ np.linalg.lstsq(old_rows[i], records[:, i] - old_pushed[:, i],
                                                      rcond=None)[0] for i in range(count)])
    kappa = np.linalg.cond(np.linalg.qr(old_rows, mode="r")).max()
    scale = max(np.abs(records).max(), np.abs(old_pushed).max())
    np.testing.assert_allclose(estimates, ref + old_pushed[-1], rtol=0,
                               atol=EPS * (steps + 16 * kappa) * scale)


class TestFusedSupplyProbe:
    # Each fused step rounds its sums in another order, by an eps or so of
    # the step's magnitude; over the steps of a near-isometry those add up
    # to at most one eps per step (measured: at most 20 eps in 256 steps).
    @pytest.mark.parametrize("t_m", [1e-3, 1e-2, 1.0])
    @pytest.mark.parametrize("n", [1, 3])
    def test_probe_and_chain_match_the_stepped_loops(self, n, t_m):
        system, steps = _random_system(n, 20 + n), 256
        dt = t_m / steps
        records, states, offsets = _probe_trials(system, M2HAT, dt, steps, np.random.default_rng(n), 300)
        old_records, old_states, old_offsets = _old_probe(
            system, M2HAT, dt, steps, np.random.default_rng(n), 300)
        assert np.array_equal(offsets, old_offsets)
        bound = steps * EPS
        np.testing.assert_allclose(records, old_records, rtol=0,
                                   atol=bound * np.abs(old_records).max())
        np.testing.assert_allclose(states, old_states, rtol=0,
                                   atol=bound * np.abs(old_states).max())
        # the chain is not stepped: the read-out's estimates meet a per-trial
        # solve over the stepped chain's rows
        estimates, _ = _supply_read_out(system, M2HAT, dt, steps, records, offsets)
        _assert_within_the_solve_bound(system, M2HAT, dt, steps, records, offsets, estimates)

    # t_m = 0.1, and E_m = 0.5 where the offsets reach past -sqrt(2 E_m), so
    # that the chain's scale changes sign across the interval; at t_m = 1e-3
    # the first check may hold (n = 3: five nodes)
    @pytest.mark.parametrize("t_m, energy, grows", [(1e-1, 10.0, True), (1e-3, 0.5, False),
                                                    (1e-2, 0.5, True), (1e-1, 0.5, True)])
    @pytest.mark.parametrize("n", [1, 3])
    def test_the_node_count_grows_where_the_weights_bend(self, n, t_m, energy, grows):
        system, steps = _random_system(n, 20 + n), 256
        device = Device(variant="M2hat", admittance=1.0, temperature=1.0, supply_energy=energy)
        dt = t_m / steps
        records, _, offsets = _probe_trials(system, device, dt, steps, np.random.default_rng(n), 300)
        estimates, table = _supply_read_out(system, device, dt, steps, records, offsets)
        assert 2 * _FIRST_INTERVALS + 1 + grows <= table[0].shape[0] < 300
        _assert_within_the_solve_bound(system, device, dt, steps, records, offsets, estimates)

    def test_the_rule_checks_inside_the_interval(self):
        # weights with a bend at o = 0.3, poles at 0.3 +- 0.2i, met against
        # the interpolant everywhere on [-1, 1], not only at its nodes
        steps, u = 4, np.arange(1.0, 6.0)

        def bend(o):
            return 1.0 / (1.0 + ((o - 0.3) / 0.2) ** 2)

        nodes, beta, v, c = _offset_nodes(lambda o: (bend(o) * u, 0.5 * bend(o), np.eye(2)),
                                          -1.0, 1.0, steps, 10**6)
        intervals = nodes.shape[0] - 1
        assert nodes[0] == 1.0 and nodes[-1] == -1.0 and intervals > 100
        np.testing.assert_array_equal(beta, _lobatto_weights(intervals))
        x = np.linspace(-1.0, 1.0, 20001)
        fit = _barycentric(nodes, beta, x).T @ np.column_stack([v, c])
        exact = bend(x)[:, None] * np.append(u, 0.5)
        # the checked interpolant, on half the intervals, met the exact weights
        # at the new nodes to its tolerance; the kept one adds at most its
        # Lebesgue constant times that
        tol = EPS * (steps + 1) * (2.0 + (2.0 / math.pi) * math.log(intervals // 2 + 1))
        lebesgue = 1.0 + (2.0 / math.pi) * math.log(intervals + 1)
        assert np.all(np.abs(fit - exact).sum(axis=1) <= (1.0 + lebesgue) * tol * np.abs(exact).sum(axis=1))

    def test_a_rule_that_does_not_settle_spends_fewer_evaluations_than_trials(self):
        # poles at 0.3 +- 1e-3i need far more nodes than 40 trials: the rule
        # stops at 33 nodes, before its next doubling reaches 40, and the
        # chunks take their own offsets (`_exact_nodes`), under 80 evaluations
        # in all
        calls = []

        def weights(o):
            calls.append(o)
            bend = 1.0 / (1.0 + ((o - 0.3) / 1e-3) ** 2)
            return bend * np.ones(5), bend, np.eye(2)

        assert _offset_nodes(weights, -1.0, 1.0, 4, 40) is None
        assert len(calls) == 33
        offsets = np.linspace(-1.0, 1.0, 40)
        assert _exact_nodes(weights, offsets)[0].shape == (40,)
        assert len(calls) < 2 * 40

    @pytest.mark.parametrize("n", [1, 3])
    def test_the_diverging_cases_raise(self, n):
        # t_m = 1 at E_m = 0.5 leaves float range, before any read-out
        system = _random_system(n, 20 + n)
        device = Device(variant="M2hat", admittance=1.0, temperature=1.0, supply_energy=0.5)
        with pytest.raises(FloatingPointError, match="diverged at t = "):
            simulate_device(system, device, 1.0, 1.0 / 256, 300, seed=n)

    @pytest.mark.parametrize("trials", [1, 3])
    def test_few_trials_take_their_own_offsets_as_nodes(self, trials):
        # one trial is an interval of one point, its own node; at 3 trials
        # the first check would take more nodes than there are trials
        system, steps, dt = _random_system(3, 23), 256, 1e-2 / 256
        records, _, offsets = _probe_trials(system, M2HAT, dt, steps, np.random.default_rng(3), trials)
        estimates, table = _supply_read_out(system, M2HAT, dt, steps, records, offsets)
        if trials == 1:
            np.testing.assert_array_equal(table[0], offsets)
        else:
            assert table is None
        _assert_within_the_solve_bound(system, M2HAT, dt, steps, records, offsets, estimates)
        out = simulate_device(system, M2HAT, 1e-2, dt, trials, seed=5)
        first, _, offset = _probe_trials(system, M2HAT, dt, steps, derive_rng(5, 0), trials)
        np.testing.assert_array_equal(out.y_m.values, first[:, 0])
        _, drift = _supply_aux_path(system, 1.0, 10.0, dt, steps)
        v, c, _ = _filter_weights(system, M2HAT, dt, steps, drift, offset[0])
        # trial 0's estimate is its exact weights' v^T y_m + c, up to the
        # rounding of a 257-term sum
        assert out.y_hat == pytest.approx(v @ first[:, 0] + c, rel=0,
                                          abs=steps * EPS * np.abs(v).sum() * np.abs(first).max())

    def test_trial_zero_of_a_run_meets_the_solve(self):
        # the nodes span the offsets of every chunk, drawn before the chunks run
        system, steps, dt = _random_system(3, 23), 256, 1e-2 / 256
        out = simulate_device(system, M2HAT, 1e-2, dt, CHUNK_TRIALS + 200, seed=7)
        records, _, offsets = _probe_trials(system, M2HAT, dt, steps, derive_rng(7, 0), CHUNK_TRIALS)
        np.testing.assert_array_equal(out.y_m.values, records[:, 0])
        _assert_within_the_solve_bound(system, M2HAT, dt, steps, records[:, :1], offsets[:1],
                                       np.array([out.y_hat]))

    def test_a_record_that_misses_a_state_fails(self):
        # B excites only the first state of J = 0: column 1 of every trial's
        # rows is exactly zero, so R11 is singular and no estimate exists
        system = MeasuredSystem(J=np.zeros((2, 2)), B=[1.0, 0.0], x0=[1.0, 0.0])
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            simulate_device(system, M2HAT, 1e-3, 1e-3 / 256, 50, seed=1)


def _einsum_moments(sys, temperature, trials, times, seed):
    """The FDT sums as the unoptimised einsums formed them, on the same draws."""
    maps = _transient_maps(sys, times)
    ensemble = ThermalEnsemble(temperature=temperature, dimension=sys.n, seed=seed)

    def worker(rng, size):
        states = math.sqrt(ensemble.state_variance) * rng.standard_normal((size, sys.n))
        noise = np.einsum("cn,jpn->cjp", states, maps)
        return (np.einsum("cjp,clq->jplq", noise, noise),
                np.einsum("cjp,clq->jplq", noise**2, noise**2))

    chunks = run_chunked(trials, worker, seed)
    return sum(c[0] for c in chunks) / trials, sum(c[1] for c in chunks) / trials


class TestGramMoments:
    @pytest.mark.parametrize("ports", [1, 2])
    def test_match_the_einsum_moments(self, ports):
        # Both sum the same 1024-trial chunks in other orders, whose
        # rounding is about sqrt(1024) eps of the largest moment; the bound
        # is twice that (measured: 1.5e-15 relative, 7 eps).
        rng = np.random.default_rng(30 + ports)
        a = rng.standard_normal((4, 4))
        sys = LosslessLinear(J=a - a.T, B=rng.standard_normal((4, ports)))
        times = np.linspace(0.0, 3.0, 7)
        trials = 2 * CHUNK_TRIALS + 100
        report = empirical_fdt_check(sys, 0.7, trials, times, seed=5)
        mean, second = _einsum_moments(sys, 0.7, trials, times, seed=5)
        assert report.empirical.shape == (7, ports, 7, ports)
        bound = 64 * EPS
        np.testing.assert_allclose(report.empirical, mean, rtol=0, atol=bound * np.abs(mean).max())
        # the variance second - mean^2 moves by the moments' rounding
        variance = report.standard_error**2 * trials
        np.testing.assert_allclose(variance, np.maximum(second - mean**2, 0.0), rtol=0,
                                   atol=bound * (second.max() + 2 * np.abs(mean).max() ** 2))
