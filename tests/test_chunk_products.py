"""Tests for the Monte-Carlo chunks written as matrix products.

Three chunk workers replace per-trial loops with a few products each: the
M1hat noise map of `simulate_device`, the fused M2hat probe and record
chain, and the Gram-matrix moments of `empirical_fdt_check`.  Each is
compared with the code it replaces, kept here as the reference, on the same
random draws.  The bounds are in eps: a reordered sum of m terms moves by
about m eps of its largest term, and a least-squares solve moves by
eps times the condition number of its triangular factor.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from lossless import measurement
from lossless._util import CHUNK_TRIALS, run_chunked
from lossless.measurement import (
    Device,
    MeasuredSystem,
    _chunk_sums,
    _natural_final,
    _noise_map,
    _outcome,
    _probe_trials,
    _record_chain,
    _supply_aux_path,
    _supply_estimates,
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


def _reference_m1hat(system, t_m, dt, trials, seed):
    """`simulate_device`'s M1hat chunks as the per-trial pipeline: a lifted
    probe run of the whole chunk, `_record_chain` on its records, and one QR
    of the filter rows shared by the chunk's trials.  Returns the outcome and
    the largest |error|, |back action|, |state| and |y_m| or |pushed| met."""
    b, steps = system.B, round(t_m / dt)
    x_nat = _natural_final(system, t_m)
    y_nat = float(b @ x_nat)
    peaks = np.zeros(4)

    def worker(rng, count):
        records, states, _ = _probe_trials(system, M1HAT, dt, steps, rng, count)
        _, rows, pushed = _record_chain(system, M1HAT, dt, records)
        q, r = np.linalg.qr(rows)
        theta = scipy.linalg.solve_triangular(r, q.T @ (records - pushed))
        estimates = rows[-1] @ theta + pushed[-1]
        back = states - x_nat
        peaks[:] = np.maximum(peaks, [np.abs(estimates - states @ b).max(), np.abs(back).max(),
                                      np.abs(states).max(),
                                      max(np.abs(records).max(), np.abs(pushed).max())])
        return _chunk_sums(records, estimates, states @ b, back, y_nat, b)

    loaded = matrix_exponential((system.J - np.outer(b, b)) * t_m)
    parts = run_chunked(trials, worker, seed)
    return _outcome(system, M1HAT, t_m, dt, trials, loaded @ system.x0 - x_nat, parts), peaks


class TestNoiseMap:
    @pytest.mark.parametrize("trials", [CHUNK_TRIALS // 4, CHUNK_TRIALS + 200])
    @pytest.mark.parametrize("t_m", [1e-3, 1e-2, 2.0, 50.0])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_the_per_trial_pipeline(self, n, t_m, trials, monkeypatch):
        # riccati_solve cannot resolve every random system at small t_m,
        # and the error floor is not what is compared here
        monkeypatch.setattr(measurement, "_m_star", lambda *args: 0.0)
        system, dt = _random_system(n, 10 + n), t_m / 256
        out = simulate_device(system, M1HAT, t_m, dt, trials, seed=n)
        ref, (err, back, state, scale) = _reference_m1hat(system, t_m, dt, trials, seed=n)
        # An estimate is v^T y_m in one form and R^-1 Q^T (y_m - pushed) in
        # the other: they part by eps kappa(R) in the solve and by eps per
        # term in the 257-term sums, relative to the largest |y_m| or |pushed|.
        _, rows, _ = _record_chain(system, M1HAT, dt, np.zeros(257))
        kappa = np.linalg.cond(np.linalg.qr(rows, mode="r"))
        d_est = EPS * (256 + 16 * kappa) * scale
        # a state is a 256-term sum of kicks in both forms
        d_state = 256 * EPS * state
        assert out.y_hat == pytest.approx(ref.y_hat, rel=0, abs=d_est)
        assert out.mean_error == pytest.approx(ref.mean_error, rel=0, abs=d_est)
        assert out.estimate_variance == pytest.approx(
            ref.estimate_variance, rel=0, abs=d_est * (2 * err + d_est))
        np.testing.assert_allclose(out.b_mean, ref.b_mean, rtol=0, atol=d_state)
        np.testing.assert_allclose(out.P, ref.P, rtol=0, atol=8 * d_state * (back + d_state))
        np.testing.assert_allclose(out.y_m.values, ref.y_m.values, rtol=0,
                                   atol=256 * EPS * np.abs(ref.y_m.values).max())
        np.testing.assert_array_equal(out.b_d, ref.b_d)

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
        assert np.all(np.isfinite(const))


def _old_probe(system, device, dt, steps, rng, count):
    """The M2hat probe as it stepped before the fusion: (count, n) states."""
    j, b, n = system.J, system.B, system.n
    km = device.admittance
    kbt = device.boltzmann * device.temperature
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


class TestFusedSupplyProbe:
    # Each fused step rounds its sums in another order, by an eps or so of
    # the step's magnitude; over the steps of a near-isometry those add up
    # to at most one eps per step (measured: at most 20 eps in 256 steps).
    @pytest.mark.parametrize("t_m", [1e-3, 1e-2, 1.0])
    @pytest.mark.parametrize("n", [1, 3])
    def test_probe_and_chain_match_the_stepped_loops(self, n, t_m):
        system, steps = _random_system(n, 20 + n), 256
        dt = t_m / steps
        records, states, (offsets, aug, pushed) = _probe_trials(
            system, M2HAT, dt, steps, np.random.default_rng(n), 300)
        old_records, old_states, old_offsets = _old_probe(
            system, M2HAT, dt, steps, np.random.default_rng(n), 300)
        assert np.array_equal(offsets, old_offsets)
        bound = steps * EPS
        np.testing.assert_allclose(records, old_records, rtol=0,
                                   atol=bound * np.abs(old_records).max())
        np.testing.assert_allclose(states, old_states, rtol=0,
                                   atol=bound * np.abs(old_states).max())

        # the chain steps in the probe's loop, on the probe's own records
        _, drift = _supply_aux_path(system, 1.0, 10.0, dt, steps)
        old_rows, old_pushed = _old_chain(system, M2HAT, dt, records, drift[:, None], offsets)
        rows = aug[:, :, :n]
        assert rows.shape == old_rows.shape
        np.testing.assert_array_equal(aug[:, :, n], (records - pushed).T)
        np.testing.assert_allclose(rows, old_rows, rtol=0, atol=bound * np.abs(old_rows).max())
        np.testing.assert_allclose(pushed, old_pushed, rtol=0,
                                   atol=bound * np.abs(old_pushed).max())

        # The estimates, read off the augmented rows' triangular factor, and
        # an SVD least-squares solve per trial over the old rows part by eps
        # kappa(R) in the solve and by eps per term in the 257-term sums,
        # relative to the largest |y_m| or |pushed| (the TestNoiseMap bound).
        ref = np.array([old_rows[i, -1] @ np.linalg.lstsq(old_rows[i], records[:, i] - old_pushed[:, i],
                                                          rcond=None)[0] for i in range(300)])
        kappa = np.linalg.cond(np.linalg.qr(old_rows, mode="r")).max()
        scale = max(np.abs(records).max(), np.abs(old_pushed).max())
        np.testing.assert_allclose(_supply_estimates(aug, pushed[-1]), ref + old_pushed[-1],
                                   rtol=0, atol=EPS * (steps + 16 * kappa) * scale)


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
