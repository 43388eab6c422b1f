"""Thermal ensembles, fluctuation-dissipation checks, Langevin simulation.

Temperature enters the state-space picture through the initial state: a
system is at temperature T when its state is Gibbs-distributed, which
for the quadratic internal energy U = ||x - E x||^2 / 2 means Gaussian
with covariance k_B T I.  Everything else here is consequences.  The
transient B^T e^{Jt} x0 of a lossless realization then reproduces the
fluctuation-dissipation theorem: its autocovariance at lag t - s is
k_B T g(t - s), the impulse response priced in temperature units
(`analytic_fluctuation_covariance` is that kernel, `empirical_fdt_check`
estimates it from sampled ensembles).  Dissipative low-order models see
the same statistics as a white-noise drive, which is the Langevin
equation; memoryless elements degenerate to Johnson-Nyquist white noise
of intensity 2 k_B T k_s.

The energy-supply construction from `approx_nonlinear` responds to a
thermal initial perturbation differently: the noise it leaks is not
white but proportional to the input, with variance k^2 k_B T u(t)^2
/ (2 E0), plus a deterministic drift that vanishes like t for small
times.  `nonlinear_thermal_decompose` separates the two parts exactly.

Boltzmann's constant defaults to 1 (natural units) so desk-scale checks
hold O(1) numbers; pass `boltzmann=BOLTZMANN_SI` for laboratory units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.integrate import cumulative_trapezoid

from ._util import as_float_array, derive_rng, frozen, positive, run_chunked
from .approx_linear import factor_psd
from .statespace import (
    PSD_TOL,
    LosslessLinear,
    Trajectory,
    _StatePorts,
    _input_samples,
    _is_sparse,
    _lti_run,
    _port_samples,
    _psd_eigh,
    _require_finite,
    _skew_generator,
    _square_gain,
    _state_vector,
)

__all__ = [
    "BOLTZMANN_SI",
    "FdtReport",
    "LangevinModel",
    "ThermalEnsemble",
    "analytic_fluctuation_covariance",
    "empirical_fdt_check",
    "internal_energy",
    "johnson_nyquist_intensity",
    "nonlinear_thermal_decompose",
    "sample_gibbs",
    "sample_johnson_noise",
    "simulate_langevin",
    "supply_noise_variance",
]

#: Boltzmann's constant in J/K (exact by the 2019 SI definition).
BOLTZMANN_SI = 1.380649e-23


@dataclass(frozen=True)
class ThermalEnsemble:
    """Gibbs ensemble of initial states at a given temperature.

    With quadratic internal energy the Gibbs density is Gaussian, mean
    `mean` and covariance k_B T I; `seed` names the sampling stream so
    draws are reproducible.
    """

    temperature: float
    dimension: int
    mean: np.ndarray | None = None
    boltzmann: float = 1.0
    seed: int = 0

    def __post_init__(self):
        t = positive(self.temperature, "temperature", or_zero=True)
        kb = positive(self.boltzmann, "boltzmann constant")
        n = int(self.dimension)
        if n < 1:
            raise ValueError(f"dimension must be at least 1, got {n}")
        mean = _state_vector(self.mean, n, "mean")
        object.__setattr__(self, "temperature", t)
        object.__setattr__(self, "boltzmann", kb)
        object.__setattr__(self, "dimension", n)
        object.__setattr__(self, "mean", frozen(mean))
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def state_variance(self) -> float:
        """Per-coordinate variance k_B T of the Gibbs ensemble."""
        return self.boltzmann * self.temperature


def sample_gibbs(ensemble: ThermalEnsemble, count: int, *, threads: int = 1) -> np.ndarray:
    """Draw `count` i.i.d. states from the ensemble, as a (count, n) array.

    Sampling is chunked on fixed boundaries with one substream per chunk,
    so the result is bitwise identical for every thread count.  At zero
    temperature all samples equal the mean exactly.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    scale = math.sqrt(ensemble.state_variance)
    n = ensemble.dimension

    def worker(rng, size):
        return ensemble.mean + scale * rng.standard_normal((size, n))

    parts = run_chunked(count, worker, ensemble.seed, threads=threads)
    if not parts:
        return np.empty((0, n))
    return np.concatenate(parts, axis=0)


def internal_energy(x, mean=None):
    """Internal energy ||x - mean||^2 / 2 of a state (or batch of states).

    The mean defaults to zero.  For a batch the energy is taken over the
    last axis, one value per row.
    """
    x = np.asarray(x, dtype=float)
    delta = x if mean is None else x - np.asarray(mean, dtype=float)
    out = 0.5 * np.sum(delta**2, axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def _transient_maps(sys: LosslessLinear, times: np.ndarray) -> np.ndarray:
    """Stack of B^T e^{J t_j}, shape (m, p, n)."""
    if _is_sparse(sys.J):
        raise TypeError("fluctuation kernels need a dense J")
    return sys.B.T @ scipy.linalg.expm(np.asarray(sys.J) * times[:, None, None])


def analytic_fluctuation_covariance(
    sys: LosslessLinear, temperature: float, t: float, s: float, *, boltzmann: float = 1.0
) -> np.ndarray:
    """Autocovariance k_B T B^T e^{J (t-s)} B of the thermal transient.

    For t >= s this is k_B T g(t - s), the impulse response at the lag;
    for t < s the transpose at the mirrored lag.  Built from the matrix
    exponential of `impulse_response`, so the two agree to roundoff, or
    within a few eps of w t |B|^2 where J is rotation blocks (its closed form).
    """
    t, s = float(t), float(s)
    if t < 0 or s < 0:
        raise ValueError(f"times must be nonnegative, got t={t}, s={s}")
    kernel = _transient_maps(sys, np.array([abs(t - s)]))[0] @ sys.B
    if t < s:
        kernel = kernel.T
    return float(boltzmann) * float(temperature) * kernel


@dataclass(frozen=True)
class FdtReport:
    """Empirical-versus-analytic comparison of the fluctuation kernel.

    `empirical` and `analytic` hold R(t_j, t_l) as a (m, p, m, p) array;
    `standard_error` is the per-entry Monte-Carlo standard error of the
    empirical estimate.  `stationarity_normalized` measures how far
    equal-lag entries spread around their mean, in standard errors
    (nan when the grid is not uniform).
    """

    times: np.ndarray
    empirical: np.ndarray
    analytic: np.ndarray
    standard_error: np.ndarray
    max_abs_deviation: float
    max_normalized_deviation: float
    stationarity_normalized: float
    trials: int

    def __post_init__(self):
        for name in ("times", "empirical", "analytic", "standard_error"):
            object.__setattr__(self, name, frozen(np.asarray(getattr(self, name), dtype=float)))


def empirical_fdt_check(
    sys: LosslessLinear,
    temperature: float,
    trials: int,
    grid,
    seed: int,
    *,
    boltzmann: float = 1.0,
    threads: int = 1,
) -> FdtReport:
    """Estimate the transient autocovariance over a Gibbs ensemble.

    Draws `trials` initial states at the given temperature, forms the
    transients n_i(t_j) = B^T e^{J t_j} x_i on the grid, and compares
    their second moment against the analytic kernel entry by entry.
    The fluctuations have known zero mean, so the raw second moment is
    the unbiased estimator.  A chunk of trials forms its transients as
    one product with the stacked maps and its first and second moments
    as the Gram matrices of the transients and of their squares.
    """
    times = as_float_array(grid, "grid", ndim=1)
    if times.shape[0] < 1 or np.any(times < 0):
        raise ValueError("grid must hold nonnegative times")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    maps = _transient_maps(sys, times)
    kbt = float(boltzmann) * float(temperature)
    ensemble = ThermalEnsemble(
        temperature=temperature, dimension=sys.n, boltzmann=boltzmann, seed=seed
    )

    rows, shape = maps.reshape(-1, sys.n), maps.shape[:2] * 2

    def worker(rng, size):
        states = math.sqrt(ensemble.state_variance) * rng.standard_normal((size, sys.n))
        noise = states @ rows.T  # column j p + i: n_i(t_j)
        squares = noise**2
        return (noise.T @ noise).reshape(shape), (squares.T @ squares).reshape(shape)

    chunks = run_chunked(trials, worker, seed, threads=threads)
    first = sum(c[0] for c in chunks)
    second = sum(c[1] for c in chunks)
    mean = first / trials
    variance = np.maximum(second / trials - mean**2, 0.0)
    stderr = np.sqrt(variance / trials)
    analytic = kbt * np.einsum("jpn,lqn->jplq", maps, maps)
    deviation = np.abs(mean - analytic)
    floor = max(1e-300, 1e-15 * (1.0 + abs(kbt)))
    normalized = deviation / np.maximum(stderr, floor)
    # With exact zero deviation (zero temperature) the ratio is 0/floor.
    stationarity = _stationarity_spread(times, mean, np.maximum(stderr, floor))
    return FdtReport(
        times=times,
        empirical=mean,
        analytic=analytic,
        standard_error=stderr,
        max_abs_deviation=float(deviation.max()),
        max_normalized_deviation=float(normalized.max()),
        stationarity_normalized=stationarity,
        trials=trials,
    )


def _stationarity_spread(times, mean, stderr) -> float:
    """Worst equal-lag spread of the empirical kernel, in standard errors."""
    steps = np.diff(times)
    if steps.size == 0:
        return 0.0
    if np.abs(steps - steps[0]).max() > 1e-12 * max(1.0, abs(float(steps[0]))):
        return float("nan")
    m = times.shape[0]
    worst = 0.0
    for d in range(m):
        rows = np.arange(d, m)
        block = mean[rows, :, rows - d, :]
        if rows.size < 2:
            continue
        center = block.mean(axis=0)
        spread = np.abs(block - center) / stderr[rows, :, rows - d, :]
        worst = max(worst, float(spread.max()))
    return worst


@dataclass(frozen=True)
class LangevinModel(_StatePorts):
    """Dissipative realization (J - K, B, B^T) with its thermal drive.

    `L` factors the dissipation, L L^T = K; the stochastic term
    sqrt(2 k_B T) L v(t) with unit white noise v then reproduces the
    fluctuation statistics of the underlying lossless model at
    temperature T.  L defaults to a minimal-rank factor of K.
    """

    J: np.ndarray
    K: np.ndarray
    B: np.ndarray
    temperature: float
    L: np.ndarray | None = None
    boltzmann: float = 1.0

    def __post_init__(self):
        j = _skew_generator(self.J, "J", dense=True)
        k = as_float_array(self.K, "K", ndim=2)
        b = as_float_array(self.B, "B", ndim=2)
        if j.shape != k.shape or b.shape[0] != j.shape[0]:
            raise ValueError(
                f"shapes disagree: J {j.shape}, K {k.shape}, B {b.shape}"
            )
        _psd_eigh(k[None], "K", PSD_TOL)
        ell = factor_psd(k).T if self.L is None else as_float_array(self.L, "L", ndim=2)
        if ell.shape[0] != j.shape[0]:
            raise ValueError(f"L has {ell.shape[0]} rows, state dimension is {j.shape[0]}")
        if np.abs(ell @ ell.T - k).max(initial=0.0) > 1e-10 * max(1.0, np.abs(k).max(initial=0.0)):
            raise ValueError("L L^T does not reproduce K within 1e-10 max(1, max|K_ij|)")
        t = positive(self.temperature, "temperature", or_zero=True)
        kb = positive(self.boltzmann, "boltzmann constant")
        object.__setattr__(self, "J", j)
        object.__setattr__(self, "K", frozen(k))
        object.__setattr__(self, "B", frozen(b))
        object.__setattr__(self, "L", frozen(ell))
        object.__setattr__(self, "temperature", t)
        object.__setattr__(self, "boltzmann", kb)

    @property
    def noise_dim(self) -> int:
        return self.L.shape[1]


def simulate_langevin(
    model: LangevinModel,
    u,
    x0,
    dt: float,
    horizon: float,
    seed: int,
) -> Trajectory:
    """One Euler-Maruyama path of the Langevin equation.

    dx = (J - K) x dt + B u dt + sqrt(2 k_B T) L dW, with unit Wiener
    increments of variance dt; the path is a deterministic function of
    the seed.  Returns the state record (outputs are B^T x).  The
    Euler-Maruyama map is linear in x, u and the kicks, so it is one
    `_lti_run`.
    """
    u_vals, _, step = _input_samples(u, model.p, dt, horizon)
    steps = u_vals.shape[0] - 1
    x = _state_vector(x0, model.n)
    kicks = derive_rng(seed).standard_normal((steps, model.noise_dim))
    gain = math.sqrt(2.0 * model.boltzmann * model.temperature * step)
    phi = np.eye(model.n) + step * (model.J - model.K)
    drive = np.hstack([step * model.B, gain * model.L])
    out, _ = _lti_run(phi, x, drive, np.hstack([u_vals[:-1], kicks]))
    _require_finite(out, step)
    return Trajectory(dt=step, values=out)


def johnson_nyquist_intensity(gain_symmetric, temperature: float, *, boltzmann: float = 1.0) -> np.ndarray:
    """White-noise intensity 2 k_B T k_s of a dissipative memoryless element.

    The covariance of the open-circuit fluctuations is this matrix times
    a delta in the lag; a resistor R at temperature T gives the classic
    2 k_B T R.
    """
    ks = _square_gain(gain_symmetric, "symmetric gain")
    _psd_eigh(ks[None], "gain", PSD_TOL)
    t = positive(temperature, "temperature", or_zero=True)
    return 2.0 * float(boltzmann) * t * ks


def sample_johnson_noise(
    gain_symmetric,
    temperature: float,
    dt: float,
    steps: int,
    seed: int,
    *,
    boltzmann: float = 1.0,
) -> Trajectory:
    """Band-limited thermal noise of a memoryless element, sampled at dt.

    White noise only exists under an integral; at sample rate 1/dt the
    stand-in is an i.i.d. sequence whose per-sample covariance is the
    intensity divided by dt, so that integrated increments carry the
    right variance.
    """
    intensity = johnson_nyquist_intensity(gain_symmetric, temperature, boltzmann=boltzmann)
    positive(dt, "dt")
    if steps < 1:
        raise ValueError(f"steps must be positive, got {steps}")
    factor = factor_psd(intensity, psd_tol=PSD_TOL)
    kicks = derive_rng(seed).standard_normal((steps, factor.shape[0]))
    return Trajectory(dt=dt, values=(kicks @ factor) / math.sqrt(dt))


def _one_port(u: Trajectory) -> np.ndarray:
    """The samples of u, which must be one port."""
    _port_samples(u, 1, owner="the single-port supply decomposition")
    return u.values


def nonlinear_thermal_decompose(
    gain: float, initial_energy: float, u: Trajectory, state_offset: float
) -> tuple[Trajectory, Trajectory]:
    """Split the energy-supply response around k u into its two noises.

    A supply state charged to sqrt(2 E0) + offset plays

        y_E = k u + n_d + n_s,
        n_d = (k^2 / 2 E0) u(t) int_0^t u^2 ds   (implementation drift),
        n_s = (k offset / sqrt(2 E0)) u(t)       (thermal leak),

    exactly; both parts are returned on the input grid.  The offset is
    one realization of the Gibbs perturbation, so n_s is the sample-path
    thermal noise (`supply_noise_variance` gives its ensemble law).
    """
    k = float(gain)
    e0 = positive(initial_energy, "initial_energy")
    vals = _one_port(u)
    mass = cumulative_trapezoid(vals**2, dx=u.dt, axis=0, initial=0.0)
    drift = (k**2 / (2.0 * e0)) * vals * mass
    leak = (k * float(state_offset) / math.sqrt(2.0 * e0)) * vals
    return Trajectory(dt=u.dt, values=drift), Trajectory(dt=u.dt, values=leak)


def supply_noise_variance(
    gain: float, initial_energy: float, temperature: float, u: Trajectory, *, boltzmann: float = 1.0
) -> Trajectory:
    """Ensemble variance k^2 k_B T u(t)^2 / (2 E0) of the thermal leak.

    Unlike Johnson-Nyquist noise this is not white: it rides on the
    input, vanishes with it, and scales inversely with the stored
    charge.  Temperature enters linearly, as always.
    """
    k = float(gain)
    e0 = positive(initial_energy, "initial_energy")
    t = positive(temperature, "temperature", or_zero=True)
    return Trajectory(
        dt=u.dt, values=(k**2 * float(boltzmann) * t / (2.0 * e0)) * _one_port(u)**2
    )
