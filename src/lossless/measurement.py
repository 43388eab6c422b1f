"""Probe back action and the accuracy limits it imposes on estimation.

The task: estimate the scalar potential y(t_m) = B^T x(t_m) of a
conservative system xdot = Jx + Bu after probing it on [0, t_m].
Connecting any physical probe loads the port, so the state is pushed
off its natural trajectory e^{Jt} x0; that displacement is the back
action b(t_m).  Four probe models are covered, named by variant:

  M1    - memoryless dissipative probe of admittance k_m.  Reads the
          potential exactly but loads the port, so b is O(t_m).
  M1hat - the same admittance realized as a conservative subsystem in
          thermal equilibrium at temperature T_m.  Both the drive into
          the system and the readout then carry thermal noise, and the
          two ride on one and the same white-noise process.
  M2    - active probe whose negative branch cancels the loading: no
          back action, no estimation error, at any t_m.
  M2hat - M2 with the cancelling branch realized by an energy-supply
          state charged to E_m and thermally perturbed; the dissipative
          branch is realized as in M1hat.

The shared noise process is what keeps the estimation problem exactly
solvable.  Substituting the readout record back into the state update
removes the noise term, so given the record the perturbed state evolves
deterministically from x0 and optimal filtering reduces to weighted
least squares on x0 with a diffuse prior.  For M1hat the whole chain,
probe and filter, is linear in the noise, so a Monte-Carlo chunk of
trials is one matrix product with a noise map built once per horizon;
the supply-backed probe is bilinear, so its trials are stepped together,
one column each.  `riccati_solve` exploits the
same collapse in continuous time; its minimum error variance agrees
with the matrix Riccati equation of the optimal filter, integrated here
in square-root information form so the diffuse start is exact rather
than a large-prior approximation.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from ._util import as_float_array, frozen, positive, run_chunked
from .statespace import (
    Trajectory,
    _lti_run,
    _port_samples,
    _require_finite,
    _skew_generator,
    _state_vector,
    _step_count,
    integrate_ode,
    lc_ladder,
    matrix_exponential,
)

__all__ = [
    "BenchmarkReport",
    "ColumnFit",
    "DEVICE_VARIANTS",
    "Device",
    "DeviceSummary",
    "MeasuredSystem",
    "MeasurementOutcome",
    "RiccatiSolution",
    "SummaryRow",
    "TradeoffReport",
    "benchmark_estimator",
    "device_summary",
    "kalman_estimate",
    "measured_lc",
    "riccati_solve",
    "simulate_device",
    "tradeoff_product",
]

DEVICE_VARIANTS = ("M1", "M1hat", "M2", "M2hat")

#: Parameters each variant requires (all other optional fields must be unset).
_VARIANT_NEEDS = {
    "M1": (),
    "M1hat": ("temperature",),
    "M2": (),
    "M2hat": ("temperature", "supply_energy"),
}

#: Probe steps per horizon where no step is given: dt = t_m / _PROBE_STEPS.
_PROBE_STEPS = 256


def _is_noisy(variant: str) -> bool:
    """True for the realized (thermal) variants, the ones with a temperature."""
    return "temperature" in _VARIANT_NEEDS[variant]


def _require_x0_determined(system, variant: str, steps: int) -> None:
    """A thermal probe's filter needs at least n readout samples for x0."""
    if _is_noisy(variant) and steps + 1 < system.n:
        raise ValueError(f"x0 is not determined: {steps + 1} readout samples for {system.n} states")


def _cell_seed(seed: int, index: int) -> int:
    """Seed of cell `index` of a sweep, so that cells draw disjoint streams."""
    return seed + 7919 * index


@dataclass(frozen=True)
class MeasuredSystem:
    """Conservative single-port system with a fixed, deterministic start.

    The port vector B, (n,) or (n, 1), is one port: one potential is
    measured.  The capacitance-like scale C = 1/(B^T B) measures how much
    charge the port soaks up per unit potential, and y0 = B^T x0 is the
    initial potential the probes try to estimate.  J must be dense.
    """

    J: np.ndarray
    B: np.ndarray
    x0: np.ndarray

    def __post_init__(self):
        j = _skew_generator(self.J, "J", dense=True)
        b = as_float_array(_port_samples(self.B, 1, what="B", owner="the measured port")[:, 0], "B")
        if b.shape[0] != j.shape[0]:
            raise ValueError(f"dimension mismatch: J is {j.shape[0]}x{j.shape[0]}, B has {b.shape[0]} entries")
        if b @ b <= 0.0:
            raise ValueError("B must be nonzero")
        object.__setattr__(self, "J", j)
        object.__setattr__(self, "B", frozen(b))
        object.__setattr__(self, "x0", frozen(_state_vector(self.x0, j.shape[0])))

    @property
    def n(self) -> int:
        return self.B.shape[0]

    @property
    def c_cap(self) -> float:
        """Capacitance-like scale 1/(B^T B)."""
        return 1.0 / float(self.B @ self.B)

    @property
    def y0(self) -> float:
        """Initial potential B^T x0."""
        return float(self.B @ self.x0)


def measured_lc() -> MeasuredSystem:
    """The LC-ladder fixture primed at x0 = (1, 0, 0), so y0 = 1."""
    circuit = lc_ladder()
    return MeasuredSystem(J=np.asarray(circuit.J), B=circuit.B[:, 0], x0=[1.0, 0.0, 0.0])


@dataclass(frozen=True)
class Device:
    """Probe description: variant plus the parameters that variant uses.

    `admittance` (k_m) is the port loading, always required.  The
    realized variants also need `temperature` (T_m); M2hat additionally
    needs `supply_energy` (E_m), the deterministic charge of its active
    element.  Supplying a parameter a variant does not use is rejected,
    since it would silently change nothing.
    """

    variant: str
    admittance: float
    temperature: float | None = None
    supply_energy: float | None = None
    boltzmann: float = 1.0

    def __post_init__(self):
        if self.variant not in DEVICE_VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {DEVICE_VARIANTS}")
        km = positive(self.admittance, "admittance")
        needs = _VARIANT_NEEDS[self.variant]
        for name in ("temperature", "supply_energy"):
            value = getattr(self, name)
            if name in needs:
                if value is None:
                    raise ValueError(f"variant {self.variant} requires {name}")
            elif value is not None:
                raise ValueError(f"variant {self.variant} does not use {name}")
        t = None if self.temperature is None else positive(self.temperature, "temperature", or_zero=True)
        em = None if self.supply_energy is None else positive(self.supply_energy, "supply_energy")
        kb = positive(self.boltzmann, "boltzmann constant")
        object.__setattr__(self, "admittance", km)
        object.__setattr__(self, "temperature", t)
        object.__setattr__(self, "supply_energy", em)
        object.__setattr__(self, "boltzmann", kb)

    @property
    def is_noisy(self) -> bool:
        """True for the realized (thermal) variants."""
        return _is_noisy(self.variant)


@dataclass(frozen=True)
class MeasurementOutcome:
    """Everything one probing run establishes.

    `y_m` and `y_hat` are the readout record and final estimate of one
    representative trial; `b_d` is the deterministic back action (the
    mean displacement with thermal fluctuations switched off), `b_mean`
    the Monte-Carlo trial mean, and `P` the sample covariance of the
    back action across trials.  `m_star` is the minimum achievable
    error variance from `riccati_solve`; `estimate_variance` is the
    empirical mean square error of the filter actually run.  `product`
    is the trade-off quantity |dy| |dyhat| built from P and m_star.
    `max_correction_residual` checks, per trial, that subtracting the
    estimation error and the projected back action from the estimate
    recovers the unperturbed potential; it sits at roundoff level
    because all three come from one trajectory.
    """

    variant: str
    t_m: float
    trials: int
    y_m: Trajectory
    y_hat: float
    b_d: np.ndarray
    b_mean: np.ndarray
    P: np.ndarray
    m_star: float
    estimate_variance: float
    mean_error: float
    delta_y: float
    delta_y_hat: float
    product: float
    max_correction_residual: float

    def __post_init__(self):
        object.__setattr__(self, "b_d", frozen(np.asarray(self.b_d, dtype=float)))
        object.__setattr__(self, "b_mean", frozen(np.asarray(self.b_mean, dtype=float)))
        p = np.asarray(self.P, dtype=float)
        object.__setattr__(self, "P", frozen(0.5 * (p + p.T)))


def _natural_final(system: MeasuredSystem, t: float) -> np.ndarray:
    return matrix_exponential(system.J * t) @ system.x0


def _supply_aux_path(system, km: float, supply_energy: float, dt: float, steps: int):
    """Noise-free closed loop of the active probe, plus its drift signal.

    Integrates the measured state together with the supply state x_r
    (charged exactly to sqrt(2 E_m)) and returns the state path and the
    drift w_d(t) = k_m (x_r/sqrt(2 E_m) - 1) y(t) that the supply's slow
    discharge injects at the port.
    """
    j, b = system.J, system.B
    root = math.sqrt(2.0 * supply_energy)
    n = system.n

    def rates(_, z):
        x2, xr = z[:n], z[n]
        y2 = b @ x2
        dx2 = j @ x2 + km * (xr / root - 1.0) * y2 * b
        return np.concatenate([dx2, [(km / root) * y2**2]])

    path = integrate_ode(rates, np.concatenate([system.x0, [root]]), dt, steps * dt)
    states, supply = path.values[:, :n], path.values[:, n]
    return states, km * (supply / root - 1.0) * (states @ b)


def simulate_device(
    system: MeasuredSystem,
    device: Device,
    t_m: float,
    dt: float,
    trials: int,
    seed: int = 0,
    *,
    threads: int = 1,
) -> MeasurementOutcome:
    """Probe the system on [0, t_m] and collect back-action statistics.

    The ideal variants are deterministic: their closed-form run is one
    noiseless trial, regardless of `trials`, whose exact readout is its
    own estimate.  The realized variants simulate `trials` independent
    thermal histories (Euler-Maruyama on the grid, measurement noise
    matched to the same step) and filter each record optimally: the
    unknown is only x0, so the estimate is least squares over the rows
    of `_record_chain`.  M1hat is linear in its noise: a trial's final
    state and estimate are one affine map of it, built once per call
    (`_noise_map`), so a chunk of trials is one product with the map, and
    only the first trial's record is run, for `y_m`.  M2hat steps a
    chunk's trials together and solves their least-squares problems as
    one batch of QR factors.  Chunked substreams make the result
    independent of `threads` bit for bit.  Both reduce their chunk sums
    in `_outcome`.  A thermal record needs n samples to determine x0; a
    diverging M2hat probe raises FloatingPointError at its first bad time.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    steps = _step_count(t_m, dt)
    _require_x0_determined(system, device.variant, steps)
    b, km = system.B, device.admittance
    x_nat = _natural_final(system, t_m)
    y_nat = float(b @ x_nat)
    if not device.is_noisy:
        # M2's active branch cancels the loading, so its port current stays zero
        loading = km * np.outer(b, b) if device.variant == "M1" else 0.0
        phi = matrix_exponential((system.J - loading) * dt)
        record, final = _lti_run(phi, system.x0, c=b, steps=steps)
        b_d = final - x_nat if device.variant == "M1" else np.zeros(system.n)
        y_hat = record[-1:]
        sums = _chunk_sums(record[:, None], y_hat, y_hat, b_d[None], y_nat, b)
        return _outcome(system, device, t_m, dt, 1, b_d, [sums])

    if device.variant == "M1hat":
        loaded = matrix_exponential((system.J - km * np.outer(b, b)) * t_m)
        b_d = loaded @ system.x0 - x_nat
        const, gain = _noise_map(system, device, dt, steps)

        def worker(rng, count):
            eta = rng.standard_normal((steps + 1, count))
            final = gain @ eta + const[:, None]  # rows :n the final states, row n the estimates
            record, _ = _m1hat_probe(system, device, dt, eta[:, :1])
            states = final[:-1].T
            return _chunk_sums(record, final[-1], states @ b, states - x_nat, y_nat, b)
    else:
        aux_states, drift = _supply_aux_path(system, km, device.supply_energy, dt, steps)
        b_d, drift = aux_states[-1] - x_nat, drift[:, None]

        def worker(rng, count):
            records, states, offsets = _probe_trials(system, device, dt, steps, rng, count)
            _, rows, pushed = _record_chain(system, device, dt, records, drift, offsets)
            q, r = np.linalg.qr(rows)
            rhs = (records - pushed).T[:, None, :] @ q  # Q^T (y_m - pushed), trial by trial
            theta = np.linalg.solve(r, rhs.swapaxes(1, 2))
            estimates = (rows[:, -1:] @ theta)[:, 0, 0] + pushed[-1]
            return _chunk_sums(records, estimates, states @ b, states - x_nat, y_nat, b)

    parts = run_chunked(trials, worker, seed, threads=threads)
    return _outcome(system, device, t_m, dt, trials, b_d, parts)


class _ChunkSums(NamedTuple):
    """What one chunk of trials adds to its `MeasurementOutcome`."""

    back: np.ndarray  # sum of the back actions
    back_outer: np.ndarray  # sum of their outer products
    error: float  # sum of the estimation errors
    error_sq: float  # sum of their squares
    residual: float  # largest correction residual
    record: np.ndarray  # readout record of the chunk's first trial
    y_hat: float  # and its final estimate


def _chunk_sums(records, estimates, truth, back, y_nat, b) -> _ChunkSums:
    """Sums of one chunk: records (steps + 1, count), the final estimates
    and true potentials (count,) and the back actions (count, n)."""
    errors = estimates - truth
    residual = np.abs(y_nat - (estimates - errors - back @ b)).max()
    return _ChunkSums(back.sum(axis=0), back.T @ back, errors.sum(), errors @ errors,
                      residual, records[:, 0].copy(), float(estimates[0]))


def _outcome(system, device, t_m, dt, trials, b_d, parts) -> MeasurementOutcome:
    """Reduce the chunk sums of `trials` trials, in chunk order."""

    def total(name):
        return functools.reduce(operator.add, [getattr(p, name) for p in parts])

    b_mean = total("back") / trials
    if trials > 1:
        cov = (total("back_outer") - trials * np.outer(b_mean, b_mean)) / (trials - 1)
    else:
        cov = np.zeros((system.n, system.n))
    cov = 0.5 * (cov + cov.T)
    m_star = _m_star(system, device, t_m)
    delta_y = math.sqrt(max(float(system.B @ cov @ system.B), 0.0))
    delta_y_hat = math.sqrt(m_star)
    return MeasurementOutcome(
        variant=device.variant,
        t_m=float(t_m),
        trials=trials,
        y_m=Trajectory(dt=dt, values=parts[0].record),
        y_hat=parts[0].y_hat,
        b_d=b_d,
        b_mean=b_mean,
        P=cov,
        m_star=m_star,
        estimate_variance=total("error_sq") / trials,
        mean_error=total("error") / trials,
        delta_y=delta_y,
        delta_y_hat=delta_y_hat,
        product=delta_y * delta_y_hat,
        max_correction_residual=float(max(p.residual for p in parts)),
    )


def _noise_scales(device, dt) -> tuple[float, float]:
    """(kick, meas): what one unit of a thermal probe's white noise adds to
    the port drive of a step and to the readout sample."""
    km = device.admittance
    kbt = device.boltzmann * device.temperature
    return -math.sqrt(2.0 * km * kbt * dt), math.sqrt(2.0 * kbt / (km * dt))


def _probe_trials(system, device, dt, steps, rng, count):
    """Euler-Maruyama histories of `count` thermal probe trials.

    The readout and the kick into the system ride on the same white
    noise.  Returns the readout records (steps + 1, count), the final
    states (count, n) and, for M2hat, each trial's supply offset (drawn
    first from `rng`); M1hat returns None for the offsets.  M1hat is
    linear, so a chunk is one lifted run.  The M2hat supply state is not:
    its chunk steps all trials at once on (n, count) columns, each step's
    port term stacked under the states so that a step is one product.
    """
    if device.variant == "M1hat":
        records, states = _m1hat_probe(system, device, dt, rng.standard_normal((steps + 1, count)))
        return records, states, None
    b, n = system.B, system.n
    kick, meas = _noise_scales(device, dt)
    root = math.sqrt(2.0 * device.supply_energy)
    rate = dt * device.admittance / root
    offsets = math.sqrt(device.boltzmann * device.temperature) * rng.standard_normal(count)
    eta = rng.standard_normal((steps + 1, count))
    records, kicks = meas * eta, kick * eta
    charge = offsets.copy()  # the supply state less sqrt(2 E_m)
    # rows :n hold x[k], row n the port term g[k]: x[k+1] = (I + dt J) x[k] + g[k] B
    step = np.column_stack([np.eye(n) + dt * system.J, b])
    cur = np.empty((n + 1, count))
    cur[:n] = system.x0[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps + 1):
            y = b @ cur[:n]
            records[k] += y
            if k == steps:
                break
            cur[n] = rate * charge * y + kicks[k]  # the load k_m dt (x_r/sqrt(2 E_m) - 1) y, the kick
            cur[:n] = step @ cur
            charge += rate * y * y
    _require_finite(records, dt)  # a non-finite state reaches y = b^T x
    return records, cur[:n].T, offsets


def _m1hat_probe(system, device, dt, eta):
    """Readout records (steps + 1, count) and final states (count, n) of the
    M1hat trials whose white noise is eta (steps + 1, count)."""
    b = system.B
    kick, meas = _noise_scales(device, dt)
    readouts, states = _lti_run(_loaded_step(system, device, dt), system.x0, kick * b[:, None],
                                eta[:-1, None], c=b)
    return readouts + meas * eta, states.T


def _loaded_step(system, device, dt) -> np.ndarray:
    """The M1hat probe's Euler step I + dt (J - k_m B B^T)."""
    b = system.B
    return np.eye(system.n) + dt * (system.J - device.admittance * np.outer(b, b))


def _noise_map(system, device, dt, steps):
    """(const, G): an M1hat trial's final state and batch estimate as const
    + G eta, affine in its white noise eta (steps + 1,); G is (n + 1, steps + 1).

    With a_d the loaded step, the record is y_m = clean + meas eta + kick
    M eta, clean[k] = b^T a_d^k x0 and M[k, j] = b^T a_d^{k-1-j} b for
    j < k, and the final state is
    a_d^steps x0 + kick sum_j a_d^{steps-1-j} b eta[j].  The batch filter
    (`_record_chain`'s rows, least squares, then the push) is linear in
    y_m: with pushed = P y_m, P[k, j] = -k_m dt b^T chain^{k-1-j} b, and w =
    Q R^-T rows[steps] from the QR of the rows, the estimate w^T (y_m -
    pushed) + pushed[steps] is v^T y_m, v = w - P^T (w - e_steps).  Both
    transposed products are one reverse run each, so G takes O(steps n)
    memory.
    """
    b, n, km = system.B, system.n, device.admittance
    kick, meas = _noise_scales(device, dt)
    a_d = _loaded_step(system, device, dt)
    chain, rows, _ = _record_chain(system, device, dt, np.zeros(steps + 1))
    q, r = np.linalg.qr(rows)
    w = q @ scipy.linalg.solve_triangular(r, rows[-1], trans="T")
    resid = w.copy()
    resid[-1] -= 1.0
    v = w + (km * dt) * _adjoint_run(chain, b, resid)
    powers, _ = _lti_run(a_d, b, steps=steps - 1)  # a_d^i b, i < steps
    gain = np.zeros((n + 1, steps + 1))
    gain[:n, :-1] = kick * powers[::-1].T
    gain[n] = meas * v + kick * _adjoint_run(a_d, b, v)
    clean, final = _lti_run(a_d, system.x0, c=b, steps=steps)
    return np.append(final, v @ clean), gain


def _adjoint_run(phi, b, weights) -> np.ndarray:
    """sum_{k > j} weights[k] b^T phi^{k-1-j} b for j = 0..steps, one reverse
    run of phi^T driven by weights[steps], ..., weights[1]."""
    out, _ = _lti_run(phi.T, np.zeros(b.shape[0]), b[:, None], weights[:0:-1, None], c=b)
    return out[::-1]


def _record_chain(system, device, dt, records, drift=None, offset=None):
    """The thermal probes' filter model, driven by the readout record y_m.

    Given y_m, a trial's state obeys x[k+1] = A x[k] + port[k] B exactly,
    with A = I + dt J + scale B B^T, port[k] = dt w_d[k] - k_m dt y_m[k],
    and, for M2hat, scale = dt k_m (1 + offset/sqrt(2 E_m)) and the
    supply's noise-free drift w_d (M1hat: scale 0, no drift).  Writing
    x[k] = A^k x0 + f[k], y_m[k] - B^T f[k] is b^T A^k x0 plus noise.
    Returns A, the rows b^T A^k and pushed[k] = B^T f[k] (shaped like
    `records`).  One scale runs through `_lti_run`.  One scale per trial
    (count,) gives A = None and rows (count, steps + 1, n), stepped on
    (n, count) columns with each step's port term stacked under them, so
    that a step of the forcing and of the rows is one product each.
    """
    b, n, km = system.B, system.n, device.admittance
    a0 = np.eye(n) + dt * system.J
    port = (0.0 if drift is None else dt * drift[:-1]) - (km * dt) * records[:-1]
    scale = (0.0 if offset is None
             else dt * km * (1.0 + offset / math.sqrt(2.0 * device.supply_energy)))
    steps = port.shape[0]
    if np.ndim(scale) == 0:
        chain = a0 + scale * np.outer(b, b)
        rows, _ = _lti_run(chain.T, b, steps=steps)
        pushed, _ = _lti_run(chain, np.zeros(n), b[:, None], port[:, None], c=b)
        return chain, rows, pushed
    count = scale.shape[0]
    forward, backward = np.column_stack([a0, b]), np.column_stack([a0.T, b])
    # rows :n hold the forcing f[k] and the row b^T A^k as columns, row n their port terms
    forcing, cur = np.zeros((n + 1, count)), np.empty((n + 1, count))
    cur[:n] = b[:, None]
    rows = np.empty((count, steps + 1, n))
    pushed = np.empty((steps + 1, count))
    for k in range(steps + 1):
        pushed[k] = b @ forcing[:n]
        rows[:, k] = cur[:n].T
        if k == steps:
            break
        forcing[n] = scale * pushed[k] + port[k]
        cur[n] = scale * (b @ cur[:n])
        forcing[:n] = forward @ forcing
        cur[:n] = backward @ cur
    return None, rows, pushed


def _m_star(system, device, t_m) -> float:
    """Riccati error floor at t_m (zero for a noiseless readout: an ideal
    probe, whose temperature is None, or a realized one at zero)."""
    if not device.temperature:
        return 0.0
    sol = riccati_solve(system, device.admittance, device.temperature, [t_m],
                        boltzmann=device.boltzmann)
    return float(sol.m_star[0])


@dataclass(frozen=True)
class RiccatiSolution:
    """Minimum-variance estimation limits on a time grid.

    `state_covariance[k]` is the optimal filter's state error
    covariance X(t_k); `m_star[k] = B^T X(t_k) B` is the least error
    variance any estimator of the potential can reach at that horizon,
    with the diffuse start X(0) = infinity built in exactly.
    """

    times: np.ndarray
    state_covariance: np.ndarray
    m_star: np.ndarray

    def __post_init__(self):
        for name in ("times", "state_covariance", "m_star"):
            object.__setattr__(self, name, frozen(np.asarray(getattr(self, name), dtype=float)))


def riccati_solve(
    system: MeasuredSystem,
    admittance: float,
    temperature: float,
    grid,
    *,
    boltzmann: float = 1.0,
    max_substep: float = 5e-3,
) -> RiccatiSolution:
    """Integrate the optimal filter's error covariance on a time grid.

    Because process and readout noise share one source, the filter
    Riccati equation collapses to Xdot = JX + XJ^T - c X B B^T X with
    c = k_m/(2 k_B T_m), whose solution through a diffuse start is
    X(t) = e^{Jt} I(t)^{-1} e^{J^T t} with the information Gramian
    I(t) = c int_0^t e^{J^T s} B B^T e^{Js} ds.  The Gramian is
    accumulated as a QR factorization of Gauss-Legendre quadrature
    rows (4 nodes per panel, exact for the polynomial moments that
    dominate small horizons), so the hugely ill-conditioned small-time
    regime (eigenvalues spread like t, t^3, t^5, ...) is handled at
    the square root of its condition number.  Works on any increasing
    positive grid, uniform or not.  A factor whose smallest diagonal is
    1e-14 of its largest raises ArithmeticError: every interval folds at
    least 8 node rows, so no finer quadrature restores what rounding lost.
    """
    times = as_float_array(grid, "grid", ndim=1)
    if times.shape[0] < 1 or times[0] <= 0 or np.any(np.diff(times) <= 0):
        raise ValueError("grid must be strictly increasing and start above 0")
    km = positive(admittance, "admittance")
    t_dev = positive(temperature, "temperature", or_zero=True)
    n = system.n
    if t_dev == 0.0:
        zeros = np.zeros((times.shape[0], n, n))
        return RiccatiSolution(times=times, state_covariance=zeros, m_star=np.zeros(times.shape[0]))

    c = km / (2.0 * float(boltzmann) * t_dev)
    j, b = system.J, system.B
    r_fac = np.zeros((n, n))
    covs = np.empty((times.shape[0], n, n))
    mstars = np.empty(times.shape[0])
    prev, propagator = 0.0, np.eye(n)  # e^{J prev}
    panels: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    for idx, t in enumerate(times):
        r_fac = _fold_gramian_rows(r_fac, j, b, c, prev, t, max_substep, propagator, panels)
        diag = np.abs(np.diag(r_fac))
        if diag.min() <= 1e-14 * max(diag.max(), 1e-300):
            raise ArithmeticError(
                f"information matrix is singular at t = {t:.6g}: "
                "the port does not excite the full state, so the "
                "diffuse start cannot be resolved"
            )
        propagator = matrix_exponential(j * t)
        half = scipy.linalg.solve_triangular(r_fac, propagator.T, trans="T")
        cov = half.T @ half
        covs[idx] = 0.5 * (cov + cov.T)
        vec = scipy.linalg.solve_triangular(r_fac, propagator.T @ b, trans="T")
        mstars[idx] = vec @ vec
        prev = t
    return RiccatiSolution(times=times, state_covariance=covs, m_star=mstars)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(4)


def _fold_gramian_rows(r_fac, j, b, c, t_lo, t_hi, max_substep, start, panels):
    """Fold Gauss-Legendre Gramian rows for [t_lo, t_hi] into the QR factor;
    `start` is e^{J t_lo}.  `panels` maps a panel width h to its weighted
    node rows and e^{J h}, which depend on h alone for one (J, B, c), so
    grid intervals that share a width share them."""
    span = t_hi - t_lo
    nsub = max(2, int(math.ceil(span / max_substep)))
    h = span / nsub
    if h not in panels:
        # rows B^T e^{Js} at the panel's nodes, read out of e^{J(t_lo + i h)}
        node_rows = np.stack(
            [b @ matrix_exponential(j * (0.5 * h * (xi + 1.0))) for xi in _GL_NODES]
        )
        node_rows *= np.sqrt(c * 0.5 * h * _GL_WEIGHTS)[:, None]
        panels[h] = node_rows, matrix_exponential(j * h)
    node_rows, step = panels[h]
    rows, _ = _lti_run(step, start, c=node_rows, steps=nsub - 1)
    return np.linalg.qr(np.vstack([r_fac, rows.reshape(-1, b.shape[0])]))[1]


def kalman_estimate(
    system: MeasuredSystem,
    device: Device,
    y_m: Trajectory,
    *,
    state_offset: float | None = None,
    drift=None,
) -> tuple[Trajectory, Trajectory]:
    """Run the optimal filter over one readout record.

    Returns the running estimate yhat(t_k) of the perturbed potential
    and the record of the filter gain vector.  The M2hat filter needs
    the trial's supply offset (`state_offset`), and accepts the drift
    signal w_d as a Trajectory on the readout grid or a callable; by
    default it recomputes the noise-free drift itself.  M1hat takes
    neither.  At T_m = 0 the readout is exact and
    the estimate is the record itself, gain zero.

    The filter is least squares on the initial state with a diffuse
    prior over the rows of `_record_chain`, the model `simulate_device`
    filters with, grown one record sample at a time: each sample's
    weighted row is folded into the triangular square-root information
    factor R by one QR, and the estimate and the covariance
    (R^T R)^+ = R^+ R^+T are read from R.  The covariance is thus
    positive semidefinite by construction, so no re-symmetrization pass
    is ever triggered.
    """
    if not device.is_noisy:
        raise ValueError("the filter applies to the realized variants M1hat and M2hat")
    one_port = "the filter of a scalar-valued port"
    record = _port_samples(y_m, 1, what="the readout record", owner=one_port)[:, 0]
    if device.variant == "M1hat" and (state_offset is not None or drift is not None):
        raise ValueError("M1hat has no supply state, so state_offset and drift must be None")
    if device.variant == "M2hat" and state_offset is None:
        raise ValueError("the M2hat filter needs the supply offset it is assumed to know")
    steps = record.shape[0] - 1
    if steps < 1:
        raise ValueError("the record must hold at least two samples")
    dt = y_m.dt
    n = system.n
    b = system.B
    km = device.admittance
    kbt = device.boltzmann * device.temperature
    if kbt == 0.0:
        return (
            Trajectory(dt=dt, values=y_m.values),
            Trajectory(dt=dt, values=np.zeros((steps + 1, n))),
        )

    offset = None if state_offset is None else float(state_offset)
    if device.variant == "M2hat" and drift is None:
        _, drift = _supply_aux_path(system, km, device.supply_energy, dt, steps)
    elif isinstance(drift, Trajectory):
        if drift.values.shape[0] != steps + 1 or not math.isclose(drift.dt, dt, rel_tol=1e-9):
            raise ValueError("drift record does not match the readout grid")
        drift = _port_samples(drift, 1, what="the drift record", owner=one_port)[:, 0]
    elif drift is not None:
        drift = np.array([float(drift(k * dt)) for k in range(steps + 1)])
    chain, rows, pushed = _record_chain(system, device, dt, record, drift, offset)
    props, _ = _lti_run(chain, np.eye(n), steps=steps)  # chain^k, for the gains
    c = km / (2.0 * kbt)
    # weighted rows [w b^T chain^k, w (y_m[k] - B^T f[k])], so that R^T R
    # is the information matrix and the last column carries the record
    weighted = math.sqrt(c * dt) * np.column_stack([rows, record - pushed])
    fac = np.empty((0, n + 1))
    estimates = np.empty(steps + 1)
    gains = np.empty((steps + 1, n))
    for k in range(steps + 1):
        fac = np.linalg.qr(np.vstack([fac, weighted[k]]), mode="r")
        r_pinv = np.linalg.pinv(fac[:n, :n])
        estimates[k] = rows[k] @ (r_pinv @ fac[:n, n]) + pushed[k]
        gains[k] = c * (props[k] @ (r_pinv @ (r_pinv.T @ rows[k])) - 2.0 * kbt * b)
    return Trajectory(dt=dt, values=estimates.reshape(y_m.values.shape)), Trajectory(dt=dt, values=gains)


@dataclass(frozen=True)
class TradeoffReport:
    """Both sides of the back-action/accuracy product at one horizon.

    `lhs` pairs the Monte-Carlo potential disturbance with the Riccati
    error floor; `lhs_empirical` swaps in the filter's measured error.
    `rhs` = 2 k_B T_m / C is the invariant the product is compared to.
    """

    t_m: float
    admittance: float
    delta_y: float
    delta_y_hat: float
    delta_y_hat_empirical: float
    lhs: float
    lhs_empirical: float
    rhs: float
    ratio: float


def tradeoff_product(
    system: MeasuredSystem,
    device: Device,
    t_m: float,
    trials: int,
    seed: int = 0,
    *,
    dt: float | None = None,
    threads: int = 1,
) -> TradeoffReport:
    """Measure |dy| |dyhat| against its floor 2 k_B T_m / C."""
    if not device.is_noisy:
        raise ValueError("the trade-off is defined for the realized variants")
    if dt is None:
        dt = t_m / _PROBE_STEPS
    outcome = simulate_device(system, device, t_m, dt, trials, seed, threads=threads)
    rhs = 2.0 * device.boltzmann * device.temperature / system.c_cap
    emp = math.sqrt(max(outcome.estimate_variance, 0.0))
    lhs = outcome.delta_y * outcome.delta_y_hat
    return TradeoffReport(
        t_m=float(t_m),
        admittance=device.admittance,
        delta_y=outcome.delta_y,
        delta_y_hat=outcome.delta_y_hat,
        delta_y_hat_empirical=emp,
        lhs=lhs,
        lhs_empirical=outcome.delta_y * emp,
        rhs=rhs,
        ratio=lhs / rhs if rhs > 0 else math.inf,
    )


@dataclass(frozen=True)
class BenchmarkReport:
    """A user estimator's mean square error next to the optimal floor."""

    variance: float
    m_star: float
    ratio: float
    trials: int


def benchmark_estimator(
    system: MeasuredSystem,
    device: Device,
    estimator,
    t_m: float,
    dt: float,
    trials: int,
    seed: int = 0,
    *,
    threads: int = 1,
) -> BenchmarkReport:
    """Score `estimator(times, record) -> float` against the error floor.

    The estimator sees exactly what the optimal filter sees, one readout
    record at a time, and must return its estimate of the perturbed
    potential at t_m.  No estimator can beat `m_star` by more than
    Monte-Carlo fluctuation, however it is built.
    """
    if not device.is_noisy:
        raise ValueError("benchmarking needs a noisy readout")
    steps = _step_count(t_m, dt)
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    times = np.arange(steps + 1) * dt

    def worker(rng, count):
        records, states, _ = _probe_trials(system, device, dt, steps, rng, count)
        truth = states @ system.B
        total = 0.0
        for i in range(count):
            err = float(estimator(times, records[:, i])) - truth[i]
            total += err * err
        return total

    total = sum(run_chunked(trials, worker, seed, threads=threads))
    variance = total / trials
    m_star = _m_star(system, device, t_m)
    return BenchmarkReport(
        variance=variance,
        m_star=m_star,
        ratio=variance / m_star if m_star > 0 else math.inf,
        trials=trials,
    )


@dataclass(frozen=True)
class SummaryRow:
    """One device at one horizon: the four back-action/accuracy columns."""

    variant: str
    t_m: float
    b_d_norm: float
    trace_p: float
    delta_y_sq: float
    m_star: float
    estimate_variance: float


@dataclass(frozen=True)
class ColumnFit:
    """Leading-order fit of one summary column against its horizon law.

    `slope` is the log-log exponent over the grid, `coefficient` the
    value of column/t_m^exponent at the smallest horizon, `reference`
    the closed-form prediction, `ratio` their quotient (nan for columns
    that are identically zero).  `note` records adjudications, such as
    which candidate coefficient the M2hat deterministic back action
    actually follows.
    """

    variant: str
    column: str
    exponent: int
    slope: float
    coefficient: float
    reference: float
    ratio: float
    note: str = ""


@dataclass(frozen=True)
class DeviceSummary:
    rows: tuple
    fits: tuple

    def column(self, variant: str, name: str) -> np.ndarray:
        """Values of one column for one variant, in grid order."""
        return np.array([getattr(r, name) for r in self.rows if r.variant == variant])


def device_summary(
    system: MeasuredSystem,
    tm_grid,
    devices,
    trials: int,
    seed: int = 0,
    *,
    threads: int = 1,
) -> DeviceSummary:
    """Tabulate back action and estimation floor over a horizon sweep.

    For each device and each t_m the four columns are the norm of the
    deterministic back action, the trace of the back-action covariance,
    the potential variance B^T P B, and the Riccati floor; stochastic
    columns are Monte-Carlo with `trials` histories at dt = t_m/256.
    Each column is then fitted to its leading power law.  The
    deterministic back action of M2hat is adjudicated against the two
    candidate coefficients k_m^2 y0^3/(4 E_m) and k_m y0^3/(4 E_m),
    which genuinely disagree; the note says which one the simulation
    backs.
    """
    grid = as_float_array(tm_grid, "tm_grid", ndim=1)
    if grid.shape[0] < 2 or grid[0] <= 0 or np.any(np.diff(grid) <= 0):
        raise ValueError("tm_grid must be increasing, positive, and hold at least 2 points")
    rows = []
    fits = []
    for d_idx, device in enumerate(devices):
        for t_idx, t_m in enumerate(grid):
            run_seed = _cell_seed(seed, d_idx * grid.shape[0] + t_idx)
            out = simulate_device(system, device, float(t_m), float(t_m) / _PROBE_STEPS,
                                  trials, run_seed, threads=threads)
            rows.append(
                SummaryRow(
                    variant=device.variant,
                    t_m=float(t_m),
                    b_d_norm=float(np.linalg.norm(out.b_d)),
                    trace_p=float(np.trace(out.P)),
                    delta_y_sq=float(system.B @ out.P @ system.B),
                    m_star=out.m_star,
                    estimate_variance=out.estimate_variance,
                )
            )
        fits.extend(_fit_columns(system, device, rows[-grid.shape[0]:]))
    return DeviceSummary(rows=tuple(rows), fits=tuple(fits))


def _fit_columns(system, device, rows):
    km = device.admittance
    kbt = 0.0 if device.temperature is None else device.boltzmann * device.temperature
    y0 = system.y0
    bnorm = float(np.linalg.norm(system.B))
    btb = float(system.B @ system.B)
    m2hat = device.variant == "M2hat"
    if m2hat:  # the two candidate coefficients of b_d, the first one the reference
        quad, lin = (k * abs(y0) ** 3 * bnorm / (4.0 * device.supply_energy) for k in (km**2, km))
    plan = {
        "b_d_norm": (2, quad) if m2hat else (1, km * abs(y0) * bnorm),
        "trace_p": (1, 2.0 * km * kbt * btb),
        "delta_y_sq": (1, 2.0 * km * kbt * btb**2),
        "m_star": (-1, 2.0 * kbt / km),
    }
    tms = np.array([r.t_m for r in rows])
    out = []
    for column, (exponent, reference) in plan.items():
        vals = np.array([getattr(r, column) for r in rows])
        if np.all(vals == 0.0):
            out.append(
                ColumnFit(device.variant, column, exponent, float("nan"), 0.0,
                          reference, float("nan"), note="identically zero")
            )
            continue
        slope = float(np.polyfit(np.log(tms), np.log(vals), 1)[0])
        coefficient = float(vals[0] / tms[0] ** exponent)
        ratio = coefficient / reference if reference > 0 else float("nan")
        note = ""
        if m2hat and column == "b_d_norm":
            closer = "k_m^2 y0^3/(4 E_m)" if abs(coefficient - quad) <= abs(coefficient - lin) else "k_m y0^3/(4 E_m)"
            note = f"coefficient follows {closer}"
        out.append(ColumnFit(device.variant, column, exponent, slope, coefficient, reference, ratio, note))
    return out
