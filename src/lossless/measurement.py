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
least squares on x0 with a diffuse prior.  `riccati_solve` exploits the
same collapse in continuous time; its minimum error variance agrees
with the matrix Riccati equation of the optimal filter, integrated here
in square-root information form so the diffuse start is exact rather
than a large-prior approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._util import as_float_array, frozen, positive, require_square, run_chunked
from .statespace import (
    SKEW_TOL,
    Trajectory,
    _lti_run,
    _skew_residual,
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


@dataclass(frozen=True)
class MeasuredSystem:
    """Conservative single-port system with a fixed, deterministic start.

    The port vector B is scalar-valued (one potential is measured); the
    capacitance-like scale C = 1/(B^T B) measures how much charge the
    port soaks up per unit potential, and y0 = B^T x0 is the initial
    potential the probes try to estimate.
    """

    J: np.ndarray
    B: np.ndarray
    x0: np.ndarray

    def __post_init__(self):
        j = as_float_array(self.J, "J", ndim=2)
        require_square(j, "J")
        if _skew_residual(j) > SKEW_TOL:
            raise ValueError("J must be antisymmetric")
        b = np.asarray(self.B, dtype=float).reshape(-1)
        x0 = as_float_array(self.x0, "x0", ndim=1)
        if b.shape[0] != j.shape[0] or x0.shape[0] != j.shape[0]:
            raise ValueError(
                f"dimension mismatch: J is {j.shape[0]}x{j.shape[0]}, "
                f"B has {b.shape[0]} entries, x0 has {x0.shape[0]}"
            )
        if not np.all(np.isfinite(b)) or b @ b <= 0.0:
            raise ValueError("B must be finite and nonzero")
        object.__setattr__(self, "J", frozen(j))
        object.__setattr__(self, "B", frozen(b))
        object.__setattr__(self, "x0", frozen(x0))

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
        return self.variant in ("M1hat", "M2hat")


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

    The ideal variants are deterministic, so a single closed-form run
    suffices regardless of `trials`.  The realized variants simulate
    `trials` independent thermal histories (Euler-Maruyama on the grid,
    measurement noise matched to the same step) and push each readout
    record through the optimal filter; chunked substreams make the
    result independent of `threads` bit for bit.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    steps = _step_count(t_m, dt)
    if device.is_noisy:
        return _noisy_outcome(system, device, t_m, dt, steps, trials, seed, threads)

    km = device.admittance
    j, b, x0 = system.J, system.B, system.x0
    x_nat = _natural_final(system, t_m)
    y_nat = float(b @ x_nat)
    # M2's active branch cancels the loading, so its port current stays zero
    loading = km * np.outer(b, b) if device.variant == "M1" else 0.0
    phi = matrix_exponential((j - loading) * dt)
    record, final = _lti_run(phi, x0, c=b, steps=steps)
    back = final - x_nat if device.variant == "M1" else np.zeros(system.n)
    y_hat = float(record[-1])
    residual = abs(y_nat - (y_hat - 0.0 - float(b @ back)))
    return MeasurementOutcome(
        variant=device.variant,
        t_m=float(t_m),
        trials=1,
        y_m=Trajectory(dt=dt, values=record),
        y_hat=y_hat,
        b_d=back,
        b_mean=back,
        P=np.zeros((system.n, system.n)),
        m_star=0.0,
        estimate_variance=0.0,
        mean_error=0.0,
        delta_y=0.0,
        delta_y_hat=0.0,
        product=0.0,
        max_correction_residual=residual,
    )


def _probe_trials(system, device, dt, steps, rng, count):
    """Euler-Maruyama histories of `count` thermal probe trials.

    The readout and the kick into the system ride on the same white
    noise.  Returns the readout records (steps + 1, count), the final
    states (count, n) and, for M2hat, each trial's supply offset (drawn
    first from `rng`); M1hat returns None for the offsets.  M1hat is
    linear, so a chunk is one lifted run; the M2hat supply state is not.
    """
    j, b, n = system.J, system.B, system.n
    km = device.admittance
    kbt = device.boltzmann * device.temperature
    kick = -math.sqrt(2.0 * km * kbt * dt)
    meas = math.sqrt(2.0 * kbt / (km * dt))
    if device.variant == "M1hat":
        eta = rng.standard_normal((steps + 1, count))
        a_d = np.eye(n) + dt * (j - km * np.outer(b, b))
        clean, states = _lti_run(a_d, system.x0, kick * b[:, None], eta[:-1, None], c=b)
        return clean + meas * eta, states.T, None
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


def _record_chain(a0, b, port, scale):
    """Rows b^T A^k and record-driven readouts of per-trial filter chains.

    Given its readout record, a trial's state obeys x[k+1] = A x[k] +
    port[k] B exactly, with A = a0 + scale B B^T and one scale per
    trial.  Writing x[k] = A^k x0 + f[k], the readout y_m[k] - B^T f[k]
    is b^T A^k x0 plus noise.  Returns the rows (count, steps + 1, n)
    and pushed[k] = B^T f[k], (steps + 1, count).  A differs per trial,
    so this is stepped; a chain with one A goes through `_lti_run`.
    """
    steps, count = port.shape
    n = b.shape[0]
    rows = np.empty((count, steps + 1, n))
    cur = np.repeat(b[:, None], count, axis=1)  # the current rows as columns
    forcing = np.zeros((n, count))  # one column per trial
    pushed = np.empty((steps + 1, count))
    for k in range(steps + 1):
        pushed[k] = b @ forcing
        rows[:, k, :] = cur.T
        if k == steps:
            break
        forcing = a0 @ forcing + b[:, None] * (scale * (b @ forcing) + port[k])
        cur = a0.T @ cur + b[:, None] * (scale * (b @ cur))
    return rows, pushed


def _m_star(system, device, t_m) -> float:
    """Riccati error floor at t_m (zero for a noiseless readout)."""
    if device.temperature == 0.0:
        return 0.0
    sol = riccati_solve(system, device.admittance, device.temperature, [t_m],
                        boltzmann=device.boltzmann)
    return float(sol.m_star[0])


def _noisy_outcome(system, device, t_m, dt, steps, trials, seed, threads):
    """Monte-Carlo trials of a realized probe, each record filtered optimally.

    Substituting the record into the state update gives the exact
    affine recursion  x[k+1] = A x[k] + dt B (w_d[k] - k_m y_m[k]),
    with A = I + dt J for M1hat and, for M2hat, the supply-corrected
    A = I + dt (J + k_m (1 + offset/sqrt(2 E_m)) B B^T) that treats the
    trial's supply offset as known to the observer.  The unknown is
    only x0, so the estimate is least squares over the record; the
    rows and their QR factors are shared across trials for M1hat and
    trial-specific (batched QR) for M2hat.  The final estimate is
    b^T A^steps x0_hat + B^T f[steps].
    """
    b, n = system.B, system.n
    km = device.admittance
    a0 = np.eye(n) + dt * system.J  # record-driven transition
    x_nat = _natural_final(system, t_m)
    y_nat = float(b @ x_nat)

    if device.variant == "M1hat":
        rows, _ = _lti_run(a0.T, b, steps=steps)  # b^T a0^k
        q_shared, r_shared = np.linalg.qr(rows)
        b_det = matrix_exponential((system.J - km * np.outer(b, b)) * t_m) @ system.x0 - x_nat
        push = 0.0
    else:
        root = math.sqrt(2.0 * device.supply_energy)
        aux_states, drift = _supply_aux_path(system, km, device.supply_energy, dt, steps)
        push = dt * drift[:-1, None]
        b_det = aux_states[-1] - x_nat

    def worker(rng, count):
        records, states, offsets = _probe_trials(system, device, dt, steps, rng, count)
        port = push - (km * dt) * records[:-1]
        if offsets is None:
            pushed, _ = _lti_run(a0, np.zeros(n), b[:, None], port[:, None], c=b)
            theta = scipy.linalg.solve_triangular(r_shared, q_shared.T @ (records - pushed))
            estimates = rows[-1] @ theta + pushed[-1]
        else:
            scale = dt * km * (1.0 + offsets / root)
            trial_rows, pushed = _record_chain(a0, b, port, scale)
            q, r = np.linalg.qr(trial_rows)
            rhs = np.einsum("tkn,kt->tn", q, records - pushed)
            theta = np.linalg.solve(r, rhs[:, :, None])[:, :, 0]
            estimates = np.einsum("tn,tn->t", trial_rows[:, -1], theta) + pushed[-1]
        truth = states @ b
        errors = estimates - truth
        back = states - x_nat
        residual = np.abs(y_nat - (estimates - errors - back @ b)).max()
        return (
            back.sum(axis=0),
            back.T @ back,
            errors.sum(),
            errors @ errors,
            residual,
            records[:, 0].copy(),
            float(estimates[0]),
        )

    parts = run_chunked(trials, worker, seed, threads=threads)
    total_b = sum(p[0] for p in parts)
    total_bb = sum(p[1] for p in parts)
    total_e = sum(p[2] for p in parts)
    total_e2 = sum(p[3] for p in parts)
    residual = max(p[4] for p in parts)
    b_mean = total_b / trials
    if trials > 1:
        cov = (total_bb - trials * np.outer(b_mean, b_mean)) / (trials - 1)
    else:
        cov = np.zeros((n, n))
    cov = 0.5 * (cov + cov.T)
    m_star = _m_star(system, device, t_m)
    delta_y = math.sqrt(max(float(b @ cov @ b), 0.0))
    delta_y_hat = math.sqrt(m_star)
    return MeasurementOutcome(
        variant=device.variant,
        t_m=float(t_m),
        trials=trials,
        y_m=Trajectory(dt=dt, values=parts[0][5]),
        y_hat=parts[0][6],
        b_d=b_det,
        b_mean=b_mean,
        P=cov,
        m_star=m_star,
        estimate_variance=total_e2 / trials,
        mean_error=total_e / trials,
        delta_y=delta_y,
        delta_y_hat=delta_y_hat,
        product=delta_y * delta_y_hat,
        max_correction_residual=float(residual),
    )


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
    positive grid, uniform or not.
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
    prev = 0.0
    for idx, t in enumerate(times):
        r_fac = _fold_gramian_rows(r_fac, j, b, c, prev, t, max_substep)
        diag = np.abs(np.diag(r_fac))
        if diag.min() <= 1e-14 * max(diag.max(), 1e-300):
            # one retry at twice the resolution, then report the defect
            r_retry = _fold_gramian_rows(
                np.zeros((n, n)), j, b, c, 0.0, t, max_substep / 2.0
            )
            diag = np.abs(np.diag(r_retry))
            if diag.min() <= 1e-14 * max(diag.max(), 1e-300):
                raise ArithmeticError(
                    f"information matrix is singular at t = {t:.6g}: "
                    "the port does not excite the full state, so the "
                    "diffuse start cannot be resolved"
                )
            r_fac = r_retry
        propagator = matrix_exponential(j * t)
        half = scipy.linalg.solve_triangular(r_fac, propagator.T, trans="T")
        cov = half.T @ half
        covs[idx] = 0.5 * (cov + cov.T)
        vec = scipy.linalg.solve_triangular(r_fac, propagator.T @ b, trans="T")
        mstars[idx] = vec @ vec
        prev = t
    return RiccatiSolution(times=times, state_covariance=covs, m_star=mstars)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(4)


def _fold_gramian_rows(r_fac, j, b, c, t_lo, t_hi, max_substep):
    """Fold Gauss-Legendre Gramian rows for [t_lo, t_hi] into the QR factor."""
    span = t_hi - t_lo
    nsub = max(2, int(math.ceil(span / max_substep)))
    h = span / nsub
    # rows B^T e^{Js} at the panel's nodes, read out of e^{J(t_lo + i h)}
    node_rows = np.stack(
        [b @ matrix_exponential(j * (0.5 * h * (xi + 1.0))) for xi in _GL_NODES]
    )
    node_rows *= np.sqrt(c * 0.5 * h * _GL_WEIGHTS)[:, None]
    rows, _ = _lti_run(matrix_exponential(j * h), matrix_exponential(j * t_lo),
                       c=node_rows, steps=nsub - 1)
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
    prior, grown one record sample at a time: each sample's weighted row
    is folded into the triangular square-root information factor R by
    one QR, and the estimate and the covariance (R^T R)^+ = R^+ R^+T are
    read from R.  The covariance is thus positive semidefinite by
    construction, so no re-symmetrization pass is ever triggered.
    """
    if not device.is_noisy:
        raise ValueError("the filter applies to the realized variants M1hat and M2hat")
    record = y_m.values
    if record.ndim != 1:
        raise ValueError("the readout record must be scalar-valued")
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
            Trajectory(dt=dt, values=record.copy()),
            Trajectory(dt=dt, values=np.zeros((steps + 1, n))),
        )

    scale, push = 0.0, np.zeros(steps + 1)
    if device.variant == "M2hat":
        scale = dt * km * (1.0 + float(state_offset) / math.sqrt(2.0 * device.supply_energy))
        if drift is None:
            _, push = _supply_aux_path(system, km, device.supply_energy, dt, steps)
        elif isinstance(drift, Trajectory):
            if drift.values.shape[0] != steps + 1 or not math.isclose(drift.dt, dt, rel_tol=1e-9):
                raise ValueError("drift record does not match the readout grid")
            push = drift.values
        else:
            push = np.array([float(drift(k * dt)) for k in range(steps + 1)])

    chain = np.eye(n) + dt * system.J + scale * np.outer(b, b)
    port = dt * push[:-1] - (km * dt) * record[:-1]
    props, _ = _lti_run(chain, np.eye(n), steps=steps)  # chain^k
    rows = b @ props  # b^T chain^k
    pushed, _ = _lti_run(chain, np.zeros(n), b[:, None], port[:, None], c=b)
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
    return Trajectory(dt=dt, values=estimates), Trajectory(dt=dt, values=gains)


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
        dt = t_m / 256.0
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
            run_seed = seed + 7919 * (d_idx * grid.shape[0] + t_idx)
            out = simulate_device(
                system, device, float(t_m), float(t_m) / 256.0, trials, run_seed, threads=threads
            )
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
    em = device.supply_energy
    plan = {
        "b_d_norm": (2 if device.variant == "M2hat" else 1,
                     km**2 * abs(y0) ** 3 * bnorm / (4.0 * em)
                     if device.variant == "M2hat"
                     else km * abs(y0) * bnorm),
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
        if device.variant == "M2hat" and column == "b_d_norm":
            quad = km**2 * abs(y0) ** 3 * bnorm / (4.0 * em)
            lin = km * abs(y0) ** 3 * bnorm / (4.0 * em)
            closer = "k_m^2 y0^3/(4 E_m)" if abs(coefficient - quad) <= abs(coefficient - lin) else "k_m y0^3/(4 E_m)"
            note = f"coefficient follows {closer}"
        out.append(ColumnFit(device.variant, column, exponent, slope, coefficient, reference, ratio, note))
    return out
