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
probe and filter, is linear in the noise, so a trial's final state and
estimate are Gaussian with a covariance built once per horizon, and a
Monte-Carlo chunk draws them directly.  The supply-backed probe is
bilinear, so a chunk steps its trials together, one column each; its
filter is still affine in the record, v(o)^T y_m + c(o), with weights
that depend only on the trial's supply offset o, and analytically.  So
the exact weights are computed at nested Chebyshev nodes spanning the
run's offsets, doubled until the interpolant meets the exact weights at
the next nodes, one in every gap, within the rounding those carry, and a
chunk's estimates are one product of the nodes' weights with its
records, combined by the barycentric formula.
`riccati_solve` exploits the same collapse in continuous time; its
minimum error variance agrees with the matrix Riccati equation of the
optimal filter, integrated here in square-root information form so the
diffuse start is exact rather than a large-prior approximation.  Both
square-root information folds, the filter's over record samples and the
floor's over grid intervals, run through `_prefix_factors` (Bierman's
square-root information filter, blocked): one batched QR per block of
rows gives the factor of every prefix in the block, the same factors as
one QR per sample up to rounding.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._util import as_float_array, expm, frozen, positive, run_chunked
from .statespace import (
    Trajectory,
    _lti_run,
    _port_samples,
    _require_finite,
    _rk4,
    _skew_generator,
    _state_vector,
    _step_count,
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
    realized variants also need `temperature`, the probe's thermal energy
    k_B T_m (natural units; a caller working in kelvin passes
    `BOLTZMANN_SI * T_m`); M2hat additionally needs `supply_energy` (E_m),
    the deterministic charge of its active element.  Supplying a parameter
    a variant does not use is rejected, since it would silently change
    nothing.
    """

    variant: str
    admittance: float
    temperature: float | None = None
    supply_energy: float | None = None

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
        object.__setattr__(self, "admittance", km)
        object.__setattr__(self, "temperature", t)
        object.__setattr__(self, "supply_energy", em)

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
    """Noise-free closed loop of the active probe: its final state and drift.

    Integrates the measured state together with the supply state x_r
    (charged exactly to sqrt(2 E_m)) and returns the final state and the
    drift w_d(t) = k_m (x_r/sqrt(2 E_m) - 1) y(t) that the supply's slow
    discharge injects at the port, (steps + 1,).  Both are read-only; the
    last path is remembered by the content of its inputs, so the filter
    of a record reuses the path its `simulate_device` call just built.
    """
    return _aux_path(system.J.tobytes(), system.B.tobytes(), system.x0.tobytes(),
                     float(km), float(supply_energy), float(dt), int(steps))


@functools.lru_cache(maxsize=1)
def _aux_path(j_bytes, b_bytes, x0_bytes, km, supply_energy, dt, steps):
    b, x0 = np.frombuffer(b_bytes), np.frombuffer(x0_bytes)
    n = b.shape[0]
    j = np.frombuffer(j_bytes).reshape(n, n)
    root = math.sqrt(2.0 * supply_energy)
    rate, stack = _supply_rates(j, b, km, root)
    path = _rk4(rate, np.concatenate([x0, [root]]), np.zeros(steps + 1), np.zeros(steps), dt,
                stack if n <= _SUPPLY_STACK_STATES else None)
    states, supply = path[:, :n], path[:, n]
    return frozen(states[-1]), frozen(km * (supply / root - 1.0) * (states @ b))


#: The largest state whose supply path runs stacked windows (timings in CHANGES.md).
_SUPPLY_STACK_STATES = 16


def _supply_rates(j, b, km: float, root: float):
    """The supply path's closed loop, autonomous (its input samples are
    placeholders): the rate of one state [x, x_r] and the same over a
    stack of rows, each row bit for bit the state alone.  So the stack
    takes one dot and one gemv per row, the calls of a single state (one
    stacked BLAS product may round a row otherwise), and squares by
    `np.float_power`, which calls C's pow as a numpy scalar's ** does
    (an array's ** 2 is y * y, which rounds otherwise in about 1 in 1250).
    `_aux_path` offers `_rk4` the stack up to `_SUPPLY_STACK_STATES` states
    only; above, a record runs one-row passes, as `integrate_ode` does."""
    n = b.shape[0]

    def rate(z, _):
        x2, xr = z[:n], z[n]
        y2 = b @ x2
        out = np.empty(n + 1)
        out[:n] = j @ x2 + km * (xr / root - 1.0) * y2 * b
        out[n] = (km / root) * y2**2
        return out

    def stack(z, _):
        x2, xr = z[:, :n], z[:, n]
        y2 = np.vecdot(b, x2)
        out = np.empty(z.shape)
        out[:, :n] = (j @ x2[:, :, None])[:, :, 0] + (km * (xr / root - 1.0) * y2)[:, None] * b
        out[:, n] = (km / root) * np.float_power(y2, 2)
        return out

    return rate, stack


def simulate_device(
    system: MeasuredSystem,
    device: Device,
    t_m: float,
    dt: float,
    trials: int,
    seed: int = 0,
) -> MeasurementOutcome:
    """Probe the system on [0, t_m] and collect back-action statistics.

    The ideal variants are deterministic: their closed-form run is one
    noiseless trial, regardless of `trials`, whose exact readout is its
    own estimate.  The realized variants simulate `trials` independent
    thermal histories (Euler-Maruyama on the grid, measurement noise
    matched to the same step) and filter each record optimally: the
    unknown is only x0, so the estimate is least squares over the rows
    of `_record_chain`.  M1hat is linear in its noise: a trial's final
    state and estimate are const + G eta (`_noise_map`, once per call),
    Gaussian with covariance G G^T.  A chunk's first trial draws its white
    noise eta, the others F xi with F F^T = G G^T (`_noise_factor`), so
    values differ from a per-trial run in sample, not in distribution;
    only chunk 0's first trial runs its record, for `y_m`.  An M2hat chunk
    steps only its probes: an estimate is v(o)^T y_m + c(o), the filter's
    exact weights (`_filter_weights`) interpolated in the trial's supply
    offset o through nested Chebyshev-Lobatto nodes that span the call's
    offsets, read before the chunks run from each chunk's first draw
    (`_offset_nodes`: the nodes double until the interpolant meets the
    exact weights at the new ones, one in every gap, within their
    rounding, eps (steps + kappa) times the check's Lebesgue factor), one
    product per chunk (`_read_out`); it meets a per-trial least-squares
    solve to that solve's own rounding.  Both reduce their chunk sums in
    `_outcome`.  Every chunk runs in the calling thread.  A
    thermal record needs n samples to determine x0; a diverging M2hat
    probe raises FloatingPointError at its first bad time.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    steps = _step_count(t_m, dt, "t_m")
    _require_x0_determined(system, device.variant, steps)
    b, km = system.B, device.admittance
    x_nat = _natural_final(system, t_m)
    y_nat = float(b @ x_nat)
    if not device.is_noisy:
        # M2's active branch cancels the loading, so its port current stays zero
        loading = km * np.outer(b, b) if device.variant == "M1" else 0.0
        increment = matrix_exponential((system.J - loading) * dt) - np.eye(system.n)
        record, final = _lti_run(increment, system.x0, c=b, steps=steps)
        b_d = final - x_nat if device.variant == "M1" else np.zeros(system.n)
        y_hat = record[-1:]
        sums = _chunk_sums(record[:, None], y_hat, y_hat, b_d[None], y_nat, b, b_d)
        return _outcome(system, device, t_m, dt, 1, b_d, [sums])

    if device.variant == "M1hat":
        loaded = matrix_exponential((system.J - km * np.outer(b, b)) * t_m)
        b_d = loaded @ system.x0 - x_nat
        const, gain = _noise_map(system, device, dt, steps)
        factor = _noise_factor(gain)

        def worker(rng, count):
            # trial 0 draws its white noise, kept in place of its record;
            # the others draw their image under the map, N(0, G G^T), as F xi
            eta = rng.standard_normal(steps + 1)
            xi = rng.standard_normal((system.n + 1, count - 1))
            final = np.column_stack([gain @ eta, factor @ xi]) + const[:, None]
            states = final[:-1].T  # rows :n of `final` the final states, row n the estimates
            return _chunk_sums(eta[:, None], final[-1], states @ b, states - x_nat, y_nat, b, b_d)

        parts = run_chunked(trials, worker, seed)
        record, _ = _m1hat_probe(system, device, dt, parts[0].record[:, None])
        parts[0] = parts[0]._replace(record=record[:, 0])
        return _outcome(system, device, t_m, dt, trials, b_d, parts)

    final, drift = _supply_aux_path(system, km, device.supply_energy, dt, steps)
    b_d = final - x_nat
    weights = functools.partial(_filter_weights, system, device, dt, steps, drift)
    # each chunk's first draw is its offsets: their range, before any chunk
    # runs; the nodes are built after the first probe, which raises first
    lows, highs = zip(*run_chunked(trials, lambda rng, count: np.sort(_supply_offsets(device, rng, count))[[0, -1]],
                                   seed))
    nodes = functools.cache(lambda: _offset_nodes(weights, min(lows), max(highs), steps, trials))

    def worker(rng, count):
        records, states, offsets = _probe_trials(system, device, dt, steps, rng, count)
        estimates = _read_out(nodes() or _exact_nodes(weights, offsets), offsets, records)
        return _chunk_sums(records, estimates, states @ b, states - x_nat, y_nat, b, b_d)

    parts = run_chunked(trials, worker, seed)
    return _outcome(system, device, t_m, dt, trials, b_d, parts)


class _ChunkSums(NamedTuple):
    """What one chunk of trials adds to its `MeasurementOutcome`."""

    back: np.ndarray  # sum of the back actions less b_d
    back_outer: np.ndarray  # sum of the outer products of those offsets
    error: float  # sum of the estimation errors
    error_sq: float  # sum of their squares
    residual: float  # largest correction residual
    record: np.ndarray  # readout record of the chunk's first trial (M1hat: its white noise)
    y_hat: float  # and its final estimate


def _chunk_sums(records, estimates, truth, back, y_nat, b, b_d) -> _ChunkSums:
    """Sums of one chunk: records (steps + 1, count), the final estimates
    and true potentials (count,) and the back actions (count, n), these
    summed as offsets from the deterministic back action b_d."""
    errors = estimates - truth
    residual = np.abs(y_nat - (estimates - errors - back @ b)).max()
    offsets = back - b_d
    return _ChunkSums(offsets.sum(axis=0), offsets.T @ offsets, errors.sum(), errors @ errors,
                      residual, records[:, 0].copy(), float(estimates[0]))


def _outcome(system, device, t_m, dt, trials, b_d, parts) -> MeasurementOutcome:
    """Reduce the chunk sums of `trials` trials, in chunk order.

    The back-action moments are sums of offsets from b_d, which is known
    before any chunk runs (the shifted-data form of Chan, Golub & LeVeque,
    Am. Stat. 37, 1983).  Raw moments would cancel |b_d|^2 against a
    spread of about 2 k_B T_m k_m t_m, which at laboratory k_B T_m is
    twenty orders smaller and would leave only rounding in P.
    """

    def total(name):
        return functools.reduce(operator.add, [getattr(p, name) for p in parts])

    shift = total("back") / trials
    b_mean = b_d + shift
    if trials > 1:
        cov = (total("back_outer") - trials * np.outer(shift, shift)) / (trials - 1)
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
    km, kbt = device.admittance, device.temperature
    return -math.sqrt(2.0 * km * kbt * dt), math.sqrt(2.0 * kbt / (km * dt))


def _probe_trials(system, device, dt, steps, rng, count):
    """Euler-Maruyama histories of `count` thermal probe trials, readout and
    kick riding on the same white noise: records (steps + 1, count), final
    states (count, n) and the M2hat supply offsets (count,), drawn first
    (None for M1hat, which is linear, so a chunk is one lifted run).  M2hat
    steps all trials on (n, count) columns with each step's port term
    stacked under them, one product a step; the filter is not stepped, since
    `_read_out` takes each estimate from the record alone."""
    if device.variant == "M1hat":
        records, states = _m1hat_probe(system, device, dt, rng.standard_normal((steps + 1, count)))
        return records, states, None
    b, n = system.B, system.n
    kick, meas = _noise_scales(device, dt)
    rate = dt * device.admittance / math.sqrt(2.0 * device.supply_energy)
    offsets = _supply_offsets(device, rng, count)
    eta = rng.standard_normal((steps + 1, count))
    records, kicks = meas * eta, np.multiply(kick, eta, out=eta)  # eta is spent
    charge = offsets.copy()  # the supply state less sqrt(2 E_m)
    forward = np.column_stack([np.eye(n) + dt * system.J, b])
    # rows :n hold the states x[k] as columns, row n their port terms:
    # x[k+1] = (I + dt J) x[k] + g[k] B
    cur = np.empty((n + 1, count))
    cur[:n] = system.x0[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            y = b @ cur[:n]
            records[k] += y
            cur[n] = rate * charge * y + kicks[k]  # the load k_m dt (x_r/sqrt(2 E_m) - 1) y, the kick
            cur[:n] = forward @ cur
            charge += rate * y * y
        records[steps] += b @ cur[:n]
    _require_finite(records, dt)  # a non-finite state reaches y = b^T x
    return records, cur[:n].T, offsets


def _supply_offsets(device, rng, count):
    """The M2hat trials' supply offsets x_r(0) - sqrt(2 E_m), N(0, k_B T_m):
    the first draw of each chunk."""
    return math.sqrt(device.temperature) * rng.standard_normal(count)


#: Intervals between the Chebyshev-Lobatto nodes of the first M2hat read-out
#: interpolant checked by `_offset_nodes`, which doubles them.
_FIRST_INTERVALS = 2


def _offset_nodes(weights, lo, hi, steps, trials):
    """Nodes in the supply offset for the M2hat read-out on [lo, hi].

    An M2hat estimate is v(o)^T y_m + c(o) (`_filter_weights`, here
    `weights(o)`), and (v, c) is analytic in the offset o, a rational
    function of the chain's scale.  So it is interpolated in o through the
    Chebyshev-Lobatto points lo + (hi - lo)(1 + cos(pi j / m))/2,
    j = 0..m, in barycentric form (Berrut & Trefethen, SIAM Review 46,
    2004).  These points nest: doubling m keeps every node and adds one
    inside each gap.  m starts at `_FIRST_INTERVALS`; each doubling checks
    the m-interval interpolant at the new nodes, one in every gap between
    its own, against the exact weights there.  Each side of the check
    carries rounding of eps (steps + kappa) of ||(v, c)||_1, from the
    weights' (steps + 1)-term sums and from the nodes' triangular factors,
    kappa the largest condition number of those with unit columns
    (Householder QR is columnwise backward stable, so the scaling of the
    rows' columns does not enter); the interpolant amplifies its nodes' by
    at most its Lebesgue constant, under 1 + (2/pi) ln(m + 1) for these
    points.  So the check's tolerance is eps (steps + kappa) times
    2 + (2/pi) ln(m + 1).  Once it holds, the table keeps all 2m + 1 nodes,
    whose interpolant differs from the checked one by at most its own
    Lebesgue constant times that tolerance.  Returns
    (nodes, barycentric weights, V (K, steps + 1), c (K,)): one node where
    lo == hi, and None when the next doubling would take at least `trials`
    nodes.  Then the nodes are each chunk's distinct offsets
    (`_exact_nodes`), so the weights are evaluated fewer than 2 `trials`
    times in all, each one QR and two runs of `steps` steps."""
    if lo == hi:
        v, c, _ = weights(lo)
        return np.array([lo]), np.ones(1), v[None], np.array([c])
    if 2 * _FIRST_INTERVALS + 1 >= trials:
        return None

    def at(angles):
        nodes = lo + 0.5 * (hi - lo) * (1.0 + np.cos(angles))
        v, c, factors = zip(*map(weights, nodes))
        kappa = max(np.linalg.cond(r / np.linalg.norm(r, axis=0)) for r in factors)
        return nodes, np.column_stack([np.array(v), c]), kappa

    count = _FIRST_INTERVALS
    nodes, table, kappa = at(math.pi * np.arange(count + 1) / count)
    while 2 * count + 1 < trials:
        new, exact, new_kappa = at(math.pi * (2 * np.arange(count) + 1) / (2 * count))
        kappa = max(kappa, new_kappa)
        tol = np.finfo(float).eps * (steps + kappa) * (2.0 + (2.0 / math.pi) * math.log(count + 1))
        fit = _barycentric(nodes, _lobatto_weights(count), new).T @ table
        gaps = np.arange(1, count + 1)  # new[i] lies between nodes i and i + 1
        nodes, table = np.insert(nodes, gaps, new), np.insert(table, gaps, exact, axis=0)
        count *= 2
        if np.all(np.abs(fit - exact).sum(axis=1) <= tol * np.abs(exact).sum(axis=1)):
            return nodes, _lobatto_weights(count), table[:, :-1], table[:, -1]
    return None


def _lobatto_weights(count):
    """Barycentric weights of the count + 1 Chebyshev-Lobatto points:
    (-1)^j, halved at both ends."""
    beta = np.where(np.arange(count + 1) % 2, -1.0, 1.0)
    beta[[0, -1]] *= 0.5
    return beta


def _exact_nodes(weights, offsets):
    """The read-out table whose nodes are the chunk's distinct offsets."""
    nodes = np.unique(offsets)
    v, c, _ = zip(*map(weights, nodes))
    return nodes, np.ones(nodes.shape[0]), np.array(v), np.array(c)


def _barycentric(nodes, beta, x):
    """Lagrange basis (K, m) of the barycentric interpolant through `nodes`
    with weights `beta`, at the points x (m,): beta_j / (x - nodes_j)
    normalized to sum 1, and a unit column where x is a node."""
    diff = x - nodes[:, None]
    hit = diff == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        basis = beta[:, None] / diff
        basis /= basis.sum(axis=0)
    return np.where(hit.any(axis=0), hit, basis)


def _read_out(table, offsets, records):
    """M2hat estimates (count,) of the records (steps + 1, count) whose
    supply offsets are `offsets`: sum_j l_j(o) (v_j^T y_m + c_j) over the
    table's nodes, one (K, steps + 1) (steps + 1, count) product."""
    nodes, beta, v, c = table
    basis = _barycentric(nodes, beta, offsets)
    return np.einsum("kc,kc->c", basis, v @ records + c[:, None])


def _m1hat_probe(system, device, dt, eta):
    """Readout records (steps + 1, count) and final states (count, n) of the
    M1hat trials whose white noise is eta (steps + 1, count)."""
    b = system.B
    kick, meas = _noise_scales(device, dt)
    readouts, states = _lti_run(_loaded_increment(system, device, dt), system.x0, kick * b[:, None],
                                eta[:-1, None], c=b)
    return readouts + meas * eta, states.T


def _loaded_increment(system, device, dt) -> np.ndarray:
    """The increment dt (J - k_m B B^T) of the M1hat probe's Euler step."""
    b = system.B
    return dt * (system.J - device.admittance * np.outer(b, b))


def _noise_map(system, device, dt, steps):
    """(const, G): an M1hat trial's final state and batch estimate as const
    + G eta, affine in its white noise eta (steps + 1,); G is (n + 1, steps + 1).

    With A_d = I + a_d the loaded step (`_loaded_increment` gives a_d),
    the record is y_m = clean + meas eta + kick M eta, clean[k] =
    b^T A_d^k x0 and M[k, j] = b^T A_d^{k-1-j} b for j < k, and the final
    state is A_d^steps x0 + kick sum_j A_d^{steps-1-j} b eta[j].  The batch
    filter is v^T y_m (`_filter_weights`), and both transposed products are
    one reverse run each, so G takes O(steps n) memory.
    """
    b, n = system.B, system.n
    kick, meas = _noise_scales(device, dt)
    a_d = _loaded_increment(system, device, dt)
    v, _, _ = _filter_weights(system, device, dt, steps)
    powers, _ = _lti_run(a_d, b, steps=steps - 1)  # A_d^i b, i < steps
    gain = np.zeros((n + 1, steps + 1))
    gain[:n, :-1] = kick * powers[::-1].T
    gain[n] = meas * v + kick * _adjoint_run(a_d, b, v)
    clean, final = _lti_run(a_d, system.x0, c=b, steps=steps)
    return np.append(final, v @ clean), gain


def _filter_weights(system, device, dt, steps, drift=None, offset=None):
    """(v, c, R): the batch filter's estimate at t_m as v^T y_m + c, affine
    in the record y_m (steps + 1,), and the triangular factor R of its rows.

    The filter (`_record_chain`'s rows, least squares, then the push) is
    linear in y_m up to the drift: pushed = P y_m + pi, P[k, j] = -k_m dt
    b^T A^{k-1-j} b for the chain's step A, and pi[k] = dt sum_{j < k} b^T
    A^{k-1-j} b w_d[j] the push of the drift alone.  With w = Q R^-T
    rows[steps] from the QR of the rows, the estimate w^T (y_m - pushed) +
    pushed[steps] is v^T y_m + c: one reverse run gives a = P^T (w -
    e_steps) / (-k_m dt), so v = w + k_m dt a and c = -(w - e_steps)^T pi =
    -dt w_d^T a.  Rows that are exactly dependent raise
    LinAlgError("Singular matrix").
    """
    chain, rows = _filter_chain(system, device, dt, steps, offset)
    q, r = np.linalg.qr(rows)
    w = q @ np.linalg.solve(r.T, rows[-1])
    resid = w.copy()
    resid[-1] -= 1.0
    adjoint = _adjoint_run(chain, system.B, resid)
    c = 0.0 if drift is None else -dt * (drift @ adjoint)
    return w + (device.admittance * dt) * adjoint, c, r


def _noise_factor(gain) -> np.ndarray:
    """F (n + 1, n + 1) with F F^T = G G^T: R^T from one QR of G^T, with a
    zero last column when the record has only n samples."""
    r = np.linalg.qr(gain.T, mode="r")
    return np.pad(r.T, ((0, 0), (0, gain.shape[0] - r.shape[0])))


def _adjoint_run(e, b, weights) -> np.ndarray:
    """sum_{k > j} weights[k] b^T (I + e)^{k-1-j} b for j = 0..steps, one
    reverse run of the step I + e^T driven by weights[steps], ..., weights[1]."""
    out, _ = _lti_run(e.T, np.zeros(b.shape[0]), b[:, None], weights[:0:-1, None], c=b)
    return out[::-1]


def _record_chain(system, device, dt, records, drift=None, offset=None):
    """The thermal probes' filter model, driven by the readout record y_m.

    Given y_m, a trial's state obeys x[k+1] = A x[k] + port[k] B exactly,
    with A = I + dt J + scale B B^T, port[k] = dt w_d[k] - k_m dt y_m[k],
    and, for M2hat, scale = dt k_m (1 + offset/sqrt(2 E_m)) and the
    supply's noise-free drift w_d (M1hat: scale 0, no drift).  Writing
    x[k] = A^k x0 + f[k], y_m[k] - B^T f[k] is b^T A^k x0 plus noise.
    Returns the increment A - I = dt J + scale B B^T, the rows b^T A^k and
    pushed[k] = B^T f[k] (shaped like `records`) through `_lti_run`.
    """
    b, km = system.B, device.admittance
    port = (0.0 if drift is None else dt * drift[:-1]) - (km * dt) * records[:-1]
    chain, rows = _filter_chain(system, device, dt, port.shape[0], offset)
    pushed, _ = _lti_run(chain, np.zeros(system.n), b[:, None], port[:, None], c=b)
    return chain, rows, pushed


def _filter_chain(system, device, dt, steps, offset=None):
    """`_record_chain`'s increment A - I and its rows b^T A^k, k = 0..steps."""
    b, km = system.B, device.admittance
    scale = 0.0 if offset is None else dt * km * (1.0 + offset / math.sqrt(2.0 * device.supply_energy))
    chain = dt * system.J + scale * np.outer(b, b)
    rows, _ = _lti_run(chain.T, b, steps=steps)
    return chain, rows


def _m_star(system, device, t_m) -> float:
    """Riccati error floor at t_m (zero for a noiseless readout: an ideal
    probe, whose temperature is None, or a realized one at zero)."""
    if not device.temperature:
        return 0.0
    sol = riccati_solve(system, device.admittance, device.temperature, [t_m])
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
) -> RiccatiSolution:
    """Integrate the optimal filter's error covariance on a time grid.

    `temperature` is the probe's thermal energy k_B T_m.  Because process
    and readout noise share one source, the filter Riccati equation
    collapses to Xdot = JX + XJ^T - c X B B^T X with c = k_m/(2 k_B T_m),
    whose solution through a diffuse start is X(t) = e^{Jt} I(t)^{-1}
    e^{J^T t} with the information Gramian
    I(t) = c int_0^t e^{J^T s} B B^T e^{Js} ds.  The Gramian is
    accumulated as a QR factorization of Gauss-Legendre quadrature
    rows (4 nodes per panel, exact for the polynomial moments that
    dominate small horizons), so the hugely ill-conditioned small-time
    regime (eigenvalues spread like t, t^3, t^5, ...) is handled at
    the square root of its condition number.  Works on any increasing
    positive grid, uniform or not.  Each grid interval contributes one
    n x n block, the factor of its span's Gramian times e^{J t_lo};
    `_span_factor` builds each distinct span's factor once, one batched
    `expm` gives e^{J t} at every grid point, `_prefix_factors` folds the
    blocks into each point's factor, and one batched `np.linalg.solve`
    does all triangular solves.  If a factor's smallest diagonal is 1e-14
    of its largest, ArithmeticError names the first such grid time: no
    finer quadrature restores what rounding lost.
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

    c = km / (2.0 * t_dev)
    j, b = system.J, system.B
    props = expm(j * times[:, None, None])  # e^{J t}
    starts = np.concatenate([np.eye(n)[None], props[:-1]])  # e^{J t_lo} per interval
    spans, which = np.unique(np.diff(times, prepend=0.0), return_inverse=True)
    factors = np.stack([_span_factor(j, b, c, span) for span in spans])
    facs = _prefix_factors(factors[which] @ starts, n)
    diag = np.abs(np.diagonal(facs, axis1=1, axis2=2))
    singular = diag.min(axis=1) <= 1e-14 * np.maximum(diag.max(axis=1), 1e-300)
    if singular.any():
        raise ArithmeticError(
            f"information matrix is singular at t = {times[singular.argmax()]:.6g}: "
            "the port does not excite the full state, so the "
            "diffuse start cannot be resolved"
        )
    # columns :n give R^-T e^{J^T t}, column n gives R^-T e^{J^T t} B
    tops = props.transpose(0, 2, 1)
    rhs = np.concatenate([tops, tops @ b[:, None]], axis=2)
    solved = np.linalg.solve(facs.transpose(0, 2, 1), rhs)
    half, vec = solved[:, :, :n], solved[:, :, n]
    covs = half.transpose(0, 2, 1) @ half
    covs = 0.5 * (covs + covs.transpose(0, 2, 1))
    return RiccatiSolution(times=times, state_covariance=covs, m_star=np.einsum("ki,ki->k", vec, vec))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(4)

#: Widest Gauss-Legendre panel of the Riccati floor's Gramian rows.
_PANEL_WIDTH = 5e-3


def _span_factor(j, b, c, span):
    """Upper-triangular n x n factor R (zero-padded below) of the weighted Gauss-Legendre rows
    of c int_0^span e^{J^T s} B B^T e^{Js} ds, 4 nodes on each of 2^L panels (the least L >= 1
    with width h <= `_PANEL_WIDTH`).  Level i stacks the first 2^i panels' factor over itself
    times e^{J 2^i h} and re-factors, so rounding compounds over L levels, not 2^L panels."""
    levels, n = max(1, (math.ceil(span / _PANEL_WIDTH) - 1).bit_length()), b.shape[0]
    h = span / 2**levels
    offsets = np.concatenate([0.5 * h * (_GL_NODES + 1.0), h * 2.0 ** np.arange(levels)])
    maps = expm(j * offsets[:, None, None])
    r = b @ maps[:4] * np.sqrt(c * 0.5 * h * _GL_WEIGHTS)[:, None]
    for shift in maps[4:]:
        r = np.linalg.qr(np.vstack([r, r @ shift]), mode="r")
    return np.pad(r, ((0, n - r.shape[0]), (0, 0)))


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
    default it takes the noise-free drift of `_supply_aux_path`, which
    is the path `simulate_device` built for the same system, probe and
    grid, bit for bit.  M1hat takes neither.  At T_m = 0 the readout is
    exact and the estimate is the record itself, gain zero.

    The filter is least squares on the initial state with a diffuse
    prior over the rows of `_record_chain`, the model `simulate_device`
    filters with.  Sample k's estimate uses the triangular square-root
    information factor R_k of the weighted rows of samples 0..k;
    `_prefix_factors` gives every R_k, a batched QR per `_FOLD_BLOCK`
    samples, and one batched `pinv` reads the estimates and the
    covariances (R_k^T R_k)^+ = R_k^+ R_k^+T off all of them.  The
    covariance is thus positive semidefinite by construction.  Until the
    record determines x0 (fewer than n samples, or a factor that `pinv`'s
    relative cutoff finds rank-deficient) an estimate is the minimum-norm
    least-squares one, and rounding can move it across the cutoff.
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
    km, kbt = device.admittance, device.temperature
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
    props, _ = _lti_run(chain, np.eye(n), steps=steps)  # (I + chain)^k, for the gains
    c = km / (2.0 * kbt)
    # weighted rows [w b^T (I + chain)^k, w (y_m[k] - B^T f[k])], so that R^T R
    # is the information matrix and the last column carries the record
    weighted = math.sqrt(c * dt) * np.column_stack([rows, record - pushed])
    facs = _prefix_factors(weighted[:, None], n + 1)
    r_pinv = np.linalg.pinv(facs[:, :n, :n])
    estimates = np.einsum("ki,kij,kj->k", rows, r_pinv, facs[:, :n, n]) + pushed
    info_rows = np.einsum("kij,klj,kl->ki", r_pinv, r_pinv, rows)  # (R^T R)^+ rows[k]
    gains = c * (np.einsum("kij,kj->ki", props, info_rows) - 2.0 * kbt * b)
    return Trajectory(dt=dt, values=estimates.reshape(y_m.values.shape)), Trajectory(dt=dt, values=gains)


#: Row blocks per batched QR of `_prefix_factors` (chosen by timing the
#: 2049-sample filter record and the 1000-point Riccati grid).
_FOLD_BLOCK = 16


def _prefix_factors(blocks, m):
    """Square-root information factors of every prefix of a row-block stack.

    `blocks` is (K, r, m); factor k (of the (K, m, m) result) is upper
    triangular with R_k^T R_k = sum_{i <= k} blocks[i]^T blocks[i].  The
    blocks are folded `_FOLD_BLOCK` at a time: matrix i of a fold stacks
    the carried factor over the fold's rows with the rows after its block
    i zeroed, and one batched QR gives all of them, since zero rows do
    not change R.
    """
    count, r = blocks.shape[:2]
    facs = np.empty((count, m, m))
    carried = np.zeros((m, m))
    keep = np.tril(np.ones((_FOLD_BLOCK, _FOLD_BLOCK), dtype=bool))[:, :, None, None]
    for start in range(0, count, _FOLD_BLOCK):
        fold = blocks[start:start + _FOLD_BLOCK]
        size = fold.shape[0]
        stack = np.zeros((size, m + size * r, m))
        stack[:, :m] = carried
        stack[:, m:] = np.where(keep[:size, :size], fold, 0.0).reshape(size, size * r, m)
        facs[start:start + size] = np.linalg.qr(stack, mode="r")
        carried = facs[start + size - 1]
    return facs


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
) -> TradeoffReport:
    """Measure |dy| |dyhat| against its floor 2 k_B T_m / C, from `trials`
    probe histories at dt = t_m / `_PROBE_STEPS` = t_m / 256."""
    t_m = positive(t_m, "t_m")
    if not device.is_noisy:
        raise ValueError("the trade-off is defined for the realized variants")
    outcome = simulate_device(system, device, t_m, t_m / _PROBE_STEPS, trials, seed)
    rhs = 2.0 * device.temperature / system.c_cap
    emp = math.sqrt(max(outcome.estimate_variance, 0.0))
    lhs = outcome.delta_y * outcome.delta_y_hat
    return TradeoffReport(
        t_m=t_m,
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
) -> BenchmarkReport:
    """Score `estimator(times, record) -> float` against the error floor.

    The estimator sees exactly what the optimal filter sees, one readout
    record at a time, and must return its estimate of the perturbed
    potential at t_m.  No estimator can beat `m_star` by more than
    Monte-Carlo fluctuation, however it is built.  Its trials are its own,
    each with its full record (`simulate_device` draws only the M1hat
    statistic).
    """
    if not device.is_noisy:
        raise ValueError("benchmarking needs a noisy readout")
    steps = _step_count(t_m, dt, "t_m")
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

    total = sum(run_chunked(trials, worker, seed))
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
                                  trials, run_seed)
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
    kbt = device.temperature or 0.0
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
