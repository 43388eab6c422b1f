"""Linear state-space models with energy accounting.

The central object is a lossless linear system

    dx/dt = J x + B u,      y = B^T x + D u,

with J and D skew-symmetric, so the stored energy E(x) = ||x||^2 / 2 obeys
dE/dt = y^T u exactly: every joule absorbed at the port is held in the state.
This module provides construction and validation of such systems, fixed-step
simulation, impulse responses, and the four structural checks (losslessness,
dissipativity, reciprocity, time reversibility) used throughout the package.

Conventions
-----------
* Fixed-step classic RK4 for simulation; the step is the input grid spacing.
* Every time-invariant linear recursion x[k+1] = Phi x[k] + Gamma u[k] in
  the package (impulse responses, the M1/M1hat/M2 probes and filter chains,
  Gramian rows, Euler-Maruyama Langevin paths) runs through `_lti_run` in
  lifted blocks.  Only RK4, the nonlinear M2hat probe and its per-trial
  filter chains are stepped one sample at a time.
* Sampled signals live in `Trajectory` (uniform grid, first axis is time).
* Work integrals use composite Simpson so the quadrature error tracks the
  O(dt^4) integrator error instead of hiding it.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.integrate import simpson

from ._util import (
    CHUNK_ELEMENTS,
    as_float_array,
    derive_rng,
    frozen,
    midpoint_samples,
    positive,
    require_square,
)

__all__ = [
    "SKEW_TOL",
    "PSD_TOL",
    "Trajectory",
    "LinearStateSpace",
    "LosslessLinear",
    "SignatureMatrix",
    "EnergyLedger",
    "LosslessVerdict",
    "DissipativeVerdict",
    "ReciprocityVerdict",
    "ReversibilityVerdict",
    "matrix_exponential",
    "integrate_ode",
    "simulate_linear",
    "impulse_response",
    "energy_ledger",
    "check_lossless",
    "check_dissipative",
    "check_reciprocal",
    "check_time_reversible",
    "lc_ladder",
]

#: Absolute tolerance on ||J + J^T||_1 (entrywise sum) for skew validation.
SKEW_TOL = 1e-10

#: Eigenvalue tolerance for positive-semidefiniteness verdicts.
PSD_TOL = 1e-8


def _is_sparse(m) -> bool:
    return scipy.sparse.issparse(m)


def _skew_residual(m) -> float:
    """Entrywise 1-norm of M + M^T (0 for exactly skew-symmetric M)."""
    if m.shape[0] == 0:
        return 0.0
    if _is_sparse(m):
        return float(abs(m + m.T).sum())
    return float(np.abs(m + m.T).sum())


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled signal: values[k] is the sample at t = k * dt.

    The first axis of `values` is time; trailing axes are free (vectors,
    matrices, batches).  Arrays are stored read-only so trajectories can be
    shared across threads.
    """

    dt: float
    values: np.ndarray

    def __post_init__(self):
        dt = positive(self.dt, "dt")
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim < 1 or vals.shape[0] < 1:
            raise ValueError("values must have at least one sample on axis 0")
        if not np.all(np.isfinite(vals)):
            raise ValueError("trajectory contains non-finite samples")
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "values", frozen(vals))

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def duration(self) -> float:
        return (self.n_samples - 1) * self.dt

    @functools.cached_property
    def times(self) -> np.ndarray:
        """Sample times k * dt, computed once and read-only."""
        t = np.arange(self.n_samples) * self.dt
        t.setflags(write=False)
        return t

    def __len__(self) -> int:
        return self.n_samples

    @classmethod
    def sample(cls, fn: Callable[[float], object], dt: float, n_samples: int) -> "Trajectory":
        """Sample fn(t) on the grid t = 0, dt, ..., (n_samples-1) dt."""
        rows = [np.asarray(fn(k * dt), dtype=float) for k in range(n_samples)]
        return cls(dt=dt, values=np.stack(rows, axis=0))


@dataclass(frozen=True)
class LinearStateSpace:
    """General LTI system dx/dt = A x + B u, y = C x + D u (square port)."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        A = self.A if _is_sparse(self.A) else as_float_array(self.A, "A", ndim=2)
        require_square(A, "A")
        B = as_float_array(self.B, "B", ndim=2)
        C = as_float_array(self.C, "C", ndim=2)
        D = as_float_array(self.D, "D", ndim=2)
        require_square(D, "D")
        n, p = B.shape
        if A.shape[0] != n:
            raise ValueError(f"A is {A.shape} but B has {n} rows")
        if C.shape != (p, n):
            raise ValueError(f"C must be {(p, n)} to pair the port, got {C.shape}")
        if D.shape != (p, p):
            raise ValueError(f"D must be {(p, p)}, got {D.shape}")
        object.__setattr__(self, "A", A if _is_sparse(A) else frozen(A))
        object.__setattr__(self, "B", frozen(B))
        object.__setattr__(self, "C", frozen(C))
        object.__setattr__(self, "D", frozen(D))

    @property
    def n(self) -> int:
        return self.B.shape[0]

    @property
    def p(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class LosslessLinear:
    """Lossless port realization (J skew, output B^T x + D u, D skew).

    `J` may be dense or scipy.sparse (large block-diagonal realizations);
    construction rejects matrices whose skew residual exceeds `SKEW_TOL`.
    """

    J: np.ndarray
    B: np.ndarray
    D: np.ndarray | None = None

    def __post_init__(self):
        J = self.J if _is_sparse(self.J) else as_float_array(self.J, "J", ndim=2)
        require_square(J, "J")
        B = as_float_array(self.B, "B", ndim=2)
        n, p = B.shape
        if J.shape[0] != n:
            raise ValueError(f"J is {J.shape} but B has {n} rows")
        D = np.zeros((p, p)) if self.D is None else as_float_array(self.D, "D", ndim=2)
        if D.shape != (p, p):
            raise ValueError(f"D must be {(p, p)}, got {D.shape}")
        rj = _skew_residual(J)
        if rj > SKEW_TOL:
            raise ValueError(f"J is not skew-symmetric: ||J + J^T||_1 = {rj:.3e}")
        rd = _skew_residual(D)
        if rd > SKEW_TOL:
            raise ValueError(f"D is not skew-symmetric: ||D + D^T||_1 = {rd:.3e}")
        object.__setattr__(self, "J", J if _is_sparse(J) else frozen(J))
        object.__setattr__(self, "B", frozen(B))
        object.__setattr__(self, "D", frozen(D))

    @property
    def n(self) -> int:
        return self.B.shape[0]

    @property
    def p(self) -> int:
        return self.B.shape[1]

    def as_statespace(self) -> LinearStateSpace:
        return LinearStateSpace(A=self.J, B=self.B, C=self.B.T, D=self.D)


@dataclass(frozen=True)
class SignatureMatrix:
    """Diagonal matrix of +/-1 marking through/across port variables."""

    signs: tuple[int, ...]

    def __post_init__(self):
        signs = tuple(int(s) for s in self.signs)
        if not signs or any(s not in (-1, 1) for s in signs):
            raise ValueError(f"signature entries must be +1 or -1, got {self.signs}")
        object.__setattr__(self, "signs", signs)

    @property
    def p(self) -> int:
        return len(self.signs)

    @property
    def matrix(self) -> np.ndarray:
        return np.diag(np.array(self.signs, dtype=float))

    @classmethod
    def identity(cls, p: int) -> "SignatureMatrix":
        return cls(signs=(1,) * p)


@dataclass(frozen=True)
class EnergyLedger:
    """Stored energy and port work rate along a simulated trajectory."""

    times: np.ndarray
    total_energy: np.ndarray
    work_rate: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", frozen(np.asarray(self.times, dtype=float)))
        object.__setattr__(self, "total_energy", frozen(np.asarray(self.total_energy, dtype=float)))
        object.__setattr__(self, "work_rate", frozen(np.asarray(self.work_rate, dtype=float)))

    def net_work(self) -> float:
        """Simpson integral of the work rate over the full record."""
        return float(simpson(self.work_rate, x=self.times))

    def balance_residual(self) -> float:
        """|Delta E - net work|, zero (to integrator order) for lossless systems."""
        return float(abs(self.total_energy[-1] - self.total_energy[0] - self.net_work()))


@dataclass(frozen=True)
class LosslessVerdict:
    skew_residual: float
    energy_residual: float
    trials: int
    passed: bool


@dataclass(frozen=True)
class DissipativeVerdict:
    """Outcome of the frequency-domain positive-realness scan."""

    min_eigenvalue: float
    frequencies: np.ndarray
    dissipative: bool
    tail_fraction: float
    warning: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "frequencies", frozen(np.asarray(self.frequencies, dtype=float)))


@dataclass(frozen=True)
class ReciprocityVerdict:
    max_residual: float
    reciprocal: bool


@dataclass(frozen=True)
class ReversibilityVerdict:
    max_deviation: float
    reversible: bool


def matrix_exponential(m: np.ndarray) -> np.ndarray:
    """exp(M) for a square matrix (scaling-and-squaring Pade, via scipy)."""
    a = as_float_array(m, "matrix", ndim=2)
    require_square(a, "matrix")
    return scipy.linalg.expm(a)


def integrate_ode(
    f: Callable[[float, np.ndarray], np.ndarray],
    x0: np.ndarray,
    dt: float,
    horizon: float,
) -> Trajectory:
    """Classic fixed-step RK4 for dx/dt = f(t, x).

    The state may have any array shape (batched integration works).  Raises
    FloatingPointError with the blow-up time if the state leaves float range.
    """
    positive(dt, "dt")
    times = np.arange(_step_count(horizon, dt) + 1) * dt
    out = _rk4(lambda x, t: f(t, x), x0, times, times[:-1] + 0.5 * dt, dt)
    return Trajectory(dt=dt, values=out)


def _rk4(rate, x0, u_vals, u_mids, h: float) -> np.ndarray:
    """Classic fixed-step RK4 for dx/dt = rate(x, u) on a sampled input.

    `u_vals` holds the input at the steps, `u_mids` at the half-steps.
    Returns the states at the steps; raises FloatingPointError with the
    blow-up time if the state leaves float range.
    """
    x = np.array(x0, dtype=float)
    out = np.empty((len(u_vals),) + x.shape)
    out[0] = x
    for k in range(len(u_vals) - 1):
        um = u_mids[k]
        k1 = rate(x, u_vals[k])
        k2 = rate(x + 0.5 * h * k1, um)
        k3 = rate(x + 0.5 * h * k2, um)
        k4 = rate(x + h * k3, u_vals[k + 1])
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(x).all():
            raise FloatingPointError(f"state diverged at t = {(k + 1) * h:.6g}")
        out[k + 1] = x
    return out


def _lti_run(phi, x0, gamma=None, u=None, c=None, steps=None):
    """Readouts c x[k], k = 0..steps, of x[k+1] = phi x[k] + gamma u[k].

    `x0` is (n,) or (n, batch); `gamma` (n, m) and `u` (steps, m) or
    (steps, m, batch) are None for a free response.  `c` is (p, n), (n,)
    or None for the states.  Returns the readouts, shaped (steps + 1,) +
    c's leading shape + the batch shape, and the final state x[steps].

    Lifted blocks of L = 2^j steps: from x[k], a block's readouts are
    F x[k] + T u[k..], with F = [c; c phi; ...; c phi^{L-1}] and T the
    block-Toeplitz matrix of the Markov parameters c phi^i gamma, and
    phi^L and [phi^{L-1} gamma, ..., gamma] advance the state to x[k+L].
    j doublings build them all.  L ~ sqrt(steps) balances the squarings
    against the block count; it shrinks until these operators and one
    block of readouts hold at most `CHUNK_ELEMENTS` entries.
    """
    n, m = phi.shape[0], 0 if u is None else gamma.shape[1]
    steps = steps if u is None else len(u)
    batch = np.shape(x0)[1:] or np.shape(u)[2:]
    x = np.reshape(x0, (n, -1))
    cc = np.eye(n) if c is None else np.reshape(c, (-1, n))
    p, width = cc.shape[0], math.prod(batch)
    levels = int(math.log2(max(steps, 1)) / 2 + 0.5)
    while levels and (1 << levels) * (p * (n + (m << levels) + width) + n * m) > CHUNK_ELEMENTS:
        levels -= 1
    span = 1 << levels
    free, drive, power, powers = cc, gamma, phi, []
    for _ in range(levels):
        free = np.vstack([free, free @ power])
        if m:
            drive = np.hstack([power @ drive, drive])
        powers.append(power)
        power = power @ power
    if m:
        u = np.reshape(u, (steps * m, math.prod(np.shape(u)[2:])))  # row k m + i: u[k][i]
        markov = np.concatenate([(free @ gamma).reshape(span, p, m), np.zeros((1, p, m))])
        lag = np.arange(span)[:, None] - np.arange(span) - 1
        toeplitz = markov[np.where(lag < 0, span, lag)].swapaxes(1, 2).reshape(span * p, -1)
    out = np.empty((steps + 1, p, width))
    k = 0
    while True:
        count = min(span, steps + 1 - k)  # readouts k .. k + count - 1
        block = free[: count * p] @ x
        if m and count > 1:
            block = block + toeplitz[: count * p, : (count - 1) * m] @ u[k * m : (k + count - 1) * m]
        out[k : k + count] = block.reshape(count, p, -1)
        if k + count > steps:
            break
        x = power @ x + (drive @ u[k * m : (k + span) * m] if m else 0.0)
        k += span
    rest = steps - k  # x[steps] from x[k]: phi^rest by the binary powers
    for level, factor in enumerate(powers):
        if rest >> level & 1:
            x = factor @ x
    if m and rest:
        x = x + drive[:, (span - rest) * m :] @ u[k * m :]
    lead = (n,) if c is None else np.shape(c)[:-1]
    final = np.broadcast_to(x, (n, width)).reshape((n,) + batch)
    return out.reshape((steps + 1,) + lead + batch), final


def _step_count(horizon: float, dt: float) -> int:
    steps = int(round(horizon / dt))
    if steps < 1 or abs(steps * dt - horizon) > 1e-9 * max(1.0, abs(horizon)):
        raise ValueError(f"horizon {horizon} is not a positive multiple of dt {dt}")
    return steps


def _port_matrices(sys) -> tuple:
    """(A, B, C, D) for either system flavour."""
    if isinstance(sys, LosslessLinear):
        return sys.J, sys.B, sys.B.T, sys.D
    if isinstance(sys, LinearStateSpace):
        return sys.A, sys.B, sys.C, sys.D
    raise TypeError(f"expected LinearStateSpace or LosslessLinear, got {type(sys).__name__}")


def _input_samples(u, p: int, dt: float | None, horizon: float | None):
    """Normalize any accepted input form to (values (m, p), mids (m-1, p), dt).

    A sampled input is cut to `horizon` when one is given; its half-step
    values are interpolated on the full record first.  A `dt` given with
    a sampled input must be the input's own step.
    """
    if isinstance(u, Trajectory):
        if dt is not None and not math.isclose(dt, u.dt, rel_tol=1e-9):
            raise ValueError(f"dt {dt} does not match the input's sample step {u.dt}")
        vals = u.values
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.shape[1] != p:
            raise ValueError(f"input has {vals.shape[1]} channels, system expects {p}")
        mids = midpoint_samples(vals)
        if horizon is not None:
            steps = _step_count(horizon, u.dt)
            if steps > vals.shape[0] - 1:
                raise ValueError(f"horizon {horizon} needs {steps + 1} samples, input has {vals.shape[0]}")
            vals, mids = vals[: steps + 1], mids[:steps]
        return vals, mids, u.dt
    if u is None or callable(u):
        if dt is None or horizon is None:
            raise ValueError("dt and horizon are required when u is a callable or None")
        steps = _step_count(horizon, dt)
        if u is None:
            vals = np.zeros((steps + 1, p))
            return vals, np.zeros((steps, p)), dt
        vals = np.stack(
            [np.broadcast_to(np.asarray(u(k * dt), dtype=float), (p,)) for k in range(steps + 1)]
        )
        mids = np.stack(
            [np.broadcast_to(np.asarray(u((k + 0.5) * dt), dtype=float), (p,)) for k in range(steps)]
        )
        return vals, mids, dt
    raise TypeError(f"unsupported input of type {type(u).__name__}")


def _rk4_states(A, B, u_vals: np.ndarray, u_mids: np.ndarray, dt: float, x0: np.ndarray) -> np.ndarray:
    """States of dx/dt = A x + B u on the sample grid (classic RK4)."""
    return _rk4(lambda x, u: A @ x + B @ u, x0, u_vals, u_mids, dt)


def simulate_linear(
    sys,
    u,
    x0=None,
    horizon: float | None = None,
    *,
    dt: float | None = None,
) -> tuple[Trajectory, Trajectory]:
    """Simulate an LTI system with fixed-step RK4 on the input grid.

    Parameters
    ----------
    sys : LinearStateSpace or LosslessLinear
    u : Trajectory, callable, or None
        Sampled input (the simulation grid is its grid), a function of time
        (requires `dt` and `horizon`), or None for zero input.
    x0 : array_like, optional
        Initial state, zeros by default.
    horizon : float, optional
        Simulation length; defaults to the full input record.  Must be a
        multiple of the grid step and not exceed the record.

    Returns
    -------
    (x, y) : pair of Trajectory
        States and outputs on the same grid.

    Notes
    -----
    Sampled inputs are interpolated at half-steps with a 4-point cubic so the
    integrator keeps its order on smooth signals; callables are evaluated at
    the true half-step times.
    """
    A, B, C, D = _port_matrices(sys)
    u_vals, u_mids, step = _input_samples(u, B.shape[1], dt, horizon)
    x_init = np.zeros(B.shape[0]) if x0 is None else as_float_array(x0, "x0", ndim=1)
    if x_init.shape[0] != B.shape[0]:
        raise ValueError(f"x0 has dimension {x_init.shape[0]}, state dimension is {B.shape[0]}")
    xs = _rk4_states(A, B, u_vals, u_mids, step, x_init)
    ys = xs @ C.T + u_vals @ D.T
    return Trajectory(dt=step, values=xs), Trajectory(dt=step, values=ys)


def impulse_response(sys, dt: float, n_samples: int) -> Trajectory:
    """Impulse-response kernel g(t_k) = C exp(A t_k) B on a uniform grid.

    The direct term D is *not* folded into the samples; it stays a separate
    algebraic channel on the system object.  Requires a dense A.

    The samples are the readouts of x[k+1] = Phi x[k] from x[0] = B
    (Phi = exp(A dt)), run in lifted blocks by `_lti_run`.
    """
    A, B, C, _ = _port_matrices(sys)
    if _is_sparse(A):
        raise TypeError("impulse_response needs a dense state matrix")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    out, _ = _lti_run(matrix_exponential(A * dt), B, c=C, steps=n_samples - 1)
    return Trajectory(dt=dt, values=out)


def energy_ledger(x: Trajectory, u: Trajectory, y: Trajectory) -> EnergyLedger:
    """Stored energy ||x||^2/2 and work rate y . u along matched records."""
    if not (x.n_samples == u.n_samples == y.n_samples):
        raise ValueError("state, input, and output records must share the grid")
    if not (abs(x.dt - u.dt) < 1e-15 and abs(x.dt - y.dt) < 1e-15):
        raise ValueError("state, input, and output records must share dt")
    energy = 0.5 * np.sum(x.values**2, axis=-1)
    u2 = u.values if u.values.ndim > 1 else u.values[:, None]
    y2 = y.values if y.values.ndim > 1 else y.values[:, None]
    rate = np.sum(u2 * y2, axis=-1)
    return EnergyLedger(times=x.times, total_energy=energy, work_rate=rate)


def _smooth_test_input(rng: np.random.Generator, p: int, horizon: float, n_modes: int = 5):
    """Random band-limited input, zero at t = 0, as a callable."""
    amps = rng.standard_normal((n_modes, p))

    def u(t):
        phases = np.sin(np.arange(1, n_modes + 1) * np.pi * t / horizon)
        return phases @ (amps / np.arange(1, n_modes + 1)[:, None])

    return u


def check_lossless(
    sys,
    trials: int = 8,
    seed: int = 0,
    *,
    horizon: float = 2.0,
    dt: float = 1e-3,
    energy_tol: float = 1e-8,
) -> LosslessVerdict:
    """Structural and behavioural losslessness check.

    Structure: entrywise 1-norm of J + J^T and D + D^T (and ||C - B^T|| for a
    general state space) must vanish within `SKEW_TOL`.  Behaviour: for
    `trials` random band-limited inputs from rest, the energy balance
    |E(T) - E(0) - int y.u dt| must vanish relative to the input work within
    `energy_tol`.  Pass trials=0 to run the structural check alone (useful
    when the state dimension makes RK4 over all harmonics impractical).
    """
    A, B, C, D = _port_matrices(sys)
    residual = max(_skew_residual(A), _skew_residual(D))
    if not isinstance(sys, LosslessLinear):
        residual = max(residual, float(np.abs(C - B.T).sum()))
    worst = float("nan")
    if trials > 0:
        worst = 0.0
        for trial in range(trials):
            rng = derive_rng(seed, trial)
            u = _smooth_test_input(rng, B.shape[1], horizon)
            x, y = simulate_linear(sys, u, dt=dt, horizon=horizon)
            u_traj = Trajectory.sample(u, dt, x.n_samples)
            ledger = energy_ledger(x, u_traj, y)
            scale = max(float(simpson(np.abs(ledger.work_rate), x=ledger.times)), 1e-300)
            worst = max(worst, ledger.balance_residual() / scale)
    passed = residual <= SKEW_TOL and (trials == 0 or worst <= energy_tol)
    return LosslessVerdict(
        skew_residual=residual, energy_residual=worst, trials=trials, passed=passed
    )


def _default_frequencies(omega_scale: float, count: int = 200) -> np.ndarray:
    scale = max(omega_scale, 1e-12)
    grid = scale * np.logspace(-3.0, 3.0, count)
    return np.concatenate(([0.0], grid))


def _as_kernel_samples(vals: np.ndarray) -> np.ndarray:
    """Kernel samples as an (m, p, p) stack; scalar samples become 1 x 1."""
    if vals.ndim == 1:
        return vals[:, None, None]
    if vals.ndim == 2 and vals.shape[1] == 1:
        return vals[:, :, None]
    if vals.ndim == 3 and vals.shape[1] == vals.shape[2]:
        return vals
    raise ValueError(f"kernel samples must be square matrices, got shape {vals.shape}")


def _exponential_tail(norms: np.ndarray, times: np.ndarray) -> float | None:
    """Fitted decay rate of ||g|| over the second half of the window."""
    half = norms[len(norms) // 2 :]
    if norms.max(initial=0.0) <= 0 or np.any(half <= 0):
        return None
    rate = -np.polyfit(times[len(norms) // 2 :], np.log(half), 1)[0]
    return rate if rate > 0 else None


def _kernel_transform(g: Trajectory, omegas: np.ndarray) -> tuple[np.ndarray, float, str | None]:
    """Windowed transfer function of a sampled kernel, with decay-tail closure.

    Returns (ghat (n_freq, p, p) complex, tail_fraction, warning).  The tail
    beyond the window is closed with an exponential fit to ||g||_F; kernels
    that do not decay over the window are flagged instead of trusted.
    """
    vals = _as_kernel_samples(g.values)
    m = vals.shape[0]
    # keep the transform cost bounded; psd_tol-grade accuracy survives decimation
    stride = max(1, (m - 1) // 32768)
    vals_d = vals[::stride]
    t = g.times[::stride]
    if t[-1] != g.times[-1]:
        vals_d = np.concatenate([vals_d, vals[-1:]], axis=0)
        t = np.concatenate([t, g.times[-1:]])
    norms = np.linalg.norm(vals, axis=(1, 2))
    peak = float(norms.max())
    tail_fraction = float(norms[-1] / peak) if peak > 0 else 0.0
    warning = None
    decay_rate = _exponential_tail(norms, g.times) if tail_fraction < 0.05 else None
    if tail_fraction > 1e-6 and decay_rate is None:
        warning = (
            "kernel does not decay over the window; transform is truncated and "
            f"the verdict carries O({tail_fraction:.2e}) windowing error"
        )
    weights = np.empty(t.shape)
    weights[1:-1] = 0.5 * (t[2:] - t[:-2])
    weights[0] = 0.5 * (t[1] - t[0]) if len(t) > 1 else g.dt
    weights[-1] = 0.5 * (t[-1] - t[-2]) if len(t) > 1 else 0.0
    ghat = np.empty((len(omegas),) + vals_d.shape[1:], dtype=complex)
    step = max(1, CHUNK_ELEMENTS // len(t))
    for lo in range(0, len(omegas), step):
        phases = np.exp(-1j * np.outer(omegas[lo : lo + step], t))  # (step, m_d)
        ghat[lo : lo + step] = np.einsum("fm,m,mij->fij", phases, weights, vals_d)
    if decay_rate is not None and tail_fraction > 0:
        t_end = g.times[-1]
        tail = vals[-1][None, :, :] * (
            np.exp(-1j * omegas * t_end) / (decay_rate + 1j * omegas)
        )[:, None, None]
        ghat = ghat + tail
    return ghat, tail_fraction, warning


def check_dissipative(
    obj,
    frequencies: np.ndarray | None = None,
    psd_tol: float = PSD_TOL,
) -> DissipativeVerdict:
    """Positive-realness scan of a transfer function.

    Accepts a state-space system (resolvent evaluation), a sampled kernel
    Trajectory (windowed transform with exponential tail closure), or a bare
    p x p matrix treated as a constant direct term.  The verdict is the
    minimum eigenvalue of the Hermitian part ghat(jw) + ghat(jw)^H over the
    frequency grid; the system is declared dissipative when it is >= -psd_tol.
    """
    warning = None
    tail_fraction = 0.0
    if isinstance(obj, (LinearStateSpace, LosslessLinear)):
        A, B, C, D = _port_matrices(obj)
        if _is_sparse(A):
            A = A.toarray()
        omega_scale = float(np.linalg.norm(A, 2)) if A.size else 1.0
        omegas = _default_frequencies(omega_scale) if frequencies is None else np.asarray(frequencies, float)
        n = A.shape[0]
        eye = np.eye(n)
        rows = []
        kept = []
        for w in omegas:
            try:
                rows.append(C @ np.linalg.solve(1j * w * eye - A, B) + D)
                kept.append(w)
            except np.linalg.LinAlgError:
                # pole on the imaginary axis (lossless resonance); skip the point
                continue
        if not rows:
            raise ValueError("transfer function is singular on the whole frequency grid")
        ghat = np.stack(rows)
        omegas = np.array(kept)
    elif isinstance(obj, Trajectory):
        omega_scale = 20.0 * np.pi / max(obj.duration, 1e-12)
        omegas = _default_frequencies(omega_scale) if frequencies is None else np.asarray(frequencies, float)
        ghat, tail_fraction, warning = _kernel_transform(obj, omegas)
    else:
        k = as_float_array(obj, "direct term", ndim=2)
        require_square(k, "direct term")
        omegas = np.array([0.0]) if frequencies is None else np.asarray(frequencies, float)
        ghat = np.broadcast_to(k.astype(complex), (len(omegas),) + k.shape)
    herm = ghat + np.conjugate(np.transpose(ghat, (0, 2, 1)))
    eigs = np.linalg.eigvalsh(herm)
    min_eig = float(eigs.min())
    return DissipativeVerdict(
        min_eigenvalue=min_eig,
        frequencies=omegas,
        dissipative=bool(min_eig >= -psd_tol),
        tail_fraction=tail_fraction,
        warning=warning,
    )


def check_reciprocal(g: Trajectory, sigma: SignatureMatrix, tol: float = 1e-8) -> ReciprocityVerdict:
    """Check g(t) Sigma = Sigma g(t)^T for every sample (max abs residual)."""
    vals = g.values
    if vals.ndim != 3 or vals.shape[1] != vals.shape[2]:
        raise ValueError(f"kernel samples must be square matrices, got shape {vals.shape}")
    s = sigma.matrix
    if s.shape[0] != vals.shape[1]:
        raise ValueError("signature dimension does not match the kernel")
    residual = float(np.abs(vals @ s - s @ np.transpose(vals, (0, 2, 1))).max())
    return ReciprocityVerdict(max_residual=residual, reciprocal=bool(residual <= tol))


def check_time_reversible(
    sys,
    sigma: SignatureMatrix,
    u1: Trajectory,
    tol: float = 1e-6,
    x0=None,
) -> ReversibilityVerdict:
    """Two-experiment time-reversal test.

    Experiment 1 drives the system from rest with u1 over [0, T].  Experiment
    2 applies u2(t) = -Sigma u1(T - t) and must end at rest at t = T (the
    state runs backwards to where experiment 1 began); the check passes when
    y2(t) = Sigma y1(T - t) within `tol` at every sample.

    The reversed run is computed by integrating v' = -A v + B Sigma u1(s)
    forward from v(0) = 0 and reading it backwards, which anchors the rest
    state at the reversal instant instead of compounding it into a terminal
    condition.  Systems exposing `zero_state_response` (large harmonic
    realizations) are simulated matrix-free.

    Only rest initial conditions are admissible; a nonzero x0 is rejected.
    """
    if x0 is not None and np.any(np.asarray(x0) != 0):
        raise ValueError("time-reversal experiments are defined from rest; x0 must be zero")
    s = sigma.matrix
    u_fwd = u1.values if u1.values.ndim > 1 else u1.values[:, None]
    if s.shape[0] != u_fwd.shape[1]:
        raise ValueError("signature dimension does not match the input")
    u_mirror = u_fwd @ s  # Sigma u1(s), symmetric diagonal signature
    if hasattr(sys, "zero_state_response"):
        d_term = np.asarray(sys.direct_term, dtype=float)
        y1 = sys.zero_state_response(u_fwd, u1.dt) + u_fwd @ d_term.T
        v_out = sys.zero_state_response(u_mirror, u1.dt, reverse=True)
    else:
        A, B, C, D = _port_matrices(sys)
        u_mids = midpoint_samples(u_fwd)
        xs = _rk4_states(A, B, u_fwd, u_mids, u1.dt, np.zeros(B.shape[0]))
        y1 = xs @ C.T + u_fwd @ D.T
        neg_A = -A if not _is_sparse(A) else (A * -1.0)
        vs = _rk4_states(neg_A, B, u_mirror, midpoint_samples(u_mirror), u1.dt, np.zeros(B.shape[0]))
        v_out = vs @ C.T
        d_term = D
    y2 = v_out[::-1] - u_mirror[::-1] @ d_term.T
    target = y1[::-1] @ s
    deviation = float(np.abs(y2 - target).max())
    return ReversibilityVerdict(max_deviation=deviation, reversible=bool(deviation <= tol))


def lc_ladder(l1: float = 1.0, c1: float = 1.0, c2: float = 1.0) -> LosslessLinear:
    """Driven LC ladder (voltage port on the first capacitor).

    In scaled charge/flux coordinates the network is lossless with

        J = [[0, -a, 0], [a, 0, -b], [0, b, 0]],   B = (1/sqrt(c1), 0, 0)^T,

    a = 1/sqrt(l1 c1), b = 1/sqrt(l1 c2).  With unit elements and initial
    state (1, 0, 0) the stored energy is 1/2 and the open-circuit output
    starts at y(0) = 1; a handy closed-form fixture for tests.
    """
    if min(l1, c1, c2) <= 0:
        raise ValueError("element values must be positive")
    a = 1.0 / np.sqrt(l1 * c1)
    b = 1.0 / np.sqrt(l1 * c2)
    J = np.array([[0.0, -a, 0.0], [a, 0.0, -b], [0.0, b, 0.0]])
    B = np.array([[1.0 / np.sqrt(c1)], [0.0], [0.0]])
    return LosslessLinear(J=J, B=B)
