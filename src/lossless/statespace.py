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
  On an LTI system RK4 is one precomputed increment map (`_rk4_states`):
  the input drive of every step is formed at once, and the loop over steps
  does one matrix-vector product each.  Only callable or nonlinear fields
  (`integrate_ode`, the energy-supply wrapper) step through `_rk4`.
* Every time-invariant linear recursion x[k+1] = Phi x[k] + Gamma u[k] in
  the package (impulse responses, the M1/M1hat/M2 probes and filter chains,
  Gramian rows, Euler-Maruyama Langevin paths) runs through `_lti_run` in
  lifted blocks.  RK4 is kept out of it on purpose (see `_rk4_states`);
  the nonlinear M2hat probe and its per-trial filter chains are also
  stepped one sample at a time, all trials of a chunk at once.  Impulse
  responses of rotation blocks (as every bank is, dense or CSR) are their
  closed-form sum of cosines and sines instead, within a few eps of
  sum_s (1 + |w_s| t)|c_s||b_s| per sample.
* Sampled signals live in `Trajectory` (uniform grid, first axis is time).
* Ports: a port record (`Trajectory` or array) is (m,) for one port or
  (m, p) for m samples of p ports, so (m,) and (m, 1) are the same
  record, and an output record mirrors its input's shape.  A gain is a
  scalar (one port) or a square p x p matrix, never 1-D.  `_port_samples`
  and `_square_gain` apply these rules everywhere; a record whose channel
  count differs from its ports is rejected, naming both counts.
* Structural matrices: `_generator` checks that a dense or sparse matrix
  is square and finite, `_skew_generator` that it passes `_skew_test` too,
  `_psd_eigh` that a stack is symmetric PSD (returning its eigenpairs),
  and `_state_vector` an initial state.  Each tolerance is relative to
  max(1, max|entry|), since rounding grows with the entries.
* Work integrals use composite Simpson so the quadrature error tracks the
  O(dt^4) integrator error instead of hiding it.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.integrate import simpson

from ._util import (
    CHUNK_ELEMENTS,
    angle_blocks,
    angle_phasors,
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

#: Tolerance on ||J + J^T||_1 (entrywise sum) for skew validation, times
#: the scale max(1, max|J_ij|).
SKEW_TOL = 1e-10

#: Eigenvalue tolerance for PSD: `_psd_eigh`'s input checks scale it by
#: max(1, max|entry|); `check_dissipative`'s verdict takes it as it is.
PSD_TOL = 1e-8


def _is_sparse(m) -> bool:
    return scipy.sparse.issparse(m)


def _generator(m, name: str, *, dense: bool = False):
    """A finite square matrix: a read-only float copy if dense, a
    scipy.sparse one (rejected when `dense`) as given."""
    sparse = _is_sparse(m)
    if sparse and dense:
        raise TypeError(f"{name} must be a dense matrix, got {type(m).__name__}")
    values = as_float_array(m.tocoo().data if sparse else m, name)
    require_square(m if sparse else values, name)
    return m if sparse else frozen(values)


def _skew_test(m, partner=None) -> tuple[float, bool]:
    """The one skew test: ||M + N^T||_1 (entrywise; N = M unless given), and
    whether it is within SKEW_TOL max(1, max|M_ij|, max|N_ij|); NaN is not."""
    if 0 in m.shape:
        return 0.0, True
    residual = float(abs(m + (m if partner is None else partner).T).sum())
    size = max(abs(m).max(), 0.0 if partner is None else abs(partner).max())
    return residual, residual <= SKEW_TOL * max(1.0, size)


def _skew_generator(m, name: str, *, dense: bool = False):
    """`_generator` for a matrix that must pass `_skew_test`."""
    m = _generator(m, name, dense=dense)
    residual, skew = _skew_test(m)
    if not skew:
        raise ValueError(f"{name} is not skew-symmetric (antisymmetric): ||{name} + {name}^T||_1 = "
                         f"{residual:.3e} exceeds SKEW_TOL max(1, max|{name}_ij|)")
    return m


def _psd_eigh(stack, name: str, psd_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (lam (k, p), vec (k, p, p)) of a stack of k matrices, each
    Hermitian within 1e-10 and PSD within psd_tol, both times its scale
    max(1, max|entry|); the first that is not PSD is rejected, naming its
    smallest eigenvalue.  lam is clipped at zero; callers cut the rank."""
    r = np.asarray(stack)
    scale = np.maximum(1.0, np.abs(r).max(axis=(1, 2), initial=0.0))
    asym = np.abs(r - np.conj(np.swapaxes(r, 1, 2))).max(axis=(1, 2), initial=0.0)
    if np.any(asym > 1e-10 * scale):
        raise ValueError(f"{name} is not symmetric (Hermitian) within 1e-10 max(1, max|entry|)")
    lam, vec = np.linalg.eigh(r)
    bad = np.nonzero((lam[:, :1] < -psd_tol * scale[:, None]).any(axis=1))[0]
    if bad.size:
        raise ValueError(f"{name} is not positive semidefinite: smallest eigenvalue {lam[bad[0], 0]:.6e}")
    return np.clip(lam, 0.0, None), vec


def _require_finite(path, dt: float) -> None:
    """FloatingPointError at the first time (axis 0) with a non-finite sample."""
    finite = np.isfinite(path).reshape(len(path), -1).all(axis=1)
    if not finite.all():
        raise FloatingPointError(f"state diverged at t = {int(np.argmin(finite)) * dt:.6g}")


def _state_vector(x, n: int, name: str = "x0") -> np.ndarray:
    """A finite state of dimension n, the zero state for None."""
    x = np.zeros(n) if x is None else as_float_array(x, name, ndim=1)
    if x.shape[0] != n:
        raise ValueError(f"{name} has dimension {x.shape[0]}, state dimension is {n}")
    return x


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
        vals = as_float_array(self.values, "trajectory")
        if vals.ndim < 1 or vals.shape[0] < 1:
            raise ValueError("values must have at least one sample on axis 0")
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


class _StatePorts:
    """State count n and port count p, read off the n x p input map B."""

    @property
    def n(self) -> int:
        return self.B.shape[0]

    @property
    def p(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class LinearStateSpace(_StatePorts):
    """General LTI system dx/dt = A x + B u, y = C x + D u (square port)."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        A = _generator(self.A, "A")
        B = as_float_array(self.B, "B", ndim=2)
        C = as_float_array(self.C, "C", ndim=2)
        D = _generator(self.D, "D", dense=True)
        n, p = B.shape
        if A.shape[0] != n:
            raise ValueError(f"A is {A.shape} but B has {n} rows")
        if C.shape != (p, n):
            raise ValueError(f"C must be {(p, n)} to pair the port, got {C.shape}")
        if D.shape != (p, p):
            raise ValueError(f"D must be {(p, p)}, got {D.shape}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", frozen(B))
        object.__setattr__(self, "C", frozen(C))
        object.__setattr__(self, "D", D)


@dataclass(frozen=True)
class LosslessLinear(_StatePorts):
    """Lossless port realization (J skew, output B^T x + D u, D skew).

    `J` may be dense or scipy.sparse (large block-diagonal realizations);
    J and D must pass the skew test of `_skew_generator`.
    """

    J: np.ndarray
    B: np.ndarray
    D: np.ndarray | None = None

    def __post_init__(self):
        J = _skew_generator(self.J, "J")
        B = as_float_array(self.B, "B", ndim=2)
        n, p = B.shape
        if J.shape[0] != n:
            raise ValueError(f"J is {J.shape} but B has {n} rows")
        D = _skew_generator(np.zeros((p, p)) if self.D is None else self.D, "D", dense=True)
        if D.shape != (p, p):
            raise ValueError(f"D must be {(p, p)}, got {D.shape}")
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "B", frozen(B))
        object.__setattr__(self, "D", D)

    def as_statespace(self) -> LinearStateSpace:
        return LinearStateSpace(A=self.J, B=self.B, C=self.B.T, D=self.D)

    @classmethod
    def _from_checked(cls, J: np.ndarray, B: np.ndarray, D: np.ndarray) -> "LosslessLinear":
        """Wrap read-only arrays whose entries a validated system already
        holds (say, views of one diagonal block of it), without checking
        or copying them again."""
        system = object.__new__(cls)
        for name, value in (("J", J), ("B", B), ("D", D)):
            object.__setattr__(system, name, value)
        return system


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


def _port_samples(record, ports: int | None = None, *, what: str = "input",
                  owner: str = "the system") -> np.ndarray:
    """A port record (Trajectory or array) as samples x ports, checked
    against `ports` when given."""
    vals = record.values if isinstance(record, Trajectory) else np.asarray(record, dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.ndim != 2:
        raise ValueError(f"{what} must be (samples,) or (samples, ports), got shape {vals.shape}")
    if ports is not None and vals.shape[1] != ports:
        raise ValueError(f"{what} has {vals.shape[1]} channels, {owner} expects {ports}")
    return vals


def _square_gain(gain, name: str = "gain") -> np.ndarray:
    """A finite gain as a p x p matrix, a scalar as the 1 x 1 case."""
    k = as_float_array(gain, name)
    if k.ndim == 0:
        k = k.reshape(1, 1)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValueError(f"{name} must be scalar or square, got shape {k.shape}")
    return k


def _input_samples(u, p: int, dt: float | None, horizon: float | None):
    """Normalize any accepted input form to (values (m, p), mids (m-1, p), dt).

    A sampled input is cut to `horizon` when one is given; its half-step
    values are interpolated on the full record first.  A `dt` given with
    a sampled input must be the input's own step.
    """
    if isinstance(u, Trajectory):
        if dt is not None and not math.isclose(dt, u.dt, rel_tol=1e-9):
            raise ValueError(f"dt {dt} does not match the input's sample step {u.dt}")
        vals = _port_samples(u, p)
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
        vals, mids = np.zeros((steps + 1, p)), np.zeros((steps, p))
        if u is not None:
            accepted = {(), (1,), (p,)}  # the shapes that broadcast to (p,)
            for out, offset in ((vals, 0.0), (mids, 0.5)):
                for k in range(len(out)):
                    v = np.asarray(u((k + offset) * dt), dtype=float)
                    # broadcast_to raises on any other shape, naming it
                    out[k] = v if v.shape in accepted else np.broadcast_to(v, (p,))
        return vals, mids, dt
    raise TypeError(f"unsupported input of type {type(u).__name__}")


def _rk4_states(A, B, u_vals, u_mids, dt: float, x0) -> np.ndarray:
    """States of dx/dt = A x + B u on the sample grid (classic RK4).

    On a linear field one RK4 step is the increment map

        x[k+1] = x[k] + (E x[k] + d[k]),   d[k] = Q0 u[k] + Qm u[k+1/2] + Q1 u[k+1],

    with Z = dt A, E = Z + Z^2/2 + Z^3/6 + Z^4/24, Q0 = (dt/6)(B + Z B +
    Z^2 B/2 + Z^3 B/4), Qm = (dt/6)(4 B + 2 Z B + Z^2 B/2) and Q1 = (dt/6) B
    (Hairer, Norsett & Wanner, Solving ODEs I, II.1).  E is summed from its
    Taylor terms and applied as an increment.  Storing the step matrix
    I + E instead would round E to the float spacing near 1, and that same
    error would recur every step: over the 1e5 steps of a dt = 1e-5 run it
    outgrows the O(dt^4) error that a convergence study measures.  A sparse
    A stays sparse.

    `x0` is (n,) or (n, batch) and the inputs (m, p) or (m, p, batch); the
    states come back as (m, n) + the batch shape.  Raises FloatingPointError
    with the time of the first non-finite state.
    """
    n, p = B.shape
    steps = len(u_vals) - 1
    batch = np.shape(x0)[1:] or np.shape(u_vals)[2:]
    z = A * dt
    z2 = z @ z
    e = z + z2 / 2.0 + (z2 @ z) / 6.0 + (z2 @ z2) / 24.0
    zb = z @ B
    z2b = z @ zb
    q0 = (dt / 6.0) * (B + zb + z2b / 2.0 + (z @ z2b) / 4.0)
    qm = (dt / 6.0) * (4.0 * B + 2.0 * zb + z2b / 2.0)
    q1 = (dt / 6.0) * B
    u = np.reshape(u_vals, (steps + 1, p, -1))
    out = np.empty((steps + 1, n, math.prod(batch)))
    out[0] = np.reshape(x0, (n, -1))
    with np.errstate(over="ignore", invalid="ignore"):
        out[1:] = q0 @ u[:-1]
        out[1:] += qm @ np.reshape(u_mids, (steps, p, -1))
        out[1:] += q1 @ u[1:]
        x = out[0]
        for d in out[1:]:  # d = x + (E x + d), summed in that order
            d += e @ x
            d += x
            x = d
    _require_finite(out, dt)
    return out.reshape((steps + 1, n) + batch)


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
    the true half-step times.  Each step is the classic four-stage RK4 step
    written as one increment map, x[k+1] = x[k] + (E x[k] + d[k]), with E
    and the input drive d built once per call; 20 000 steps of the LC
    ladder take about 0.1 s.  A state that leaves float range raises
    FloatingPointError naming the first sample time at which it did.
    """
    A, B, C, D = _port_matrices(sys)
    u_vals, u_mids, step = _input_samples(u, B.shape[1], dt, horizon)
    xs = _rk4_states(A, B, u_vals, u_mids, step, _state_vector(x0, B.shape[0]))
    ys = xs @ C.T + u_vals @ D.T
    return Trajectory(dt=step, values=xs), Trajectory(dt=step, values=ys)


def impulse_response(sys, dt: float, n_samples: int) -> Trajectory:
    """Impulse-response kernel g(t_k) = C exp(A t_k) B on a uniform grid.

    The direct term D is *not* folded into the samples; it stays a separate
    algebraic channel on the system object.

    When A is a direct sum of 2 x 2 rotations A[i, j] = w = -A[j, i] and
    zero states (every bank is), the samples are the closed-form sum of
    cosines and sines of `_rotation_response`, within a few eps of
    sum_s (1 + |w_s| t)|c_s||b_s| each; 5001 samples of an 813-state bank
    take about 10 ms.  A may then be dense or sparse (the CSR generator of
    a large bank).  Any other A must be dense, and takes the readouts of
    x[k+1] = Phi x[k] from x[0] = B (Phi = exp(A dt)), run in lifted blocks
    by `_lti_run`.
    """
    A, B, C, _ = _port_matrices(sys)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    out = _rotation_response(A, B, C, dt, n_samples)
    if out is None:
        if _is_sparse(A):
            raise TypeError("impulse_response needs a dense state matrix or rotation blocks")
        out, _ = _lti_run(matrix_exponential(A * dt), B, c=C, steps=n_samples - 1)
    return Trajectory(dt=dt, values=out)


def _rotation_response(A, B, C, dt: float, n_samples: int) -> np.ndarray | None:
    """The closed form of `impulse_response`, or None unless A is rotation
    blocks: in one pass over its nonzeros (dense or sparse A), at most one
    per row and A[j, i] == -A[i, j] exactly (so a zero diagonal).  Row s of
    e^{At} B is b_s cos(w_s t) + b_r sin(w_s t), r the state that s rotates
    with (s itself for a zero state) and w_s = A[s, r], so g(t) = Re sum_s
    c_s (b_s - i b_r)^T e^{i w_s t}, from the factors of `angle_phasors`.
    """
    if _is_sparse(A):
        entries = scipy.sparse.csr_array(A).tocoo()  # row-major
        keep = entries.data != 0
        rows, cols, w = entries.row[keep], entries.col[keep], entries.data[keep]
    else:
        rows, cols = np.nonzero(A)
        w = A[rows, cols]
    partner, omega = np.arange(len(B)), np.zeros(len(B))
    partner[rows], omega[rows] = cols, w
    # with one entry per row, A[c, r] is the entry of row c if it sits in column r
    if not ((rows[1:] > rows[:-1]).all() and (partner[cols] == rows).all()
            and (omega[cols] == -w).all()):
        return None
    q, p = C.shape[0], B.shape[1]
    coef = (C.T[:, :, None] * (B - 1j * B[partner])[:, None]).reshape(len(B), q * p)
    inner, blocks = angle_blocks(n_samples)
    out = np.zeros((blocks, inner, q * p))
    group = max(1, CHUNK_ELEMENTS // (2 * inner * q * p))  # anchor blocks per product
    for chunk, phasors, anchors in angle_phasors(omega, dt, n_samples, extra=blocks * q * p):
        weighted = anchors[:, :, None] * coef[chunk, None]
        for lo in range(0, blocks, group):
            sums = phasors.T @ weighted[:, lo : lo + group].reshape(len(phasors), -1)
            out[lo : lo + group] += sums.real.reshape(inner, -1, q * p).swapaxes(0, 1)
    return out.reshape(-1, q, p)[:n_samples]


def energy_ledger(x: Trajectory, u: Trajectory, y: Trajectory) -> EnergyLedger:
    """Stored energy ||x||^2/2 and work rate y . u along matched records."""
    if not (x.n_samples == u.n_samples == y.n_samples):
        raise ValueError("state, input, and output records must share the grid")
    if not (abs(x.dt - u.dt) < 1e-15 and abs(x.dt - y.dt) < 1e-15):
        raise ValueError("state, input, and output records must share dt")
    energy = 0.5 * np.sum(x.values**2, axis=-1)
    u2 = _port_samples(u)
    y2 = _port_samples(y, u2.shape[1], what="output", owner="the input record")
    rate = np.sum(u2 * y2, axis=-1)
    return EnergyLedger(times=x.times, total_energy=energy, work_rate=rate)


def _smooth_test_input(rng: np.random.Generator, p: int, horizon: float, n_modes: int = 5):
    """Random band-limited input, zero at t = 0, as a callable of t.

    The callable takes a time or an array of times and returns t.shape + (p,).
    """
    amps = rng.standard_normal((n_modes, p))

    def u(t):
        phases = np.sin(np.arange(1, n_modes + 1) * np.pi * np.asarray(t)[..., None] / horizon)
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

    Structure: A, D and the pair (B, -C), the blocks of [[A, B], [-C, -D]],
    which is skew iff dE/dt = y^T u, must pass construction's `_skew_test`;
    the residual is the largest of the three.  Behaviour: for
    `trials` random band-limited inputs from rest, the energy balance
    |E(T) - E(0) - int y.u dt| must vanish relative to the input work within
    `energy_tol`.  All trials run as one batch through the RK4 increment
    map, and each trial's ledger is integrated with Simpson's rule.  The
    cost is that of the 2000-step loop, not of the trials: on the 3-state
    LC ladder at the defaults, 1 trial and 8 trials both take about 10 ms;
    1 trial on a 4623-harmonic bank (n = 9245) takes about 1 s.  Pass
    trials=0 to run the structural check alone.
    """
    A, B, C, D = _port_matrices(sys)
    residuals, skew = zip(_skew_test(A), _skew_test(D), _skew_test(B, -C))
    worst = float("nan")
    if trials > 0:
        steps = _step_count(horizon, dt)
        inputs = [_smooth_test_input(derive_rng(seed, i), B.shape[1], horizon) for i in range(trials)]
        times = np.arange(steps + 1) * dt
        u = np.stack([f(times) for f in inputs], axis=-1)  # (steps + 1, p, trials)
        mids = np.stack([f((np.arange(steps) + 0.5) * dt) for f in inputs], axis=-1)
        xs = _rk4_states(A, B, u, mids, dt, np.zeros(B.shape[0]))
        rate = np.sum(u * (C @ xs + D @ u), axis=1)
        energy = 0.5 * np.sum(xs**2, axis=1)
        balance = np.abs(energy[-1] - energy[0] - simpson(rate, x=times, axis=0))
        scale = np.maximum(simpson(np.abs(rate), x=times, axis=0), 1e-300)
        worst = float(np.max(balance / scale))
    passed = all(skew) and (trials == 0 or worst <= energy_tol)
    return LosslessVerdict(
        skew_residual=max(residuals), energy_residual=worst, trials=trials, passed=passed
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
    The window sum runs over the uniform t_k = k stride dt by blocked angle
    addition (within about eps w t_k per term of the sum phase by phase);
    the end sample that decimation appends is added directly.
    """
    vals = _as_kernel_samples(g.values)
    m = vals.shape[0]
    # keep the transform cost bounded; psd_tol-grade accuracy survives decimation
    stride = max(1, (m - 1) // 32768)
    t = g.times[::stride]
    count = len(t)  # the uniform samples k stride dt; the end one is appended
    if t[-1] != g.times[-1]:
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
    flat = vals.reshape(m, -1)
    ghat = np.zeros((len(omegas), flat.shape[1]), dtype=complex)
    for rows, phasors, anchors in angle_phasors(-omegas, stride * g.dt, count, extra=2 * flat.shape[1]):
        inner = phasors.shape[1]
        for a in range(anchors.shape[1]):  # block a: samples a L .. a L + L - 1
            lo, hi = a * inner, min((a + 1) * inner, count)
            block = weights[lo:hi, None] * flat[lo * stride : hi * stride : stride]
            ghat[rows] += anchors[:, a, None] * (phasors[:, : hi - lo] @ block)
    if len(t) > count:
        ghat += weights[-1] * flat[-1] * np.exp(-1j * omegas * t[-1])[:, None]
    ghat = ghat.reshape((len(omegas),) + vals.shape[1:])
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
        k = _square_gain(obj, "direct term")
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
    vals = _as_kernel_samples(g.values)
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
    u_fwd = _port_samples(u1, sigma.p, owner="the signature")
    u_mirror = u_fwd @ s  # Sigma u1(s), symmetric diagonal signature
    if hasattr(sys, "zero_state_response"):
        d_term = np.asarray(sys.direct_term, dtype=float)
        y1 = sys.zero_state_response(u_fwd, u1.dt) + u_fwd @ d_term.T
        v_out = sys.zero_state_response(u_mirror, u1.dt, reverse=True)
    else:
        A, B, C, d_term = _port_matrices(sys)
        _port_samples(u_fwd, B.shape[1])
        rest = np.zeros(B.shape[0])
        xs = _rk4_states(A, B, u_fwd, midpoint_samples(u_fwd), u1.dt, rest)
        y1 = xs @ C.T + u_fwd @ d_term.T
        vs = _rk4_states(-A, B, u_mirror, midpoint_samples(u_mirror), u1.dt, rest)
        v_out = vs @ C.T
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
