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
  On an LTI system RK4 is one precomputed increment map (`_rk4_states`),
  run by `_lti_run`.  Callable or nonlinear fields (`integrate_ode`, the
  energy-supply wrapper, the active probe's supply path) run through
  `_rk4`: Picard passes over windows of steps, each rebuilt as running
  sums of its RK4 increments, whose fixed point is the step loop's record
  bit for bit.  A caller that also gives the rate over a stack of rows
  (the CLI's convergence sweep, the supply path up to 16 states) gets
  windows of many steps per numpy call, picked by counts, not a clock; a
  public callable sees one state, in one-row windows: the step loop.
* Every time-invariant linear recursion x[k+1] = x[k] + (E x[k] + Gamma u[k])
  in the package (RK4, impulse responses, the M1/M1hat/M2 probes and
  filter chains, exact-step Langevin paths) runs through `_lti_run`,
  given its increment E, in lifted blocks.  Kept out of it: rotation
  blocks (below), the Riccati floor's Gramian rows (one panel's factor
  doubled log2(panels) times, so rounding does not compound over the
  panels), and the nonlinear M2hat probe, stepped one sample at a time,
  all trials of a chunk at once.
* The behavioural verdicts run the implicit midpoint rule
  (`_midpoint_outputs`), exactly energy-conserving and stable at any w h.
* Rotation blocks: `_rotations` reads a generator that is a direct sum of
  2 x 2 rotations and zero states (every bank, dense or CSR).  Impulse
  responses and the verdicts' midpoint runs (a convolution at the
  Tustin-warped frequencies 2 atan(w h / 2)) share one closed-form kernel,
  `_rotation_response`; `check_dissipative`'s resolvent and
  `thermal._transient_maps` take closed forms too, and none densifies.
  Any other generator takes the dense path (the midpoint step keeps a
  sparse one sparse, by `scipy.sparse.linalg`'s LU).  Both are numpy
  alone: only a sparse generator (a bank above 2000 states, or a
  caller's) loads scipy.
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
  max|entry|, since rounding grows with the entries, so a matrix in small
  units is judged on its own scale and an all-zero one must be exact.
* Work integrals use composite Simpson so the quadrature error tracks the
  O(dt^4) integrator error instead of hiding it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._util import (
    CHUNK_ELEMENTS,
    angle_blocks,
    angle_phasors,
    as_float_array,
    causal_convolve,
    derive_rng,
    expm,
    frozen,
    midpoint_samples,
    phasor_sums,
    positive,
    require_square,
    simpson,
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
#: the scale max|J_ij|.
SKEW_TOL = 1e-10

#: Eigenvalue tolerance for PSD: `_psd_eigh`'s input checks scale it by
#: max|entry|, `check_dissipative`'s verdict by max(1, max|ghat(jw)|).
PSD_TOL = 1e-8

#: `check_lossless`'s test run: midpoint steps of `_LOSSLESS_DT` over
#: `_LOSSLESS_HORIZON`, and its bound on the energy ledger relative to the
#: input work.  The ledger is rounding: at most 2e-13 measured over random
#: skew systems (n <= 120, |J_ij| up to 520) and banks of up to 9245 states.
_LOSSLESS_HORIZON = 2.0
_LOSSLESS_DT = 1e-3
_ENERGY_TOL = 1e-11

#: `check_reciprocal`'s bound on max|g Sigma - Sigma g^T| over the samples.
_RECIPROCITY_TOL = 1e-8

#: `check_time_reversible`'s bound on max|y2(t) - Sigma y1(T - t)|, which is rounding
#: if reversible: at most 5.3e-14 over 20 rotated LC ladders, 0.0 on 3982-state banks.
_REVERSIBILITY_TOL = 1e-6

#: `_lti_run` lifts blocks of at least 2^`_INCREMENT_LEVELS` steps whose
#: operators hold at most `_INCREMENT_ELEMENTS` entries (1 MiB), else it
#: takes the step loop: a lifted step does the loop's E x work, so lifting
#: saves only per-call overhead, and an operator that outgrows the cache
#: loses that.  Both bounds were set by timing the step loop against
#: each block length L (the timings are in CHANGES.md).
_INCREMENT_ELEMENTS = 1 << 17
_INCREMENT_LEVELS = 3

#: `_rk4`'s window passes (see `_Window`), a pass over w rows booked as
#: `_RK4_PASS` + w / `_RK4_ROWS` one-row passes.  The cost model, the loss a
#: burst may take and the back-off were set by timing (figures in CHANGES.md).
_RK4_WINDOW = 256
_RK4_LOOKAHEAD = 24
_RK4_PASS = 2.0
_RK4_ROWS = 48
_RK4_LOSS = 36
_RK4_PROBE = 8
_RK4_BACKOFF = 64


def _is_sparse(m) -> bool:
    """Whether m is a scipy.sparse matrix or array.  Nothing can be one
    unless scipy.sparse is loaded, so the test never imports it."""
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(m)


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
    whether it is within SKEW_TOL max(max|M_ij|, max|N_ij|); NaN is not."""
    if 0 in m.shape:
        return 0.0, True
    residual = float(abs(m + (m if partner is None else partner).T).sum())
    size = max(abs(m).max(), 0.0 if partner is None else abs(partner).max())
    return residual, residual <= SKEW_TOL * size


def _skew_generator(m, name: str, *, dense: bool = False):
    """`_generator` for a matrix that must pass `_skew_test`."""
    m = _generator(m, name, dense=dense)
    residual, skew = _skew_test(m)
    if not skew:
        raise ValueError(f"{name} is not skew-symmetric (antisymmetric): ||{name} + {name}^T||_1 = "
                         f"{residual:.3e} exceeds SKEW_TOL max|{name}_ij|")
    return m


def _psd_eigh(stack, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (lam (k, p), vec (k, p, p)) of a stack of k matrices, each
    Hermitian within 1e-10 and PSD within `PSD_TOL`, both times its scale
    max|entry|; the first that is not PSD is rejected, naming its
    smallest eigenvalue.  lam is clipped at zero; callers cut the rank."""
    r = np.asarray(stack)
    scale = np.abs(r).max(axis=(1, 2), initial=0.0)
    asym = np.abs(r - np.conj(np.swapaxes(r, 1, 2))).max(axis=(1, 2), initial=0.0)
    if np.any(asym > 1e-10 * scale):
        raise ValueError(f"{name} is not symmetric (Hermitian) within 1e-10 max|entry|")
    lam, vec = np.linalg.eigh(r)
    bad = np.nonzero((lam[:, :1] < -PSD_TOL * scale[:, None]).any(axis=1))[0]
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
    matrices, batches).  Arrays are stored read-only, so a trajectory never
    changes after it is made.
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
        if n_samples < 1:
            raise ValueError("n_samples must be >= 1")
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
        """Simpson integral of the work rate over the full record (evenly spaced times)."""
        widths = np.diff(self.times)
        if widths.size and np.ptp(widths) > 1e-6 * abs(widths[0]):
            raise ValueError("the net work needs evenly spaced times")
        return float(simpson(self.work_rate, widths[0] if widths.size else 0.0))

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
    """exp(M) for a finite square matrix (scaling-and-squaring Pade, `_util.expm`)."""
    a = as_float_array(m, "matrix", ndim=2)
    require_square(a, "matrix")
    return expm(a)


def _expm_increment(a) -> np.ndarray:
    """e^A - I without cancelling against I, so a short step keeps its digits: A phi(A), with
    phi(A) = int_0^1 e^{As} ds the top-right block of e^[[A, I], [0, 0]] (Van Loan, IEEE TAC 23, 1978)."""
    n = a.shape[0]
    return a @ expm(np.block([[a, np.eye(n)], [np.zeros((n, 2 * n))]]))[:n, n:]


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
    times = np.arange(_step_count(horizon, dt) + 1) * dt
    out = _rk4(lambda x, t: f(t, x), as_float_array(x0, "x0"), times, times[:-1] + 0.5 * dt, dt)
    return Trajectory(dt=dt, values=out)


def _rk4(rate, x0, u_vals, u_mids, h: float, stack=None) -> np.ndarray:
    """Classic fixed-step RK4 for dx/dt = rate(x, u) on a sampled input.

    `u_vals` holds the input at the steps, `u_mids` at the half-steps.
    Returns the states x[0..steps], bit for bit those of the step loop
    x[k+1] = x[k] + Phi_k, Phi_k = (h/6)(k1 + 2 k2 + 2 k3 + k4); raises
    FloatingPointError with the time of its first non-finite state.

    The record is built by Picard passes over a window of steps that
    starts at the last committed state x[a].  A pass evaluates each stage
    once for all rows of the window's current guess, forms each Phi_k
    with the step's own expressions (`_increment`), and rebuilds the
    window as the running sums x[a] + Phi_a + Phi_{a+1} + ...
    (`np.add.accumulate` adds in order, so these are the step's own
    additions).  The first new row is exact, and so is each next one
    while every guess before it equals its new value bit for bit; those
    rows are committed and the window slides to the last of them.  At
    least one row settles per pass, so a record takes at most `steps`
    passes, and the fixed point is the step loop's unique solution
    whatever the windows.

    `rate` takes one state and one input sample.  A one-row window calls
    it and settles in its pass, with no settle test and no running sum;
    without `stack` every window is one row.  `stack`, if given, is
    `rate` over a leading axis of rows, states (w,) + x0's shape with the
    matching rows of `u_vals` or `u_mids`, and each row of its result
    must be bit for bit what `rate` gives for that row; `_Window` then
    runs wider windows where its counts say they pay (the same passes on
    every run); a caller offers `stack` only where its rows are cheap.
    Unsettled rows may overflow on the way, so such a record runs with
    numpy's overflow and invalid warnings off.
    """
    out = np.empty((len(u_vals),) + np.shape(x0))
    out[0] = x0
    steps, start = len(u_vals) - 1, 0
    window = None if stack is None else _Window(stack, out, u_vals, u_mids, h)
    wake = steps if window is None else window.wait  # where the next window passes start
    x = out[0]
    with contextlib.nullcontext() if window is None else np.errstate(over="ignore", invalid="ignore"):
        while start < steps:
            if start == wake:
                start, wake = window.burst(start)
                x = out[start]
                continue
            x = x + _increment(rate, x, u_vals[start], u_mids[start], u_vals[start + 1], h)
            if not np.isfinite(x).all():
                raise _diverged(start + 1, h)
            out[start + 1] = x
            start += 1
    return out


def _increment(f, x, u0, um, u1, h: float):
    """RK4's Phi = (h/6)(k1 + 2 k2 + 2 k3 + k4) for dx/dt = f(x, u) at x."""
    k1 = f(x, u0)
    k2 = f(x + 0.5 * h * k1, um)
    k3 = f(x + 0.5 * h * k2, um)
    k4 = f(x + h * k3, u1)
    return (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _diverged(row: int, h: float) -> FloatingPointError:
    return FloatingPointError(f"state diverged at t = {row * h:.6g}")


class _Window:
    """The window passes of a stacked `_rk4` record, in bursts.

    A window's width is halfway between the last one's and `_RK4_LOOKAHEAD`
    times the rows the last pass settled (`_RK4_LOOKAHEAD` at first), within
    `_RK4_WINDOW` rows and never short of the rows already guessed; fresh
    rows extend the last increment.  A burst books each pass as the rows it
    settled less its booked cost, ends once that balance is `_RK4_LOSS` rows
    below its best, and is followed `_RK4_PROBE` one-row passes later if its
    best passed `_RK4_LOSS`, else after `_RK4_BACKOFF` times the last wait.
    """

    def __init__(self, stack, out, u_vals, u_mids, h: float):
        self.stack, self.out, self.u_vals, self.u_mids, self.h = stack, out, u_vals, u_mids, h
        self.reach, self.wait = 0, _RK4_PROBE

    def burst(self, start: int):
        """Window passes from `start`; returns the row they reached and
        the row at which the next burst starts."""
        out, steps, h = self.out, len(self.out) - 1, self.h
        saved = best = 0.0
        width, self.reach = _RK4_LOOKAHEAD, max(self.reach, start)
        while start < steps and saved > best - _RK4_LOSS:
            reach = self.reach
            stop = min(steps, start + _RK4_WINDOW, max(reach, start + width))
            if stop > reach + 1:
                slope = out[reach] - out[max(reach - 1, 0)]
                out[reach + 1:stop] = out[reach] + np.multiply.outer(np.arange(1.0, stop - reach), slope)
            self.reach = max(reach, stop)
            x = out[start:stop]
            phi = _increment(self.stack, x, self.u_vals[start:stop], self.u_mids[start:stop],
                             self.u_vals[start + 1:stop + 1], h)
            settled = _settle(out, x, phi, start, stop)
            committed = out[start + 1:start + 1 + settled]
            if not np.isfinite(committed).all():
                bad = ~np.isfinite(committed.reshape(settled, -1)).all(axis=1)
                raise _diverged(start + 1 + int(bad.argmax()), h)
            saved += settled - _RK4_PASS - (stop - start) / _RK4_ROWS
            best = max(best, saved)
            start += settled
            width = min(_RK4_WINDOW, (width + _RK4_LOOKAHEAD * settled) // 2)
        self.wait = _RK4_PROBE if best > _RK4_LOSS else _RK4_BACKOFF * self.wait
        return start, start + self.wait


def _settle(out, x, phi, start: int, stop: int) -> int:
    """Write a window pass over rows start..stop - 1 into `out`: the rows
    it settled, whose count it returns, and the new guesses.  `x` holds
    the pass's guess and `phi` its increments (overwritten)."""
    phi[0] += x[0]
    new = np.add.accumulate(phi, axis=0, out=phi)
    moved = np.flatnonzero(new[:-1].view(np.int64) != x[1:].view(np.int64))
    out[start + 1:stop + 1] = new
    return int(moved[0]) // x[0].size + 1 if moved.size else stop - start


def _lti_run(e, x0, gamma=None, u=None, c=None, steps=None):
    """Readouts c x[k], k = 0..steps, of x[k+1] = x[k] + (e x[k] + gamma u[k]).

    `e` is the increment E of the step map I + E, which is never formed:
    rounding E into I + E would recur every step (`_rk4_states`).  `x0`
    is (n,) or (n, batch); `gamma` (n, m) and `u` (steps, m) or
    (steps, m, batch) are None for a free response.  `c` is (p, n), (n,)
    or None for the states.  Returns the readouts, shaped (steps + 1,) +
    c's leading shape + the batch shape, and the final state x[steps].

    Lifted blocks of L = 2^j steps: from x[k], a block's readouts are
    c x[k] + (F x[k] + T u[k..]), with F = [c E_0; c E_1; ...; c E_{L-1}]
    for the increments E_i = (I + E)^i - I and T the block-Toeplitz
    matrix of the Markov parameters c (I + E)^i gamma, and E_L and
    [(I + E)^{L-1} gamma, ..., gamma] advance the state to x[k+L] in the
    same way, c x[k] added last.  j doublings build them all by the
    squaring recurrence of e^A - I, E_{2P} = 2 E_P + E_P E_P (Higham,
    Functions of Matrices, 2008, 10.2).  L ~ sqrt(steps) balances the
    squarings against the block count; it shrinks until these operators
    and one block of readouts hold at most `_INCREMENT_ELEMENTS` entries,
    and a span below 2^`_INCREMENT_LEVELS` steps is L = 1: the step loop,
    which keeps a sparse E sparse and forms the drives in the state record.
    """
    n, m = e.shape[0], 0 if u is None else gamma.shape[1]
    steps = steps if u is None else len(u)
    batch = np.shape(x0)[1:] or np.shape(u)[2:]
    x = np.reshape(x0, (n, -1))
    p, width = n if c is None else math.prod(np.shape(c)[:-1]), math.prod(batch)
    levels = int(math.log2(max(steps, 1)) / 2 + 0.5)
    while levels and (1 << levels) * (p * (n + (m << levels) + width) + n * m) > _INCREMENT_ELEMENTS:
        levels -= 1
    if m:
        u = np.reshape(u, (steps * m, math.prod(np.shape(u)[2:])))  # row k m + i: u[k][i]
    if levels < _INCREMENT_LEVELS:  # the step loop
        out = np.zeros((steps + 1, n, width))
        out[0] = x
        if m:  # the drives gamma u[k], formed in place
            drives = np.broadcast_to(u.reshape(steps, m, u.shape[1]), (steps, m, width))
            np.matmul(gamma, drives, out=out[1:])
        x = out[0]
        for nxt in out[1:]:  # x[k+1] = x[k] + (E x[k] + gamma u[k])
            nxt += e @ x
            nxt += x
            x = nxt
        if c is not None:
            out = np.reshape(c, (-1, n)) @ out
    else:
        e = e.toarray() if _is_sparse(e) else e
        cc = np.eye(n) if c is None else np.reshape(c, (-1, n))
        span = 1 << levels
        # free holds c E_i from c E_0 = 0, head c E_P, power E_P
        free, head, drive, power, powers = np.zeros((p, n)), e if c is None else cc @ e, gamma, e, []
        for _ in range(levels):
            powers.append(power)
            # c E_{i+P} = c E_P + c E_i + c E_i E_P
            shifted = (head + free.reshape(-1, p, n)).reshape(free.shape) + free @ power
            free = np.vstack([free, shifted])
            if m:
                drive = np.hstack([drive + power @ drive, drive])
            head = 2.0 * head + head @ power
            power = 2.0 * power + power @ power
        if m:
            markov = (free @ gamma).reshape(span, p, m) + cc @ gamma
            markov = np.concatenate([markov, np.zeros((1, p, m))])
            lag = np.arange(span)[:, None] - np.arange(span) - 1
            toeplitz = markov[np.where(lag < 0, span, lag)].swapaxes(1, 2).reshape(span * p, -1)
        out = np.empty((steps + 1, p, width))
        k = 0
        while True:
            count = min(span, steps + 1 - k)  # readouts k .. k + count - 1
            block = free[: count * p] @ x
            if m and count > 1:
                block = block + toeplitz[: count * p, : (count - 1) * m] @ u[k * m : (k + count - 1) * m]
            np.add(block.reshape(count, p, -1), x if c is None else cc @ x, out=out[k : k + count])
            if k + count > steps:
                break
            x = x + (power @ x + (drive @ u[k * m : (k + span) * m] if m else 0.0))
            k += span
        rest = steps - k  # x[steps] from x[k]: (I + E)^rest by the binary powers
        for level, factor in enumerate(powers):
            if rest >> level & 1:
                x = x + factor @ x
        if m and rest:
            x = x + drive[:, (span - rest) * m :] @ u[k * m :]
    lead = (n,) if c is None else np.shape(c)[:-1]
    final = np.broadcast_to(x, (n, width)).reshape((n,) + batch)
    return out.reshape((steps + 1,) + lead + batch), final


def _step_count(horizon: float, dt: float, name: str = "horizon") -> int:
    """Steps of dt in horizon (named `name` in errors), both finite and positive, a multiple of dt."""
    dt, horizon = positive(dt, "dt"), positive(horizon, name)
    steps = int(round(horizon / dt))
    if steps < 1 or abs(steps * dt - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError(f"{name} {horizon} is not a positive multiple of dt {dt}")
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
    outgrows the O(dt^4) error that a convergence study measures.  So the
    map runs through `_lti_run` as the increment E, with Gamma = [Q0 Qm Q1]
    acting on the stacked samples (u[k], u[k+1/2], u[k+1]): a small
    system in lifted blocks, a large one by the step loop, where a sparse
    A stays sparse.

    `x0` is (n,) or (n, batch) and the inputs (m, p) or (m, p, batch); the
    states come back as (m, n) + the batch shape.  Raises FloatingPointError
    with the time of the first non-finite state.
    """
    z = A * dt
    z2 = z @ z
    e = z + z2 / 2.0 + (z2 @ z) / 6.0 + (z2 @ z2) / 24.0
    zb = z @ B
    z2b = z @ zb
    q0 = (dt / 6.0) * (B + zb + z2b / 2.0 + (z @ z2b) / 4.0)
    qm = (dt / 6.0) * (4.0 * B + 2.0 * zb + z2b / 2.0)
    q1 = (dt / 6.0) * B
    samples = np.concatenate([u_vals[:-1], u_mids, u_vals[1:]], axis=1)  # d[k] = [Q0 Qm Q1] samples[k]
    with np.errstate(over="ignore", invalid="ignore"):
        out, _ = _lti_run(e, x0, np.hstack([q0, qm, q1]), samples)
    _require_finite(out, dt)
    return out


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
    and the input drive d built once per call and the steps run in lifted
    blocks (`_rk4_states`).  A state that leaves float range raises
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
    cosines and sines of `_rotation_response`, the kernel the verdicts'
    midpoint runs convolve with, within a few eps of
    sum_s (1 + |w_s| t)|c_s||b_s| each.  A may then be dense or sparse (the
    CSR generator of a large bank).  Any other A must be dense, and takes the readouts of
    x[k+1] = x[k] + E x[k] from x[0] = B (E = exp(A dt) - I, `_expm_increment`),
    run in lifted blocks by `_lti_run`.
    """
    A, B, C, _ = _port_matrices(sys)
    positive(dt, "dt")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rotations = _rotations(A)
    if rotations is not None:
        out = _rotation_response(*rotations, B, C, dt, n_samples)
    elif _is_sparse(A):
        raise TypeError("impulse_response needs a dense state matrix or rotation blocks")
    else:
        out, _ = _lti_run(_expm_increment(A * dt), B, c=C, steps=n_samples - 1)
    return Trajectory(dt=dt, values=out)


def _rotations(A) -> tuple[np.ndarray, np.ndarray] | None:
    """(partner, omega) if A is a direct sum of 2 x 2 rotations and zero
    states, else None: in one pass over its nonzeros (dense or sparse A),
    at most one per row and A[j, i] == -A[i, j] exactly (so a zero
    diagonal).  State s rotates with r = partner[s] (s itself for a zero
    state) at w_s = omega[s] = A[s, r], so row s of e^{At} x is
    x_s cos(w_s t) + x_r sin(w_s t).
    """
    if _is_sparse(A):
        import scipy.sparse  # loaded already: A is one of its matrices

        entries = scipy.sparse.csr_array(A).tocoo()  # row-major
        keep = entries.data != 0
        rows, cols, w = entries.row[keep], entries.col[keep], entries.data[keep]
    else:
        rows, cols = np.nonzero(A)
        w = A[rows, cols]
    partner, omega = np.arange(A.shape[0]), np.zeros(A.shape[0])
    partner[rows], omega[rows] = cols, w
    # with one entry per row, A[c, r] is the entry of row c if it sits in column r
    if not ((rows[1:] > rows[:-1]).all() and (partner[cols] == rows).all()
            and (omega[cols] == -w).all()):
        return None
    return partner, omega


def _rotation_response(partner, omega, B, C, dt: float, n_samples: int) -> np.ndarray:
    """C e^{A t_k} B at t_k = k dt, k < n_samples, where A is the rotation
    blocks (partner, omega) of `_rotations`: g(t) = Re sum_s c_s (b_s -
    i b_r)^T e^{i w_s t}, from the factors of `angle_phasors`.
    """
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


def _smooth_test_input(rng: np.random.Generator, p: int, horizon: float):
    """Random band-limited input, zero at t = 0, as a callable of t: the
    modes sin(k pi t / horizon), k = 1..5, each weighted by a standard
    normal amplitude over k.

    The callable takes a time or an array of times and returns t.shape + (p,).
    """
    amps = rng.standard_normal((5, p))

    def u(t):
        phases = np.sin(np.arange(1, 6) * np.pi * np.asarray(t)[..., None] / horizon)
        return phases @ (amps / np.arange(1, 6)[:, None])

    return u


def _midpoint_outputs(A, B, C, u, h: float):
    """Readouts C x[k], k = 0..steps, and the final state x[steps] of the
    implicit midpoint rule x[k+1] - x[k] = h (A (x[k] + x[k+1]) / 2 + B u[k])
    from rest, for inputs u of shape (steps, p, batch).

    Rotation blocks (`_rotations`, dense or sparse A): with a = w_s h / 2
    and r = partner[s], a step maps state s to cos x_s + sin x_r + d_s u[k],
    d = h (B + a B[partner]) / (1 + a^2), a rotation by theta_s = 2 atan(a),
    the bilinear transform's warping of w_s h (Oppenheim & Schafer,
    Discrete-Time Signal Processing, 7.1).  So the readouts are the causal
    convolution (`causal_convolve`) of u with K[m] = C R(m theta) d, which
    is `_rotation_response` at unit step, and x_s[steps] = Re (d_s - i d_r)
    sum_m e^{i m theta_s} u[steps - 1 - m], one `phasor_sums` call: within
    a few steps eps of the states' peak of a step loop.  Any other sparse
    A stays sparse: a step solves for the midpoint state
    xbar = (I - h A / 2)^-1 (x[k] + h B u[k] / 2) with one sparse LU, and
    x[k+1] = 2 xbar - x[k].  Any other dense A: one solve with I - h A / 2
    gives the step's increment E = (I - h A / 2)^-1 h A and its drive
    Gamma = (I - h A / 2)^-1 h B, run by `_lti_run`.  Readouts out of
    float range raise FloatingPointError.
    """
    n, steps = B.shape[0], len(u)
    rotations = _rotations(A)
    with np.errstate(over="ignore", invalid="ignore"):
        if rotations is None and _is_sparse(A):
            import scipy.sparse.linalg

            lhs = scipy.sparse.identity(n, format="csc") - 0.5 * h * scipy.sparse.csc_array(A)
            solve = scipy.sparse.linalg.splu(lhs).solve
            x, out = np.zeros((n, u.shape[2])), np.zeros((steps + 1, C.shape[0], u.shape[2]))
            for k in range(steps):
                x = 2.0 * solve(x + 0.5 * h * (B @ u[k])) - x
                out[k + 1] = C @ x
        elif rotations is None:
            maps = np.linalg.solve(np.eye(n) - 0.5 * h * A, np.hstack([h * A, h * B]))
            out, x = _lti_run(maps[:, :n], np.zeros(n), maps[:, n:], u, c=C)
        else:
            partner, omega = rotations
            a = 0.5 * h * omega[:, None]
            drive = h / (1.0 + a * a) * (B + a * B[partner])
            theta = 2.0 * np.arctan(a[:, 0])
            out = np.zeros((steps + 1, C.shape[0], u.shape[2]))
            out[1:] = causal_convolve(_rotation_response(partner, theta, drive, C, 1.0, steps), u)
            sums = phasor_sums(theta, 1.0, u[::-1])
            x = np.einsum("sp,spb->sb", drive - 1j * drive[partner], sums).real
    _require_finite(out, h)
    return out, x


def check_lossless(sys, trials: int = 8, seed: int = 0) -> LosslessVerdict:
    """Structural and behavioural losslessness check.

    Structure: A, D and the pair (B, -C), the blocks of [[A, B], [-C, -D]],
    which is skew iff dE/dt = y^T u, must pass construction's `_skew_test`;
    the residual is the largest of the three.  Behaviour: `trials` random
    band-limited inputs drive the system from rest for 2000 steps of h =
    1e-3 by the implicit midpoint rule (`_midpoint_outputs`), which
    conserves quadratic invariants exactly (Hairer, Lubich & Wanner,
    Geometric Numerical Integration, IV.2).  So the ledger |x_N|^2 / 2 -
    h sum_k ybar_k . u_k, ybar_k = C xbar_k + D u_k at the step midpoints,
    is rounding for a lossless system at any h and w_max h, and h sum_k
    xbar_k^T A xbar_k plus the port mismatch otherwise.  Relative to the
    input work h sum_k |ybar_k . u_k| it must be within `_ENERGY_TOL`.
    All trials run as one batch.  A run that leaves float range raises
    FloatingPointError.  Pass trials=0 to run the structural check alone;
    a negative count is rejected.
    """
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    A, B, C, D = _port_matrices(sys)
    residuals, skew = zip(_skew_test(A), _skew_test(D), _skew_test(B, -C))
    worst = float("nan")
    if trials > 0:
        h = _LOSSLESS_DT
        mids = (np.arange(_step_count(_LOSSLESS_HORIZON, h)) + 0.5) * h
        u = np.stack([_smooth_test_input(derive_rng(seed, i), B.shape[1], _LOSSLESS_HORIZON)(mids)
                      for i in range(trials)], axis=-1)  # (steps, p, trials)
        cx, final = _midpoint_outputs(A, B, C, u, h)
        rate = np.sum(u * (0.5 * (cx[1:] + cx[:-1]) + D @ u), axis=1)
        balance = np.abs(0.5 * np.sum(final**2, axis=0) - h * rate.sum(axis=0))
        worst = float(np.max(balance / np.maximum(h * np.abs(rate).sum(axis=0), 1e-300)))
    passed = all(skew) and (trials == 0 or worst <= _ENERGY_TOL)
    return LosslessVerdict(
        skew_residual=max(residuals), energy_residual=worst, trials=trials, passed=passed
    )


def _default_frequencies(omega_scale: float) -> np.ndarray:
    """0 and 200 log-spaced frequencies from 1e-3 to 1e3 times the scale."""
    scale = max(omega_scale, 1e-12)
    grid = scale * np.logspace(-3.0, 3.0, 200)
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


def _kernel_stride(g: Trajectory) -> int:
    """The decimation of `_kernel_transform`'s window sum: every stride-th
    sample, at most 32 769 of them, to keep the transform cost bounded
    (PSD_TOL-grade accuracy survives decimation)."""
    return max(1, (g.n_samples - 1) // 32768)


def _kernel_transform(g: Trajectory, omegas: np.ndarray) -> tuple[np.ndarray, float, str | None]:
    """Windowed transfer function of a sampled kernel, with decay-tail closure.

    Returns (ghat (n_freq, p, p) complex, tail_fraction, warning).  The tail
    beyond the window is closed with an exponential fit to ||g||_F; kernels
    that do not decay over the window are flagged instead of trusted.
    The window sum runs over the uniform t_k = k stride dt by blocked angle
    addition (`phasor_sums`, within about eps w t_k per term of the sum
    phase by phase); the end sample that decimation appends is added
    directly.
    """
    vals = _as_kernel_samples(g.values)
    stride = _kernel_stride(g)
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
    ghat = phasor_sums(-omegas, stride * g.dt, weights[:count, None, None] * vals[::stride])
    if len(t) > count:
        ghat += weights[-1] * vals[-1] * np.exp(-1j * omegas * t[-1])[:, None, None]
    if decay_rate is not None and tail_fraction > 0:
        t_end = g.times[-1]
        tail = vals[-1][None, :, :] * (
            np.exp(-1j * omegas * t_end) / (decay_rate + 1j * omegas)
        )[:, None, None]
        ghat = ghat + tail
    return ghat, tail_fraction, warning


def _dense_resolvent(A, B, C, D, omegas):
    """(ghat, kept): C (jw I - A)^{-1} B + D, one batched solve per stack of
    `CHUNK_ELEMENTS` // n^2 frequencies, skipping the poles on the imaginary
    axis (lossless resonances): jw I - A with a 1-norm condition number
    above 1 / eps, or singular (inf to `np.linalg.cond`)."""
    size = max(1, CHUNK_ELEMENTS // A.size)  # n >= 1: a stateless A is rotation blocks
    ghat, kept = [], []
    for w in np.split(omegas, np.arange(size, len(omegas), size)):
        m = 1j * w[:, None, None] * np.eye(len(A)) - A
        ok = np.linalg.cond(m, 1) * np.finfo(float).eps <= 1
        ghat.append(C @ np.linalg.solve(m[ok], B[None]) + D)  # B[None]: a matrix on numpy 1.x too
        kept.append(w[ok])
    return np.concatenate(ghat), np.concatenate(kept)


def _rotation_resolvent(partner, omega, B, C, D, omegas):
    """`_dense_resolvent` where A is rotation blocks (`_rotations`), in
    closed form: row s of (jw I - A)^{-1} B is (jw b_s + w_s b_r) /
    (w_s^2 - w^2).  The block-diagonal jw I - A has the 1-norm reciprocal
    condition number min_s ||w_s| - |w|| / max_s (|w| + |w_s|), so the
    frequencies skipped are those the dense path skips."""
    w = np.abs(omegas)[:, None]
    gap = np.abs(np.abs(omega) - w).min(axis=1, initial=np.inf)
    size = (w + np.abs(omega)).max(axis=1, initial=0.0)
    kept = omegas[(gap > 0) & (gap >= np.finfo(float).eps * size)]
    inv = 1.0 / (omega**2 - kept[:, None] ** 2)
    direct = (C.T[:, :, None] * B[:, None]).reshape(len(B), D.size)  # row s: c_s (x) b_s
    turned = (C.T[:, :, None] * B[partner][:, None]).reshape(len(B), D.size)  # c_s (x) b_r
    ghat = 1j * kept[:, None] * (inv @ direct) + (inv * omega) @ turned
    return ghat.reshape((len(kept),) + D.shape) + D, kept


def _hamiltonian_crossings(A, B, C, D, level: float) -> np.ndarray:
    """The w where an eigenvalue of ghat(jw) + ghat(jw)^H can cross
    `level`, sorted: |Im lambda| of the eigenvalues with |Re lambda| <=
    1e-8 max(1, |lambda|) of H = [[F, -B R^-1 B^T], [C^T R^-1 C, -F^T]],
    R = D + D^T - `level` I, F = A - B R^-1 C (Boyd, Balakrishnan &
    Kabamba, MCSS 2, 1989), so `level` must not be an eigenvalue of D + D^T.
    The count of eigenvalues below `level` holds between neighbouring
    crossings, so the midpoints between neighbours see every band below it,
    however narrow.  A's imaginary modes appear too; they are poles, which
    the scan skips.
    """
    r = D + D.T - level * np.eye(len(D))
    rb, rc = np.linalg.solve(r, B.T), np.linalg.solve(r, C)
    f = A - B @ rc
    lam = np.linalg.eigvals(np.block([[f, -B @ rb], [C.T @ rc, -f.T]]))
    return np.unique(np.abs(lam[np.abs(lam.real) <= 1e-8 * np.maximum(1.0, np.abs(lam))].imag))


#: `_level_set_frequencies` reads at most this many levels; the test
#: systems and narrow non-passive resonances take 2-5, a passive dip below
#: the limit at w -> inf up to 13.
_LEVEL_STEPS = 50


def _level_set_frequencies(A, B, C, D) -> np.ndarray:
    """The frequencies, poles left out, at which the level-set iteration
    (Boyd & Balakrishnan, SCL 15, 1990; Bruinsma & Steinbuch, SCL 14, 1990)
    reads the global minimum gamma over w of the smallest eigenvalue of
    ghat(jw) + ghat(jw)^H.  Each pass reads w = 0, the crossings of its
    level and the midpoints between them, one in every band below it.
    The first level is -`PSD_TOL`, and the first pass also reads half the
    smallest nonzero |Im lambda(A)| (2 if none), which is no pole.  A later
    level sits 1e-10 relative above gamma, the least reading so far.  Every
    level is capped 1e-8 max(1, |limit|) below the limit lambda_min(D + D^T)
    at w -> inf, so R is invertible and no band runs past the last
    crossing.  It stops when a pass reads nothing below gamma by more than
    1e-10 relative.
    """
    limit = np.linalg.eigvalsh(D + D.T)[0]
    cap = limit - 1e-8 * max(1.0, abs(limit))
    modes = np.abs(np.linalg.eigvals(A).imag)
    spare = [0.5 * modes[modes > 0].min() if (modes > 0).any() else 2.0]
    level, gamma, omegas = min(-PSD_TOL, cap), np.inf, []
    for _ in range(_LEVEL_STEPS):
        w = np.union1d(_hamiltonian_crossings(A, B, C, D, level), 0.0)
        ghat, kept = _dense_resolvent(A, B, C, D, np.union1d(w, np.append(0.5 * (w[1:] + w[:-1]), spare)))
        low = np.linalg.eigvalsh(ghat + np.conj(np.transpose(ghat, (0, 2, 1))))[:, 0].min(initial=np.inf)
        omegas.append(kept)
        tol = 1e-10 * max(1.0, abs(low))
        if not low < gamma - tol:
            break
        gamma, spare, level = low, [], min(low + tol, cap)
    return np.unique(np.concatenate(omegas))


_NO_PORTS = "the system has no ports, so there is no transfer function to scan"


def check_dissipative(obj, frequencies: np.ndarray | None = None) -> DissipativeVerdict:
    """Positive-realness verdict on a transfer function.

    Accepts a state-space system, a sampled kernel Trajectory (windowed
    transform with exponential tail closure), or a bare p x p matrix treated
    as a constant direct term.  At each frequency w it reads the smallest
    eigenvalue of the Hermitian part ghat(jw) + ghat(jw)^H; `min_eigenvalue`
    is the least of them, and the system is declared dissipative when each
    is >= -`PSD_TOL` max(1, max|ghat(jw)|), `PSD_TOL` = 1e-8: rounding in
    the Hermitian part grows with ghat, as next to a pole, but a kernel
    transform's is set by its samples, not by a small ghat at high w.
    `frequencies` holds the w read; a grid the caller passes is read as
    given, and non-finite frequencies are rejected.  Without one:

    * A dense state-space system (A not rotation blocks, densified) is read
      at its global minimum over w by the level-set iteration
      (`_level_set_frequencies`, a few eigenvalue solves of size 2n), and
      at its limit w -> inf, judged as a frequency where ghat = D (not in
      `frequencies`).  Where that limit lambda_min(D + D^T) is the
      infimum, R = D + D^T - gamma I is singular, so the level stays just
      below it, and the verdict rests on the crossings of -`PSD_TOL` and
      the midpoints between them.
    * Rotation blocks are read in closed form (`_rotation_resolvent`,
      O(n p^2) per frequency) at 0 and 200 log-spaced points from 1e-3 to
      1e3 times the largest rotation frequency.
    * A kernel is read on that grid scaled to 20 pi / duration, up to the
      Nyquist frequency pi / (stride dt) of the samples its transform keeps.
    * A direct term is read at w = 0.

    A state-space w whose resolvent jw I - A is singular, or has a 1-norm
    reciprocal condition number below machine epsilon, is a pole on the
    imaginary axis and is skipped on any grid.
    """
    warning = None
    tail_fraction = 0.0
    given = None if frequencies is None else as_float_array(frequencies, "frequencies", ndim=1)
    if isinstance(obj, (LinearStateSpace, LosslessLinear)):
        A, B, C, D = _port_matrices(obj)
        if not len(D):
            raise ValueError(_NO_PORTS)
        rotations = _rotations(A)
        if rotations is not None:
            omega_scale = float(np.abs(rotations[1]).max()) if len(B) else 1.0
            resolvent = functools.partial(_rotation_resolvent, *rotations)
            omegas = _default_frequencies(omega_scale) if given is None else given
        else:
            A = A.toarray() if _is_sparse(A) else A
            resolvent = functools.partial(_dense_resolvent, A)
            omegas = _level_set_frequencies(A, B, C, D) if given is None else given
        ghat, omegas = resolvent(B, C, D, omegas)
        if not len(omegas):
            raise ValueError("transfer function is singular on the whole frequency grid")
        if given is None and rotations is None:  # the limit at w -> inf, where ghat = D
            ghat = np.concatenate([ghat, D[None]])
    elif isinstance(obj, Trajectory):
        omegas = given
        if given is None:  # up to the decimated record's Nyquist frequency
            omegas = _default_frequencies(20.0 * np.pi / max(obj.duration, 1e-12))
            omegas = omegas[omegas <= np.pi / (_kernel_stride(obj) * obj.dt)]
        ghat, tail_fraction, warning = _kernel_transform(obj, omegas)
    else:
        k = _square_gain(obj, "direct term")
        omegas = np.array([0.0]) if given is None else given
        ghat = np.broadcast_to(k.astype(complex), (len(omegas),) + k.shape)
    if not ghat.shape[-1]:
        raise ValueError(_NO_PORTS)
    herm = ghat + np.conjugate(np.transpose(ghat, (0, 2, 1)))
    eigs = np.linalg.eigvalsh(herm)
    scale = np.maximum(1.0, np.abs(ghat).max(axis=(1, 2), initial=0.0))
    return DissipativeVerdict(
        min_eigenvalue=float(eigs.min()),
        frequencies=omegas,
        dissipative=bool(np.all(eigs[:, 0] >= -PSD_TOL * scale)),
        tail_fraction=tail_fraction,
        warning=warning,
    )


def check_reciprocal(g: Trajectory, sigma: SignatureMatrix) -> ReciprocityVerdict:
    """Check g(t) Sigma = Sigma g(t)^T for every sample: reciprocal when the
    max abs residual is within `_RECIPROCITY_TOL` = 1e-8."""
    vals = _as_kernel_samples(g.values)
    s = sigma.matrix
    if s.shape[0] != vals.shape[1]:
        raise ValueError("signature dimension does not match the kernel")
    residual = float(np.abs(vals @ s - s @ np.transpose(vals, (0, 2, 1))).max())
    return ReciprocityVerdict(max_residual=residual, reciprocal=bool(residual <= _RECIPROCITY_TOL))


def check_time_reversible(sys, sigma: SignatureMatrix, u1: Trajectory) -> ReversibilityVerdict:
    """Two-experiment time-reversal test.

    Experiment 1 drives the system from rest with u1 over [0, T].  Experiment
    2 applies u2(t) = -Sigma u1(T - t) and must end at rest at t = T (the
    state runs backwards to where experiment 1 began); the check passes when
    y2(t) = Sigma y1(T - t) within `_REVERSIBILITY_TOL` = 1e-6 at every
    sample.

    The reversed run integrates v' = -A v + B Sigma u1(s) from v(0) = 0, so
    v(s) is experiment 2's state at T - s.  A record with
    `zero_state_response` (a harmonic bank) is convolved matrix-free; any
    other system runs both by `_midpoint_outputs`, driven at the step
    midpoints (rotation blocks as one kernel convolution each).  If an
    involution R has R A R^-1 = -A, R B = B Sigma and C R = Sigma C, the
    midpoint map, a rational function of h A, gives v_k = R x_k step by
    step: the deviation is rounding at any w h.
    """
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
        mids = midpoint_samples(u_fwd)[:, :, None]  # (steps, p, 1)
        y1 = _midpoint_outputs(A, B, C, mids, u1.dt)[0][:, :, 0] + u_fwd @ d_term.T
        v_out = _midpoint_outputs(-A, B, C, s @ mids, u1.dt)[0][:, :, 0]
    deviation = float(np.abs(v_out - u_mirror @ d_term.T - y1 @ s).max())
    return ReversibilityVerdict(max_deviation=deviation, reversible=bool(deviation <= _REVERSIBILITY_TOL))


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
