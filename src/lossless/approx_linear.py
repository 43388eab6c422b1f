"""Lossless realizations of dissipative linear behaviour.

A dissipative convolution kernel can be traded for a bank of undamped
oscillators: on a finite window the kernel has a Fourier expansion, each
(suitably shifted) residue is positive semidefinite, and a PSD residue at
frequency w is exactly the impulse response of a skew block

    J = [[0, wI], [-wI, 0]],   B = [P; -Q],

where the residue factors as (P + jQ)^H (P + jQ).  Summing blocks gives a
lossless system whose response approximates the original kernel, with the
error controlled by the window length and harmonic count.

Two entry points build such banks:

* `memoryless_lossless_approx` spreads a constant gain matrix over
  equal-weight harmonics (the antisymmetric part of the gain is already
  lossless and rides along as a direct term), realized by the same bank
  builder as a kernel's;
* `dissipative_lossless_approx` runs the full synthesis for a sampled
  kernel: window selection from tail mass, Fourier coefficients, PSD
  shift, realization of all harmonics from one stacked eigendecomposition,
  and an L2 error measurement.

Responses of the realizations are computed matrix-free from the series.
The bank's frequencies are k pi / tau, so on a sample grid whose step
divides the window tau the series is a DCT-I/DST-I pair, evaluated by
FFT; other times take blocked angle addition.  Zero-state responses are
the exact convolution of the piecewise-linear interpolant of the input:
closed-form hat-function weights from the same series, applied by FFT
convolution.
A 10^4-state bank on a 10^4-sample grid thus costs a few FFTs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._util import (
    causal_convolve,
    cumulative_trapezoid,
    dct1,
    dst1,
    frozen,
    phasor_sums,
    positive,
    require_square,
    trapezoid,
)
from .statespace import (
    LosslessLinear,
    Trajectory,
    _as_kernel_samples,
    _exponential_tail,
    _port_samples,
    _psd_eigh,
    _rotations,
    _square_gain,
    check_dissipative,
)

__all__ = [
    "MemorylessSystem",
    "HarmonicApprox",
    "FourierLosslessApprox",
    "split_symmetric",
    "factor_psd",
    "memoryless_lossless_approx",
    "memoryless_error_bound",
    "fourier_coefficients",
    "select_tau",
    "dissipative_lossless_approx",
    "realize_harmonic",
    "l2_error",
]

#: Dense/sparse crossover for assembled bank generators.
_DENSE_LIMIT = 2000

#: `factor_psd` keeps the eigenvalues above this fraction of the largest.
_RANK_TOL = 1e-12


def _pair_generator(cos_states, sin_states, omega, size: int):
    """Bank generator with J[cos, sin] = omega and J[sin, cos] = -omega for
    each oscillating pair: dense at or below `_DENSE_LIMIT` states, CSR
    above, which is when the package first imports scipy.sparse."""
    if size <= _DENSE_LIMIT:
        j = np.zeros((size, size))
        j[cos_states, sin_states], j[sin_states, cos_states] = omega, -omega
        return j
    import scipy.sparse

    return scipy.sparse.csr_matrix(
        (np.concatenate([omega, -omega]),
         (np.concatenate([cos_states, sin_states]), np.concatenate([sin_states, cos_states]))),
        shape=(size, size),
    )


def split_symmetric(gain) -> tuple[np.ndarray, np.ndarray]:
    """Split a square gain into symmetric and antisymmetric parts."""
    k = _square_gain(gain)
    return (k + k.T) / 2.0, (k - k.T) / 2.0


def factor_psd(sym) -> np.ndarray:
    """Low-rank factor F (r x p) of a symmetric PSD matrix, F^T F = sym.

    The rank r is the number of eigenvalues above `_RANK_TOL` = 1e-12 times
    the largest one.  Input that is not symmetric, or is indefinite beyond
    `PSD_TOL` = 1e-8 max|entry|, is rejected (`_psd_eigh`); eigenvalues
    negative within that bound are clipped to zero.
    """
    s = _square_gain(sym, "matrix")
    lam, vec = (a[0] for a in _psd_eigh(s[None], "matrix"))
    order = np.argsort(lam)[::-1]
    lam, vec = lam[order], vec[:, order]
    rank = int(np.count_nonzero(lam > _RANK_TOL * (lam[0] if lam.size else 0.0)))
    return (vec[:, :rank] * np.sqrt(lam[:rank])).T


@dataclass(frozen=True)
class MemorylessSystem:
    """Constant gain y = K u split for lossless realization.

    `factor` has r rows with factor^T factor = symmetric_part; r is the
    numerical rank of the dissipative channel.
    """

    gain: np.ndarray
    symmetric_part: np.ndarray
    antisymmetric_part: np.ndarray
    factor: np.ndarray

    def __post_init__(self):
        for name in ("gain", "symmetric_part", "antisymmetric_part", "factor"):
            object.__setattr__(self, name, frozen(np.asarray(getattr(self, name), float)))
        resid = np.abs(self.factor.T @ self.factor - self.symmetric_part).max(initial=0.0)
        if resid > 1e-10 * max(1.0, np.abs(self.symmetric_part).max(initial=0.0)):
            raise ValueError(f"factor does not reproduce the symmetric part ({resid:.3e})")

    @property
    def ports(self) -> int:
        return self.gain.shape[0]

    @property
    def rank(self) -> int:
        return self.factor.shape[0]

    @classmethod
    def from_gain(cls, gain) -> "MemorylessSystem":
        """Split a square gain and factor its symmetric part with `factor_psd`
        (rank cut `_RANK_TOL` = 1e-12 times the largest eigenvalue)."""
        k = _square_gain(gain)
        sym, antisym = split_symmetric(k)
        try:
            fac = factor_psd(sym)
        except ValueError as exc:
            raise ValueError(
                "gain has an active (indefinite) symmetric part; "
                "use the nonlinear energy-supply construction instead"
            ) from exc
        return cls(gain=k, symmetric_part=sym,
                   antisymmetric_part=antisym, factor=fac)


@dataclass(frozen=True)
class _HarmonicSeries:
    """Trigonometric kernel sum_k (C_k cos k w0 t + S_k sin k w0 t), k = 0..N-1.

    `base` is w0 = pi / tau for the window tau.  Entry 0 is the DC term
    (S_0 = 0) with its half weight already folded into C_0.  Shapes:
    cos_part/sin_part (N, q, p).
    """

    base: float
    cos_part: np.ndarray
    sin_part: np.ndarray

    @property
    def omegas(self) -> np.ndarray:
        return self.base * np.arange(len(self.cos_part))

    def transposed(self) -> "_HarmonicSeries":
        return _HarmonicSeries(
            base=self.base,
            cos_part=np.transpose(self.cos_part, (0, 2, 1)),
            sin_part=np.transpose(self.sin_part, (0, 2, 1)),
        )

    def _grid_divisions(self, t: np.ndarray) -> int:
        """W when t is the grid t_j = j tau / W from 0, else 0.

        The grid must match to a few ulps of t, the rounding the off-grid
        sums already make in w t.  It is not used when its length-2W
        transform would be larger than m x N: blocked angle addition takes
        fewer cosines and sines than that, but still m x N complex
        multiply-adds, so the rule compares like with like.
        """
        if t.size < 2 or t[0] != 0.0 or not t[1] > 0.0 or self.base <= 0.0:
            return 0
        tau = np.pi / self.base
        w = int(round(tau / t[1]))
        if w < 1 or 2 * w > t.size * len(self.cos_part):
            return 0
        grid = np.arange(t.size) * (tau / w)
        return w if np.abs(t - grid).max() <= 4 * np.finfo(float).eps * t[-1] else 0

    def evaluate(self, times) -> np.ndarray:
        """Kernel samples at the given times, shape (m, q, p).

        On a uniform grid t_j = j h from 0 whose step divides the window,
        tau = W h, harmonic k at t_j is exp(i pi k j / W): the samples over
        the full period 2 tau are the DCT-I (cosine) and DST-I (sine)
        transforms of the coefficients with their even and odd extensions,
        here one length-2W FFT of C_k + i S_k.  Harmonics past 2W fold onto
        k mod 2W and times past 2 tau wrap, both exactly.

        Other times sum Re sum_k (C_k - i S_k) e^{i k w0 t} by blocked angle
        addition (`phasor_sums`), within about 2 eps w0 |t| sum_k k (|C_k| +
        |S_k|) plus N eps sum_k (|C_k| + |S_k|) of the term-by-term sum.
        """
        t = np.asarray(times, float).ravel()
        n = len(self.cos_part)
        w = self._grid_divisions(t)
        if w:
            coef = np.zeros((2 * w,) + self.cos_part.shape[1:], complex)
            np.add.at(coef, np.arange(n) % (2 * w), self.cos_part + 1j * self.sin_part)
            return np.fft.fft(coef, axis=0).real[np.arange(t.size) % (2 * w)]
        return phasor_sums(t, self.base, self.cos_part - 1j * self.sin_part).real

    def convolve(self, u_vals: np.ndarray, dt: float, reverse: bool = False) -> np.ndarray:
        """Zero-state response: the kernel convolved with u on a uniform grid.

        The input is the piecewise-linear interpolant of its samples and the
        result is its exact convolution with the kernel, y_i = sum_j w_ij u_j,
        with the hat-function weights in closed form.  A full hat gives the
        Toeplitz weight F(i - j): the series with each harmonic scaled by the
        hat's transform dt sinc^2(w dt / 2), sampled through `evaluate` (so
        by FFT when the window is on the grid) and applied as one FFT
        convolution.  The half hats at j = 0 and j = i are then corrected
        exactly.  No time-step stability limit enters however large the top
        frequency is.
        """
        series = self.transposed() if reverse else self
        u = _port_samples(u_vals, series.cos_part.shape[2], owner="the kernel")
        m = u.shape[0]
        c, s = series.cos_part, series.sin_part
        q = c.shape[1]
        if len(c) == 0 or m < 2:
            return np.zeros((m, q))
        a = series.omegas * dt
        hat = (dt * np.sinc(a / (2.0 * np.pi)) ** 2)[:, None, None]
        half = (dt * _half_hat_sine(a))[:, None, None]
        # F(i) in the first q rows; in the last q, X(i) = sum_k chi_k (C_k sin
        # - S_k cos)(w_k t_i), which turns F into the right half hat at j = 0.
        weights = _HarmonicSeries(
            base=series.base,
            cos_part=np.concatenate([hat * c, -half * s], axis=1),
            sin_part=np.concatenate([hat * s, half * c], axis=1),
        ).evaluate(np.arange(m) * dt)
        full, odd = weights[:, :q], weights[:, q:]
        y = causal_convolve(full, u)
        # The hat at j = i is its left half only, the same weight for every i.
        left = (hat * c / 2.0 + half * s).sum(axis=0)
        y += u @ (left - full[0]).T
        y += (odd - full / 2.0) @ u[0]
        y[0] = 0.0
        return y


def _half_hat_sine(a: np.ndarray) -> np.ndarray:
    """(a - sin a) / a^2, the integral of sin(a x)(1 - x) over [0, 1].

    Below a = 1 the closed form cancels (relative error ~6 eps / a^2), so
    its Taylor series is summed there instead; nine terms reach eps.
    """
    a = np.asarray(a, float)
    small = np.abs(a) < 1.0
    x = np.where(small, 1.0, a)
    series = np.zeros_like(a)
    for k in range(9, 0, -1):
        series = series * a * a + (-1.0) ** (k + 1) / math.factorial(2 * k + 1)
    return np.where(small, a * series, (x - np.sin(x)) / (x * x))


def realize_harmonic(residue, frequency: float) -> LosslessLinear:
    """Skew oscillator block whose impulse response is one kernel harmonic.

    For a Hermitian PSD residue R = (P + jQ)^H (P + jQ) and frequency w > 0
    the block below satisfies B^T e^{Jt} B = Re(R) cos wt - Im(R) sin wt;
    at w = 0 the block is static with B^T B = R/2 (the half-weight DC term
    of a cosine series).  Eigenvalues of R negative within `PSD_TOL` = 1e-8
    max|R| are clipped to zero; anything lower is rejected.  The block is
    the `system` of the one-residue bank of `_realize_bank` (R its DC
    residue at w = 0, its one harmonic at w > 0), so it equals that
    residue's states of any bank holding it.
    """
    r = np.asarray(residue)
    require_square(r, "residue")
    if frequency < 0:
        raise ValueError(f"frequency must be nonnegative, got {frequency}")
    if frequency == 0:
        return _realize_bank(r, np.zeros((0,) + r.shape), 0.0)[0]
    return _realize_bank(np.zeros(r.shape), r[None], float(frequency))[0]


def _realize_bank(dc_residue: np.ndarray, residues: np.ndarray, base: float, direct=None):
    """Assembled system and effective (cos, sin) kernel of a bank.

    `dc_residue` (p, p) is the real DC residue and `residues` (N - 1, p, p)
    the Hermitian residues of harmonics k = 1..N-1 at k * base; `direct`
    (p, p, skew) is the system's direct term D, none by default.  The DC
    residue gives a static block with B^T B = R/2, the harmonics are
    factored by one stacked eigh, and every residue keeps the eigenvalues
    above 1e-14 times its largest (after clipping within `PSD_TOL`).  The
    generator, input map and effective coefficients come from the factors.
    The system holds the DC block's states, then each harmonic's kept
    cosine states and its kept sine states; no per-harmonic block is built
    here (`FourierLosslessApprox.blocks` makes them on first read).
    """
    lam, vec = _psd_eigh(dc_residue[None], "residue")
    keep = lam[0] > 1e-14 * lam[0, -1:]
    lam, vec = lam[0][keep], vec[0][:, keep]
    half = (vec * np.sqrt(lam / 2.0)).conj().T
    if np.abs(half.imag).max(initial=0.0) > 1e-12:
        raise ValueError("a zero-frequency residue must be real symmetric")
    b_dc = half.real.reshape(lam.size, dc_residue.shape[0])

    lam, vec = _psd_eigh(residues, "residue")
    lam[lam <= lam[:, -1:] * 1e-14] = 0.0  # rank cut: lam > 0 marks the kept eigenpairs
    w = np.swapaxes((vec * np.sqrt(lam)[:, None, :]).conj(), 1, 2)  # row i: eigenpair i
    keep = lam > 0
    freqs = base * np.arange(1, len(residues) + 1)

    p_part, q_part = w.real, w.imag
    p_t, q_t = np.swapaxes(p_part, 1, 2), np.swapaxes(q_part, 1, 2)
    eff_cos = np.concatenate([(b_dc.T @ b_dc)[None], p_t @ p_part + q_t @ q_part])
    eff_sin = np.concatenate([np.zeros((1,) + dc_residue.shape), q_t @ p_part - p_t @ q_part])

    # The i-th cosine state of a block pairs with its i-th sine state.
    halves = np.stack([p_part, -q_part], axis=1)
    in_block = np.broadcast_to(keep[:, None, :], halves.shape[:3])
    b_all = np.vstack([b_dc, halves[in_block]])
    state = np.zeros(in_block.shape, dtype=int)
    state[in_block] = len(b_dc) + np.arange(np.count_nonzero(in_block))
    rows, cols = state[:, 0][keep], state[:, 1][keep]
    omega = np.broadcast_to(freqs[:, None], keep.shape)[keep]
    system = LosslessLinear(J=_pair_generator(rows, cols, omega, b_all.shape[0]), B=b_all, D=direct)
    return system, eff_cos, eff_sin


class _HarmonicResponseMixin:
    """Matrix-free response evaluation shared by the two bank records: the
    series they play is `effective_cos`/`effective_sin` at base pi/horizon,
    and the direct term is the system's D."""

    @property
    def direct_term(self) -> np.ndarray:
        return self.system.D

    def kernel(self, times) -> np.ndarray:
        """Impulse-response samples of the realization (direct term excluded)."""
        return self._series().evaluate(np.asarray(times, float))

    def zero_state_response(self, u_vals, dt: float, reverse: bool = False) -> np.ndarray:
        """Convolution part of the response; `reverse` uses the transposed
        kernel, which is the response of the sign-flipped generator."""
        return self._series().convolve(u_vals, dt, reverse=reverse)

    def respond(self, u: Trajectory) -> Trajectory:
        """Full port response to a sampled input, direct term included."""
        vals = _port_samples(u)  # the kernel checks its channel count
        y = self.zero_state_response(vals, u.dt) + vals @ self.direct_term.T
        return Trajectory(dt=u.dt, values=y.reshape(u.values.shape))

    def _series(self, count=None) -> _HarmonicSeries:
        """The played series, or its first `count` harmonics."""
        return _HarmonicSeries(base=np.pi / self.horizon, cos_part=self.effective_cos[:count],
                               sin_part=self.effective_sin[:count])


@dataclass(frozen=True)
class HarmonicApprox(_HarmonicResponseMixin):
    """Equal-weight harmonic bank realizing a memoryless dissipative gain.

    The realized impulse response is

        K_s/horizon + sum_{l=1}^{count-1} (2 K_s/horizon) cos(l w0 t),

    w0 = pi/horizon (`base_frequency`), which acts like the gain K_s on
    inputs that vary slowly against the window.  The antisymmetric gain
    part is the direct term of `system`.  `effective_cos`/`effective_sin`
    are the series the bank actually plays back, as in
    `FourierLosslessApprox` (DC entry at half weight; the sine part is 0).
    """

    horizon: float
    n_harmonics: int
    memoryless: MemorylessSystem
    system: LosslessLinear
    effective_cos: np.ndarray
    effective_sin: np.ndarray

    def __post_init__(self):
        for name in ("effective_cos", "effective_sin"):
            object.__setattr__(self, name, frozen(np.asarray(getattr(self, name), float)))

    @property
    def base_frequency(self) -> float:
        return np.pi / self.horizon


def memoryless_lossless_approx(gain, horizon: float, n_harmonics: int) -> HarmonicApprox:
    """Lossless oscillator bank approximating the memoryless map y = gain u.

    `_realize_bank` builds it as a kernel's bank, with the residue
    (2/horizon) K_s at DC and at each harmonic k pi / horizon, k = 1..n-1,
    and the antisymmetric gain part as direct term.  State layout: the DC
    block (r states, r the residue's rank), then each harmonic's r cosine
    and r sine states, for (2 n_harmonics - 1) r states in total.
    """
    positive(horizon, "horizon")
    if n_harmonics < 2:
        raise ValueError(f"need at least 2 harmonics, got {n_harmonics}")
    ms = MemorylessSystem.from_gain(gain)
    residue = (2.0 / horizon) * ms.symmetric_part
    system, eff_cos, eff_sin = _realize_bank(
        residue, np.broadcast_to(residue, (n_harmonics - 1,) + residue.shape), np.pi / horizon,
        direct=ms.antisymmetric_part)
    return HarmonicApprox(
        horizon=float(horizon),
        n_harmonics=int(n_harmonics),
        memoryless=ms,
        system=system,
        effective_cos=eff_cos,
        effective_sin=eff_sin,
    )


def memoryless_error_bound(symmetric_gain, horizon: float, n_harmonics: int,
                           u: Trajectory) -> Trajectory:
    """Pointwise bound on |y - y_bank| for a harmonic-bank approximation.

    bound(t) = (2 s_max horizon / (pi^2 (n-1))) (|u'(t)| + |u'(0)| +
    integral of |u''| up to t), valid for twice-differentiable inputs with
    u(0) = 0; s_max is the largest singular value of the symmetric gain.
    Derivatives are taken by second-order finite differences on the grid.
    """
    positive(horizon, "horizon")
    if n_harmonics < 2:
        raise ValueError(f"need at least 2 harmonics, got {n_harmonics}")
    sym = _square_gain(symmetric_gain, "symmetric gain")
    vals = _port_samples(u, sym.shape[0], owner="the gain")
    peak = np.abs(vals).max(initial=0.0)
    if np.abs(vals[0]).max(initial=0.0) > 1e-12 * max(1.0, peak):
        raise ValueError("the bound requires an input starting at zero, u(0) = 0")
    s_max = float(np.linalg.norm(sym, 2))
    du = np.gradient(vals, u.dt, axis=0)
    ddu = np.gradient(du, u.dt, axis=0)
    dn = np.linalg.norm(du, axis=1)
    curvature_mass = cumulative_trapezoid(np.linalg.norm(ddu, axis=1), u.dt)
    factor = 2.0 * s_max * horizon / (np.pi**2 * (n_harmonics - 1))
    return Trajectory(dt=u.dt, values=factor * (dn + dn[0] + curvature_mass))


def fourier_coefficients(g: Trajectory, n_harmonics: int) -> tuple[np.ndarray, np.ndarray]:
    """Cosine/sine coefficients of a kernel on its own window [0, T].

    cos_k = (1/T) integral of (g + g^T) cos(k pi t / T),  k = 0..n-1,
    sin_k = (1/T) integral of (g - g^T) sin(k pi t / T),  k = 1..n-1,

    by the trapezoid rule on the sample grid, evaluated through type-I
    cosine/sine transforms (identical sums, one FFT instead of n passes).
    Symmetry of cos_k and antisymmetry of sin_k hold by construction.
    """
    vals = _as_kernel_samples(g.values)
    intervals = vals.shape[0] - 1
    if intervals < 2:
        raise ValueError("kernel needs at least 3 samples")
    if not 1 <= n_harmonics <= intervals:
        raise ValueError(
            f"harmonic count must lie in [1, {intervals}] for this grid, got {n_harmonics}"
        )
    sym = vals + np.transpose(vals, (0, 2, 1))
    antisym = vals - np.transpose(vals, (0, 2, 1))
    cos_coef = dct1(sym)[:n_harmonics] / (2.0 * intervals)
    sin_coef = dst1(antisym[1:intervals])[: n_harmonics - 1] / (2.0 * intervals)
    return cos_coef, sin_coef


def _spectral_norms(vals: np.ndarray) -> np.ndarray:
    if vals.shape[1] == 1:
        return np.abs(vals[:, 0, 0])
    return np.linalg.norm(vals, ord=2, axis=(1, 2))


def _kernel_mass(vals: np.ndarray, times: np.ndarray,
                 tail: Callable[[float], float] | None) -> tuple[np.ndarray, np.ndarray, float]:
    """Spectral norms of kernel samples, their running mass, and the mass past the window.

    The mass beyond the last sample comes from `tail` (a callable mapping t
    to the exact remaining mass) or, failing that, from an exponential fit
    to the sampled decay.
    """
    norms = _spectral_norms(vals)
    if tail is not None:
        beyond = float(tail(float(times[-1])))
    else:
        rate = _exponential_tail(norms, times)
        if rate is None:
            raise ValueError(
                "kernel tail is not estimable from the samples (no decay fit); "
                "supply an analytic tail-mass callable"
            )
        beyond = float(norms[-1] / rate)
    return norms, cumulative_trapezoid(norms, np.diff(times)), beyond


def select_tau(g: Trajectory, target_error: float, min_horizon: float,
               error_constant: float,
               tail: Callable[[float], float] | None = None) -> float:
    """Smallest grid time with acceptable kernel tail mass.

    Returns the first sample time tau >= min_horizon such that the remaining
    mass integral of ||g(t)|| over [tau, inf) is at most
    target_error^2 / (2 error_constant sqrt(p)).  Mass beyond the sample
    window comes from `tail` (a callable mapping t to the exact remaining
    mass) or, failing that, from an exponential fit to the sampled decay.
    """
    if target_error <= 0:
        raise ValueError(f"target error must be positive, got {target_error}")
    vals = _as_kernel_samples(g.values)
    mass = _kernel_mass(vals, g.times, tail) if error_constant > 0 else None
    return _select_tau(g.times, vals.shape[1], mass, target_error, min_horizon, error_constant)


def _select_tau(times, ports, mass, target_error, min_horizon, error_constant) -> float:
    """`select_tau` on the (norms, running mass, mass beyond) of `_kernel_mass`."""
    if min_horizon > times[-1] + 1e-12:
        raise ValueError(
            f"sample window ends at {times[-1]:.6g}, before the minimum horizon {min_horizon:.6g}"
        )
    start = int(np.searchsorted(times, min_horizon - 1e-12))
    if error_constant <= 0:
        return float(times[start])
    threshold = target_error**2 / (2.0 * error_constant * np.sqrt(ports))
    _, running, beyond = mass
    remaining = (running[-1] - running) + beyond
    hits = np.nonzero(remaining[start:] <= threshold)[0]
    if hits.size == 0:
        raise ValueError(
            f"tail mass {remaining[-1]:.6e} at the window end exceeds the "
            f"required {threshold:.6e}; extend the sample window"
        )
    return float(times[start + hits[0]])


@dataclass(frozen=True)
class FourierLosslessApprox(_HarmonicResponseMixin):
    """Windowed-Fourier lossless realization of a dissipative kernel.

    `cos_coefficients`/`sin_coefficients` are the raw window coefficients;
    the realization adds `shift` to every cosine coefficient (the PSD
    guarantee) and may clip residue eigenvalues at zero, so the kernel the
    bank actually plays back is recorded in `effective_cos`/`effective_sin`
    (DC entry stored at half weight).  `system` is the bank, the one
    realization a build stores.  `window` holds the kernel samples on
    [0, min_horizon] as an (m, p, p) stack, over which `l2_error_measured`
    is the realized-vs-input kernel error.  `blocks` and `n_empirical` are
    computed on first read (see each).
    """

    horizon: float
    n_harmonics: int
    shift: float
    target_error: float
    cos_coefficients: np.ndarray
    sin_coefficients: np.ndarray
    peak_gain: float
    derivative_mass: float
    kernel_mass: float
    error_constant: float
    tail_mass: float
    system: LosslessLinear
    effective_cos: np.ndarray
    effective_sin: np.ndarray
    window: Trajectory
    l2_error_measured: float

    def __post_init__(self):
        for name in ("cos_coefficients", "sin_coefficients", "effective_cos", "effective_sin"):
            object.__setattr__(self, name, frozen(np.asarray(getattr(self, name), float)))

    @property
    def ports(self) -> int:
        return self.system.p

    @functools.cached_property
    def blocks(self) -> tuple[LosslessLinear, ...]:
        """Per-harmonic blocks in frequency order, cut out of `system` on first read: block k
        is the range of states `_rotations` finds turning at k pi / horizon (block 0: at
        rest), so it is `realize_harmonic` of its shifted residue, bit for bit."""
        partner, omega = _rotations(self.system.J)
        edges = np.searchsorted(np.rint(np.abs(omega) * (self.horizon / np.pi)),
                                np.arange(self.n_harmonics + 1))
        blocks = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            cos = lo + np.flatnonzero(omega[lo:hi] > 0)
            j = _pair_generator(cos - lo, partner[cos] - lo, omega[cos], hi - lo)
            blocks.append(LosslessLinear(J=j, B=self.system.B[lo:hi]))
        return tuple(blocks)

    @functools.cached_property
    def n_empirical(self) -> int | None:
        """The smallest harmonic count whose partial bank already meets
        `target_error` over `window` (None when even the full bank does
        not, 0 for the empty bank), found by bisection on first read."""
        if self.l2_error_measured > self.target_error:
            return None
        lo, hi = min(1, self.n_harmonics), self.n_harmonics
        while lo < hi:
            mid = (lo + hi) // 2
            if _window_l2(self._series(mid), self.window) <= self.target_error:
                hi = mid
            else:
                lo = mid + 1
        return lo


def l2_error(a: Trajectory, b: Trajectory) -> float:
    """Frobenius L2 distance between two sampled kernels over their common window."""
    if abs(a.dt - b.dt) > 1e-15:
        raise ValueError("kernels must share the sample step")
    va, vb = _as_kernel_samples(a.values), _as_kernel_samples(b.values)
    if va.shape[1:] != vb.shape[1:]:
        raise ValueError(f"kernel shapes differ: {va.shape[1:]} vs {vb.shape[1:]}")
    m = min(va.shape[0], vb.shape[0])
    diff = va[:m] - vb[:m]
    sq = np.sum(diff * diff, axis=(1, 2))
    return float(np.sqrt(trapezoid(sq, a.dt)))


def _window_l2(series: _HarmonicSeries, window: Trajectory) -> float:
    """L2 distance of the series from the kernel samples of `window`."""
    times = window.times
    diff = series.evaluate(times) - window.values
    sq = np.sum(diff * diff, axis=(1, 2))
    return float(np.sqrt(trapezoid(sq, np.diff(times))))


#: The most states a `dissipative_lossless_approx` bank may need.
_STATE_BUDGET = 20000


def dissipative_lossless_approx(
    g: Trajectory,
    target_error: float,
    min_horizon: float,
    tail: Callable[[float], float] | None = None,
) -> FourierLosslessApprox:
    """Synthesize a lossless bank within a target L2 error of a kernel.

    The pipeline: verify the kernel is dissipative (a non-dissipative
    kernel admits no lossless realization and is refused); bound the
    kernel's size, slope mass, and tail; choose the window from the tail
    mass and the harmonic count from the window; compute windowed Fourier
    coefficients; shift them into PSD territory; realize the bank from one
    stacked factorization of the residues (eigenvalues clipped within
    `PSD_TOL`); and measure the realized kernel against the input samples
    over [0, min_horizon], one evaluation of the series.  The record's
    `blocks` and `n_empirical` are left to their first read.

    Raises when the kernel is not dissipative, when its tail cannot be
    bounded, when the sample window is shorter than the selected horizon,
    or when the required bank would exceed `_STATE_BUDGET` states.
    """
    if target_error <= 0:
        raise ValueError(f"target error must be positive, got {target_error}")
    if min_horizon <= 0:
        raise ValueError(f"minimum horizon must be positive, got {min_horizon}")
    vals = _as_kernel_samples(g.values)
    ports = vals.shape[1]
    times = g.times
    measure_end = min(int(round(min_horizon / g.dt)), vals.shape[0] - 1)
    measured_window = Trajectory(dt=g.dt, values=vals[: measure_end + 1])

    if not vals.any():
        empty = LosslessLinear(J=np.zeros((0, 0)), B=np.zeros((0, ports)))
        shape = (0, ports, ports)
        return FourierLosslessApprox(
            horizon=float(min_horizon), n_harmonics=0, shift=0.0,
            target_error=float(target_error),
            cos_coefficients=np.zeros(shape), sin_coefficients=np.zeros(shape),
            peak_gain=0.0, derivative_mass=0.0, kernel_mass=0.0,
            error_constant=0.0, tail_mass=0.0, system=empty,
            effective_cos=np.zeros(shape), effective_sin=np.zeros(shape),
            window=measured_window, l2_error_measured=0.0,
        )

    verdict = check_dissipative(g)
    if not verdict.dissipative:
        raise ValueError(
            "kernel fails the positive-realness scan (minimum Hermitian-part "
            f"eigenvalue {verdict.min_eigenvalue:.6e}); no lossless realization exists"
        )

    mass = _kernel_mass(vals, times, tail)
    norms, running, beyond_mass = mass
    slope_norms = _spectral_norms(np.gradient(vals, g.dt, axis=0))
    peak_gain = float(norms.max())
    widths = np.diff(times)
    derivative_mass = float(trapezoid(slope_norms, widths) + norms[-1])
    kernel_mass = float(trapezoid(norms, widths) + beyond_mass)
    error_constant = (4.0 * peak_gain + 2.0 * derivative_mass) / np.pi \
        + 4.0 * kernel_mass / min_horizon

    horizon = _select_tau(times, ports, mass, target_error, min_horizon, error_constant)
    n_harmonics = max(1, int(np.floor(horizon * error_constant**2 / target_error**2)))
    worst_dim = ports * (2 * n_harmonics - 1)
    if worst_dim > _STATE_BUDGET:
        raise ValueError(
            f"required harmonic count {n_harmonics} needs up to {worst_dim} states, "
            f"over the budget of {_STATE_BUDGET}; raise the target error"
        )
    window_idx = int(round(horizon / g.dt))
    n_harmonics = min(n_harmonics, window_idx)
    cos_coef, sin_coef = fourier_coefficients(
        Trajectory(dt=g.dt, values=vals[: window_idx + 1]), n_harmonics)
    shift = target_error**2 / (horizon * error_constant * np.sqrt(ports))

    base = np.pi / horizon
    shifted = cos_coef + shift * np.eye(ports)
    system, eff_cos, eff_sin = _realize_bank(shifted[0], shifted[1:] - 1j * sin_coef, base)

    tail_mass = float((running[-1] - np.interp(horizon, times, running)) + beyond_mass)

    return FourierLosslessApprox(
        horizon=float(horizon),
        n_harmonics=int(n_harmonics),
        shift=float(shift),
        target_error=float(target_error),
        cos_coefficients=cos_coef,
        sin_coefficients=sin_coef,
        peak_gain=peak_gain,
        derivative_mass=derivative_mass,
        kernel_mass=kernel_mass,
        error_constant=float(error_constant),
        tail_mass=tail_mass,
        system=system,
        effective_cos=eff_cos,
        effective_sin=eff_sin,
        window=measured_window,
        l2_error_measured=_window_l2(_HarmonicSeries(base, eff_cos, eff_sin), measured_window),
    )
