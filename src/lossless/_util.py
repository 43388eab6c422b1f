"""Internal helpers: seeded RNG streams, chunked Monte-Carlo, grid utilities,
FFT lengths and transforms, quadrature rules, the matrix exponential, and
the "%.17g" text of float64 arrays.

Nothing in here is part of the public API.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

#: Trials per Monte-Carlo chunk.  Fixed because the chunks own the random
#: streams: chunk i always consumes the substream derived from
#: (seed, *tags, i), so changing the size would change every result.
CHUNK_TRIALS = 1024

#: Elements per temporary in the rotation sums of `angle_phasors` (those of
#: `phasor_sums`, which evaluate the off-grid harmonic series, the kernel
#: transform of `check_dissipative` and a midpoint run's final state, and
#: the rotation-block kernels of impulse responses and midpoint runs, each
#: within a few eps w t per term of the sum phase by phase), in their
#: anchor-block products and in `check_dissipative`'s dense resolvent: 4 MB
#: of float64.  They set the 6-8 MiB peak of a 2000-step midpoint run on a
#: 2199- or 9245-state bank.
CHUNK_ELEMENTS = 500_000


def angle_blocks(count: int) -> tuple[int, int]:
    """(L, blocks) with k = a L + l for k < count, l < L ~ sqrt(count), a < blocks."""
    inner = 1 << (count.bit_length() // 2)
    return inner, -(-count // inner)


def angle_phasors(x, step: float, count: int, extra: int = 0):
    """The factors of e^{i x k step} = inner[l] anchor[a], k = a L + l < count.

    Yields (rows, inner, anchor) for chunks x[rows]: inner[r, l] = e^{i x l step}
    and anchor[r, a] = e^{i x a L step}, each from its own phase, so rounding
    does not grow along k.  A chunk's two tables and the `extra` complex
    numbers per x that the caller forms fit in `CHUNK_ELEMENTS` floats.
    """
    inner, blocks = angle_blocks(count)
    omegas = step * np.concatenate([np.arange(inner), np.arange(0, blocks * inner, inner)])
    size = max(1, CHUNK_ELEMENTS // (2 * (inner + blocks + extra)))
    for lo in range(0, x.size, size):
        phase = x[lo : lo + size, None] * omegas
        table = np.empty(phase.shape, complex)
        np.cos(phase, out=table.real)
        np.sin(phase, out=table.imag)
        yield slice(lo, lo + len(table)), table[:, :inner], table[:, inner:]


def phasor_sums(x, step: float, coef: np.ndarray) -> np.ndarray:
    """sum_k coef[k] e^{i x k step} for each x, shape (len(x),) + coef.shape[1:].

    Blocked angle addition (`angle_phasors`): len(x) (L + count / L) cosines
    and sines instead of len(x) count, one product of the inner table
    (m, L) with the blocked coefficients (L, blocks x entries), and an
    anchor-weighted sum over the blocks.  Against the term-by-term sum the
    result moves by about 2 eps |x| step sum_k k |coef_k|, from rounding the
    phase in two parts, plus count eps sum_k |coef_k| from the sums.  An
    empty stack, or one of empty coefficients, gives zeros.
    """
    count, shape = len(coef), coef.shape[1:]
    out = np.zeros((x.size,) + shape, complex)
    if not coef.size:
        return out
    inner, blocks = angle_blocks(count)
    blocked = np.zeros((blocks * inner, math.prod(shape)), complex)
    blocked[:count] = coef.reshape(count, -1)
    # row l, column (a, e): entry e of coefficient a L + l
    blocked = blocked.reshape(blocks, inner, -1).transpose(1, 0, 2).reshape(inner, -1)
    for rows, phasors, anchors in angle_phasors(x, step, count, extra=blocked.shape[1]):
        sums = (phasors @ blocked).reshape(len(phasors), blocks, -1)
        out[rows] = np.einsum("ib,ibx->ix", anchors, sums).reshape((-1,) + shape)
    return out


def derive_rng(seed: int, *indices: int) -> np.random.Generator:
    """Counter-based generator for the substream keyed by (seed, *indices).

    Philox under a SeedSequence gives independent streams for distinct keys,
    so each chunk's draws depend only on its key.
    """
    key = (int(seed),) + tuple(int(i) for i in indices)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def chunk_sizes(total: int) -> list[int]:
    """Split `total` trials into chunks of `CHUNK_TRIALS` (last one ragged)."""
    if total < 0:
        raise ValueError(f"trial count must be nonnegative, got {total}")
    full, rem = divmod(total, CHUNK_TRIALS)
    return [CHUNK_TRIALS] * full + ([rem] if rem else [])


def run_chunked(
    total: int,
    worker: Callable[[np.random.Generator, int], object],
    seed: int,
) -> list:
    """Run `worker(rng, count)` over fixed-size trial chunks, in order.

    Each chunk gets the substream (seed, chunk_index) and runs in the
    calling thread; the returned list is in chunk order.
    """
    return [worker(derive_rng(seed, i), n) for i, n in enumerate(chunk_sizes(total))]


def as_float_array(x, name: str, *, ndim: int | None = None) -> np.ndarray:
    """Coerce to a float64 ndarray and validate finiteness (and rank)."""
    a = np.asarray(x, dtype=float)
    if ndim is not None and a.ndim != ndim:
        raise ValueError(f"{name} must have ndim={ndim}, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def positive(value, name: str, *, or_zero: bool = False) -> float:
    """`value` as a float; raises ValueError unless finite and > 0 (>= 0 with `or_zero`)."""
    v = float(value)
    if not (np.isfinite(v) and (v >= 0 if or_zero else v > 0)):
        raise ValueError(f"{name} must be {'nonnegative' if or_zero else 'positive'}, got {v}")
    return v


def frozen(a: np.ndarray) -> np.ndarray:
    """Return a read-only copy, so a frozen record's arrays cannot change under it."""
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def require_square(a: np.ndarray, name: str) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")


def fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, a length the FFT splits into radix 2-5 passes."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def causal_convolve(kernel: np.ndarray, u: np.ndarray) -> np.ndarray:
    """y[k] = sum_{j <= k} kernel[k - j] u[j] for k < m, by one FFT product.

    `kernel` is (m, q, p) and `u` (m, p, ...), time first; y is
    (m, q, ...).  Both are zero-padded to the `fast_len` of 2m - 1, so
    the circular product wraps nothing onto the first m samples.
    """
    size = fast_len(2 * len(u) - 1)
    spectrum = np.einsum("fqp,fp...->fq...", np.fft.rfft(kernel, size, axis=0),
                         np.fft.rfft(u, size, axis=0))
    return np.fft.irfft(spectrum, size, axis=0)[: len(u)]


def dct1(x: np.ndarray) -> np.ndarray:
    """Type-I DCT along axis 0: the real rfft of the even extension x_0 .. x_{N-1} .. x_1.

    y_k = x_0 + (-1)^k x_{N-1} + 2 sum_{0<j<N-1} x_j cos(pi j k / (N - 1)),
    the transform as scipy.fft.dct(x, type=1) defines it (Makhoul, 1980).
    """
    return np.fft.rfft(np.concatenate([x, x[-2:0:-1]]), axis=0).real


def dst1(x: np.ndarray) -> np.ndarray:
    """Type-I DST along axis 0: minus the imaginary rfft of 0, x, 0, -x reversed.

    y_k = 2 sum_j x_j sin(pi (j + 1)(k + 1) / (N + 1)), as scipy.fft.dst(x, type=1).
    """
    zero = np.zeros_like(x[:1])
    return -np.fft.rfft(np.concatenate([zero, x, zero, -x[::-1]]), axis=0).imag[1:-1]


def trapezoid(y: np.ndarray, dx) -> np.ndarray:
    """Trapezoid rule along axis 0; `dx` is the step or the array of interval widths."""
    return np.sum(dx * (y[1:] + y[:-1]) / 2.0, axis=0)


def cumulative_trapezoid(y: np.ndarray, dx) -> np.ndarray:
    """Running trapezoid integral along axis 0, from 0 at the first sample."""
    running = np.cumsum(dx * (y[1:] + y[:-1]) / 2.0, axis=0)
    return np.concatenate([np.zeros((1,) + running.shape[1:]), running])


def simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """Composite Simpson's rule along axis 0 on a uniform grid of step dx.

    An odd sample count takes the weights 1, 4, 2, 4, ..., 4, 1 times dx/3.
    An even count takes them on all but the last interval, which adds
    5 dx/12, 2 dx/3 and -dx/12 times its last three samples (Cartwright
    2017, the rule of scipy.integrate.simpson from scipy 1.11; older scipy
    averaged two trapezoid-ended rules), so the result no longer depends on
    the installed scipy.  Two samples take the trapezoid rule.
    """
    n = len(y)
    if n < 3:
        return 0.5 * dx * np.sum(y[1:] + y[:-1], axis=0)
    m = n - 1 + n % 2
    total = np.sum(y[: m - 2 : 2] + 4.0 * y[1 : m - 1 : 2] + y[2:m:2], axis=0) * (dx / 3.0)
    if m < n:
        total += (5.0 * dx / 12.0) * y[-1] + (2.0 * dx / 3.0) * y[-2] - (dx / 12.0) * y[-3]
    return total


def midpoint_samples(values: np.ndarray) -> np.ndarray:
    """Cubic estimates of u(t_k + dt/2) from uniform samples u(t_k).

    Interior midpoints use the 4-point stencil (-1, 9, 9, -1)/16; the first
    and last intervals use the one-sided cubic through the nearest 4 samples.
    Falls back to linear averaging when fewer than 4 samples exist.  Keeps
    RK4 driven by sampled inputs at full order for smooth signals.
    """
    v = np.asarray(values, dtype=float)
    m = v.shape[0]
    if m < 2:
        raise ValueError("need at least two samples to form midpoints")
    if m < 4:
        return 0.5 * (v[:-1] + v[1:])
    mid = np.empty((m - 1,) + v.shape[1:], dtype=float)
    mid[1:-1] = (-v[:-3] + 9.0 * v[1:-2] + 9.0 * v[2:-1] - v[3:]) / 16.0
    # Lagrange weights at t = 0.5 and t = m-1.5 on the 4 boundary nodes.
    w = np.array([5.0, 15.0, -5.0, 1.0]) / 16.0
    mid[0] = np.tensordot(w, v[:4], axes=(0, 0))
    mid[-1] = np.tensordot(w[::-1], v[-4:], axes=(0, 0))
    return mid


#: Largest 1-norm at which the degree-m Pade approximant of e^A is accurate
#: to double precision without scaling (Higham 2005, Table 2.3).
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
               9: 2.097847961257068e0, 13: 5.371920351148152e0}
#: Coefficients b_j = (2m - j)! / (j! (m - j)!) of p_m(A) = sum_j b_j A^j,
#: where r_m(A) = p_m(A) / p_m(-A).
_PADE_COEFFS = {m: [float(math.factorial(2 * m - j) // (math.factorial(j) * math.factorial(m - j)))
                    for j in range(m + 1)] for m in _PADE_THETA}


def _pade(a: np.ndarray, m: int) -> np.ndarray:
    """r_m(A) for a stack (k, n, n): p_m(A) = V + U, p_m(-A) = V - U, with U
    the odd and V the even part, m = 13 through A^2, A^4 and A^6 only.

    Below degree 13 r_m is I + 2 (V - U)^-1 U, which keeps the digits of a
    small A's offset from I (so e^{J h} of a short step stays orthogonal to
    rounding); degree 13 is squared afterwards, where that offset can cancel
    against I, so it takes (V - U)^-1 (V + U).
    """
    b = _PADE_COEFFS[m]
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    if m < 13:
        powers = [eye, a2]
        while len(powers) <= m // 2:
            powers.append(powers[-1] @ a2)
        u = a @ sum(b[2 * k + 1] * p for k, p in enumerate(powers))
        v = sum(b[2 * k] * p for k, p in enumerate(powers))
        return eye + np.linalg.solve(v - u, 2.0 * u)
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    return np.linalg.solve(v - u, v + u)


def expm(a) -> np.ndarray:
    """e^A for every n x n matrix of a stack (..., n, n): scaling and squaring
    (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005, Algorithm 2.3).

    Each matrix takes the lowest Pade degree of 3, 5, 7, 9 whose theta
    bounds its 1-norm; the others take degree 13 on A / 2^s, with s the
    least that brings the norm under theta_13, then s squarings.  Degree
    and s are chosen per matrix, and a matrix goes through the same
    operations alone as in any stack, so its result is the same bit for
    bit.  The zero matrix gives I exactly.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expm needs square matrices, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("expm input contains non-finite entries")
    if a.size == 0:
        return a.copy()
    n = a.shape[-1]
    flat = a.reshape(-1, n, n)
    out = np.empty_like(flat)
    norms = np.abs(flat).sum(axis=1).max(axis=1, initial=0.0)
    degrees = list(_PADE_THETA)
    choice = np.minimum(np.searchsorted(list(_PADE_THETA.values()), norms), len(degrees) - 1)
    for pick, m in enumerate(degrees):
        (idx,) = np.nonzero(choice == pick)
        if not idx.size:
            continue
        if m < 13:
            out[idx] = _pade(flat[idx], m)
            continue
        s = np.maximum(0, np.ceil(np.log2(norms[idx] / _PADE_THETA[13]))).astype(int)
        order = np.argsort(-s, kind="stable")  # most squarings first
        idx, s = idx[order], s[order]
        x = _pade(np.ldexp(flat[idx], -s[:, None, None]), 13)
        for k in range(s[0]):
            live = np.count_nonzero(s > k)
            x[:live] = x[:live] @ x[:live]
        out[idx] = x
    return out.reshape(a.shape)


#: 5**k for k = 0 ... 27: a float cell x scales by 10**k = 5**k 2**k exactly.
_POW5 = np.array([5**k for k in range(28)], dtype=np.uint64)

#: Byte slots of a float cell's frame: sign, the "0.000" of a fixed-point
#: fraction, 17 digits with a point among them, "e-XX", and the separator.
_FRAME_BYTES = 1 + 5 + 18 + 4 + 1

#: Fills a frame's unused slots; the CSV writer deletes it.  UTF-8 never uses
#: it, and it is all ones, so OR-ing a mask from `_ones` into a slot empties it.
HOLE = 0xFF

_SLOT = np.arange(18, dtype=np.int8)[:, None]


def _ones(flags: np.ndarray) -> np.ndarray:
    """All-ones uint8 bytes where `flags` holds, zero elsewhere."""
    return flags.view(np.uint8) * np.uint8(0xFF)


def _rounded_product(m, e, k):
    """round-half-even(m 2**(e - 53) 10**k) for 53-bit integers m and k in
    0 ... 27, exactly: the 128-bit product m 5**k on 32-bit limbs, shifted
    right by s = 53 - e - k < 64 and rounded by the bits it drops, or left
    when s <= 0 (then the product fits in 57 bits)."""
    p = _POW5[k]
    low, mid = (m & 0xFFFFFFFF) * (p & 0xFFFFFFFF), (m >> 32) * (p & 0xFFFFFFFF)
    hi = (m >> 32) * (p >> 32)
    mid += (m & 0xFFFFFFFF) * (p >> 32)  # below 2**63 + 2**53
    mid += low >> 32
    hi += mid >> 32
    low &= 0xFFFFFFFF
    low |= mid << 32  # the product's low 64 bits
    s = 53 - e - k
    right = np.clip(s, 1, 63).astype(np.uint64)
    q = (hi << (64 - right)) | (low >> right)
    # the dropped bits, moved to the top, plus q's parity pass 2**63 when the
    # remainder is above one half, or exactly one half and q is odd
    q += (low << (64 - right)) + (q & 1) > np.uint64(1 << 63)
    left = s <= 0
    if left.any():
        q[left] = low[left] << (-s[left]).astype(np.uint64)
    return q


def _decimal_digits(x: np.ndarray):
    """(ok, exponent, dig) of float64 cells.  Where 1e-11 <= |x| < 1e17
    (ok), exponent is the decimal exponent E of "%.16e" % x (int8), and
    rows 1 ... 17 of dig (19, cells) hold the ASCII digits of D =
    round-half-even(|x| 10**(16 - E)), from `_rounded_product`; rows 0 and
    18 are `HOLE`.  E starts from log10 and is corrected by one where that
    was off."""
    ax = np.abs(x)
    ok = (ax >= 1e-11) & (ax < 1e17)
    ax[~ok] = 1.0  # a stand-in for cells that are not ok
    exponent = np.clip(np.floor(np.log10(ax)), -11, 16).astype(np.int64)
    fraction, e = np.frexp(ax)
    m = (fraction * 2.0**53).astype(np.uint64)
    digits = _rounded_product(m, e, 16 - exponent)
    # 17 digits past 10**17 read one place higher, and ones at most 10**16
    # one place lower, where they may round up to 10**17
    over, under = digits >= 10**17, digits <= 10**16
    redo = over | under
    if redo.any():
        exponent += over
        exponent -= under
        ok &= (exponent >= -11) & (exponent <= 16)
        np.clip(exponent, -11, 16, out=exponent)
        digits[redo] = _rounded_product(m[redo], e[redo], 16 - exponent[redo])
        up = digits >= 10**17
        digits[up] = 10**16
        exponent += up

    dig = np.empty((19, len(x)), np.uint8)
    dig[0] = dig[18] = HOLE
    high = digits // 10**8
    dig[1] = high // 10**8 + 48
    eights = np.stack([high - high // 10**8 * 10**8, digits - high * 10**8]).astype(np.uint32)
    pairs = dig[2:18].reshape(2, 8, len(x))
    for i in range(7, 0, -1):
        rest = eights // 10
        pairs[:, i] = eights - rest * 10 + 48
        eights = rest
    pairs[:, 0] = eights + 48
    return ok, exponent.astype(np.int8), dig


def float_frames(x: np.ndarray, seps: np.ndarray) -> np.ndarray:
    """(`_FRAME_BYTES`, cells) uint8 frames of float64 cells, slot by slot:
    with its `HOLE` bytes deleted, column i reads "%.17g" % x[i] and then
    the byte seps[i].

    A cell with 1e-11 <= |x| < 1e17 is formed here from the 17 digits and
    the exponent E of `_decimal_digits`, laid out by the %g rules (fixed
    point for -4 <= E <= 16, trailing zeros and a bare point dropped).
    Every other cell (zero, -0, nan, inf, subnormal or out of range) takes
    Python's "%.17g" into the same frame."""
    ok, exponent, dig = _decimal_digits(x)
    scientific = exponent < -4
    kept = np.maximum(((dig[1:18] != 48) * np.arange(1, 18, dtype=np.int8)[:, None]).max(axis=0),
                      exponent + 1)
    # the digit the point follows: 16 (so none) where "0.000" carries it
    point = np.where(exponent < 0, np.int8(16), exponent)
    point[scientific] = 0
    frame = np.empty((_FRAME_BYTES, len(x)), np.uint8)
    frame[0] = HOLE - (x < 0).view(np.uint8) * np.uint8(HOLE - ord("-"))
    zeros = _ones(np.arange(5, dtype=np.int8)[:, None] < (1 - exponent) * ((exponent < 0) & ~scientific))
    frame[1:6] = (np.frombuffer(b"0.000", np.uint8)[:, None] & zeros) | ~zeros
    body = frame[6:24]
    np.bitwise_xor(dig[:18], (dig[1:] ^ dig[:18]) & _ones(_SLOT <= point), out=body)
    body ^= (body ^ ord(".")) & _ones(_SLOT == point + 1)
    body |= _ones(_SLOT >= kept + (kept > point + 1))
    frame[24:28] = HOLE
    if scientific.any():
        cells, minus = np.flatnonzero(scientific), -exponent[scientific]
        frame[24, cells], frame[25, cells] = ord("e"), ord("-")
        frame[26, cells], frame[27, cells] = minus // 10 + 48, minus % 10 + 48
    frame[28] = seps
    other = np.flatnonzero(~ok)
    if len(other):
        text = np.array(["%.17g" % v for v in x[other].tolist()], dtype=f"S{_FRAME_BYTES - 1}")
        raw = text.view(np.uint8).reshape(len(other), _FRAME_BYTES - 1).T
        frame[:-1, other] = raw | _ones(raw == 0)
    return frame
