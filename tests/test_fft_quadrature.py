"""The FFT lengths, type-I transforms and quadrature rules of `_util` against scipy.

`lossless` computes these with numpy alone; scipy.fft and scipy.integrate
serve here only as the reference.  The FFT bounds are eps-derived rather
than exact, since numpy 1.x and 2.x ship different FFT implementations.
"""

import numpy as np
import pytest
import scipy
import scipy.fft
import scipy.integrate

import lossless
from lossless._util import cumulative_trapezoid, dct1, dst1, fast_len, simpson, trapezoid
from lossless.approx_linear import _HarmonicSeries

EPS = np.finfo(float).eps
SIZES = [201, 2001, 10001]


def test_fast_len_matches_scipy_real_lengths():
    assert [fast_len(n) for n in range(1, 40_001)] == [
        scipy.fft.next_fast_len(n, real=True) for n in range(1, 40_001)
    ]


@pytest.mark.parametrize("size", SIZES)
def test_type_one_transforms_match_scipy(size):
    x = np.random.default_rng(size).standard_normal((size, 2, 2))
    # Each output sums at most 2N terms of |x| through log2(2N) FFT passes.
    bound = 8 * EPS * (2 * size).bit_length() * 2.0 * np.abs(x).sum(axis=0)
    assert np.all(np.abs(dct1(x) - scipy.fft.dct(x, type=1, axis=0)) <= bound)
    inner = x[1:-1]
    assert np.all(np.abs(dst1(inner) - scipy.fft.dst(inner, type=1, axis=0)) <= bound)


@pytest.mark.parametrize("size", SIZES)
def test_convolution_matches_the_scipy_fft_path(size, monkeypatch):
    rng = np.random.default_rng(size)
    n = 40
    series = _HarmonicSeries(
        base=np.pi / (size // 4 * 0.01),  # the window is on the sample grid: the FFT branch
        cos_part=rng.standard_normal((n, 2, 2)) / np.arange(1, n + 1)[:, None, None],
        sin_part=rng.standard_normal((n, 2, 2)) / np.arange(1, n + 1)[:, None, None],
    )
    u = rng.standard_normal((size, 2))
    y = series.convolve(u, 0.01)
    with monkeypatch.context() as m:
        for name in ("fft", "rfft", "irfft"):
            m.setattr(np.fft, name, getattr(scipy.fft, name))
        m.setattr(lossless._util, "fast_len", lambda k: scipy.fft.next_fast_len(k, real=True))
        reference = series.convolve(u, 0.01)
    kernel = np.abs(series.evaluate(np.arange(size) * 0.01)).sum(axis=(0, 2))
    bound = 64 * EPS * (2 * size).bit_length() * 0.01 * kernel * np.abs(u).max()
    assert np.all(np.abs(y - reference) <= bound)


@pytest.mark.skipif(
    tuple(int(p) for p in scipy.__version__.split(".")[:2]) < (1, 11),
    reason="scipy before 1.11 treats an even sample count with another rule",
)
@pytest.mark.parametrize("count", list(range(2, 13)) + [1000, 1001])
def test_simpson_matches_scipy(count):
    y = np.random.default_rng(count).standard_normal((count, 3))
    h = 0.0137
    bound = 4 * EPS * np.abs(y).sum(axis=0) * h
    assert np.all(np.abs(simpson(y, h) - scipy.integrate.simpson(y, dx=h, axis=0)) <= bound)


@pytest.mark.parametrize("count", range(3, 13))
def test_simpson_is_exact_for_quadratics(count):
    h = 0.3
    t = np.arange(count) * h
    exact = t[-1] ** 3 - t[-1] ** 2 + 2.0 * t[-1]  # integral of 3t^2 - 2t + 2
    assert simpson(3 * t**2 - 2 * t + 2, h) == pytest.approx(exact, rel=16 * EPS)


def test_trapezoid_rules_match_scipy_exactly():
    rng = np.random.default_rng(7)
    y = rng.standard_normal((501, 3))
    t = np.cumsum(rng.uniform(0.5, 1.5, 501))
    dt = 0.013
    assert np.array_equal(trapezoid(y, dt), scipy.integrate.trapezoid(y, dx=dt, axis=0))
    assert np.array_equal(trapezoid(y[:, 0], np.diff(t)), scipy.integrate.trapezoid(y[:, 0], t))
    assert np.array_equal(cumulative_trapezoid(y, dt),
                          scipy.integrate.cumulative_trapezoid(y, dx=dt, axis=0, initial=0.0))
    assert np.array_equal(cumulative_trapezoid(y[:, 0], np.diff(t)),
                          scipy.integrate.cumulative_trapezoid(y[:, 0], t, initial=0.0))
