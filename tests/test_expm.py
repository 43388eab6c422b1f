"""Tests for the batched scaling-and-squaring matrix exponential `_util.expm`.

scipy.linalg.expm is the reference, though on these generators it is the
less accurate of the two: against a 40-digit mpmath exponential (skew and
loaded, n = 2 to 20, t up to 100) its error reached 3.7e-13 of the largest
entry, this function's 5.9e-14.  So
the comparison takes a fixed 1e-11 relative, and the properties of the
exact result (orthogonality, e^x) are judged on their own, against
eps max(1, |A|_1): the forward error of scaling and squaring grows with
the norm, since each of the s squarings doubles the error of r_m(A / 2^s)
and 2^s ~ |A|_1 / theta_13.
"""

import numpy as np
import pytest
import scipy.linalg

from lossless import _util
from lossless._util import expm
from lossless.statespace import matrix_exponential

EPS = np.finfo(float).eps


def _skew(rng, n):
    a = rng.standard_normal((n, n))
    return a - a.T


def _norm1(a):
    return np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0)


def _assert_near_scipy(a):
    got, ref = expm(a), scipy.linalg.expm(a)
    assert np.abs(got - ref).max() <= 1e-11 * max(1.0, np.abs(ref).max())


@pytest.mark.parametrize("n", [2, 3, 5, 12, 40])
@pytest.mark.parametrize("t", [1e-4, 0.02, 0.7, 3.0, 10.0, 100.0])
def test_skew_generators_match_scipy(n, t):
    _assert_near_scipy(_skew(np.random.default_rng(n), n) * t)


@pytest.mark.parametrize("n", [2, 3, 5, 12, 40])
@pytest.mark.parametrize("t", [1e-3, 0.5, 10.0, 100.0])
def test_loaded_generators_match_scipy(n, t):
    rng = np.random.default_rng(100 + n)
    b = rng.standard_normal(n)
    _assert_near_scipy((_skew(rng, n) - 0.8 * np.outer(b, b)) * t)


@pytest.mark.parametrize("n", [2, 3, 12, 40])
@pytest.mark.parametrize("t", [1e-3, 1.0, 10.0, 100.0])
def test_skew_exponentials_are_orthogonal(n, t):
    a = _skew(np.random.default_rng(200 + n), n) * t
    e = expm(a)
    assert np.abs(e @ e.T - np.eye(n)).max() <= 4.0 * EPS * max(1.0, _norm1(a))


def test_a_stack_equals_its_matrices_one_by_one():
    rng = np.random.default_rng(3)
    j = _skew(rng, 4)
    scales = [0.0, 1e-4, 3e-3, 0.05, 0.2, 0.6, 1.5, 4.0, 11.0, 90.0, 700.0]
    stack = np.stack([j * s / _norm1(j) for s in scales]).reshape(1, 11, 4, 4)
    # every Pade degree occurs, and the degree-13 matrices need 0, 2, 5 and
    # 8 squarings
    thetas = list(_util._PADE_THETA.values())
    picks = np.searchsorted(thetas, scales)
    assert set(picks) == {0, 1, 2, 3, 4, 5}
    out = expm(stack)
    assert out.shape == stack.shape
    np.testing.assert_array_equal(out[0], [expm(m) for m in stack[0]])
    np.testing.assert_array_equal(out[0], [matrix_exponential(m) for m in stack[0]])
    for m in stack[0]:
        _assert_near_scipy(m)


def test_empty_and_scalar_matrices():
    assert expm(np.zeros((0, 0))).shape == (0, 0)
    assert expm(np.zeros((5, 0, 0))).shape == (5, 0, 0)
    assert expm(np.zeros((0, 3, 3))).shape == (0, 3, 3)
    x = np.linspace(-30.0, 30.0, 61)
    error = np.abs(expm(x[:, None, None])[:, 0, 0] / np.exp(x) - 1.0)
    assert np.all(error <= 16 * EPS * np.maximum(1.0, np.abs(x)))


@pytest.mark.parametrize("n", [1, 2, 3, 9])
def test_the_zero_matrix_gives_the_identity_exactly(n):
    np.testing.assert_array_equal(expm(np.zeros((n, n))), np.eye(n))
    np.testing.assert_array_equal(expm(np.zeros((3, n, n))), np.broadcast_to(np.eye(n), (3, n, n)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_raise_before_any_pade_step(bad, monkeypatch):
    calls = []
    pade = _util._pade
    monkeypatch.setattr(_util, "_pade", lambda a, m: calls.append(m) or pade(a, m))
    stack = np.stack([np.eye(3) * 1e3, np.eye(3)])
    stack[1, 2, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        expm(stack)
    assert calls == []
    with pytest.raises(ValueError, match="non-finite"):
        matrix_exponential(stack[1])


def test_non_square_input_raises():
    with pytest.raises(ValueError, match="square"):
        expm(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="square"):
        expm(np.zeros(3))
