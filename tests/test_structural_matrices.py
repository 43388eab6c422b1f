"""One structural-matrix convention across the package.

A generator is square with finite entries, dense or sparse (a sparse
one's stored entries included).  A skew generator passes one skew test,
||M + M^T||_1 <= SKEW_TOL max|M_ij|, and a symmetric PSD matrix
one Hermitian and PSD test on the same scale.  So every class that takes
a model, and `check_lossless`, judge it alike, and the rounding error of a
model in large units, which grows with its entries, is not mistaken for
a fault.  The scale has no floor: a model in small units is judged on its
own scale too, and an all-zero matrix, whose scale is 0, must be exact.
"""

import numpy as np
import pytest
import scipy.sparse

from lossless.approx_linear import factor_psd
from lossless.measurement import MeasuredSystem
from lossless.statespace import (
    SKEW_TOL,
    LinearStateSpace,
    LosslessLinear,
    check_lossless,
    lc_ladder,
    simulate_linear,
)
from lossless.thermal import (
    LangevinModel,
    ThermalEnsemble,
    johnson_nyquist_intensity,
    simulate_langevin,
)

ROTATION = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))[0]
SCALE = 1e6  # large units, as the SI preset gives
TINY = 1e-12  # small units
PORT = np.eye(3)[:, :1]


def rotated(m):
    """Q M Q^T for one fixed orthogonal Q: the same model in other coordinates."""
    return ROTATION @ m @ ROTATION.T


# every class that takes a skew generator J, built around the given J
CLASSES = {
    "LosslessLinear": lambda j: LosslessLinear(J=j, B=PORT),
    "MeasuredSystem": lambda j: MeasuredSystem(J=j, B=[1.0, 0.0, 0.0], x0=[1.0, 0.0, 0.0]),
    "LangevinModel": lambda j: LangevinModel(J=j, K=np.eye(3), B=PORT, temperature=1.0),
}


def large_ladder():
    j = rotated(SCALE * np.asarray(lc_ladder().J))
    # rounding leaves an asymmetry far above the absolute SKEW_TOL, at
    # about eps relative to the entries
    assert np.abs(j + j.T).sum() > SKEW_TOL
    return j


@pytest.mark.parametrize("build", CLASSES.values(), ids=list(CLASSES))
def test_a_lossless_generator_in_large_units_is_accepted(build):
    assert build(large_ladder()).B.shape[0] == 3


def test_check_lossless_agrees_with_construction():
    system = LosslessLinear(J=large_ladder(), B=PORT)
    verdict = check_lossless(system, trials=0)
    assert verdict.passed
    assert verdict.skew_residual > SKEW_TOL


def test_a_relative_asymmetry_in_large_units_is_still_rejected():
    j = large_ladder()
    j[0, 1] += 1e-6 * np.abs(j).max()
    messages = set()
    for build in CLASSES.values():
        with pytest.raises(ValueError, match="skew-symmetric") as info:
            build(j)
        messages.add(str(info.value))
    assert len(messages) == 1  # one test, one message, for every class
    assert "antisymmetric" in messages.pop()
    general = LinearStateSpace(A=j, B=PORT, C=PORT.T, D=np.zeros((1, 1)))
    assert not check_lossless(general, trials=0).passed


def test_check_lossless_pairs_c_with_b_on_the_same_scale():
    j = large_ladder()
    c = SCALE * PORT.T
    exact = LinearStateSpace(A=j, B=SCALE * PORT, C=c, D=np.zeros((1, 1)))
    assert check_lossless(exact, trials=0).passed
    off = LinearStateSpace(A=j, B=SCALE * PORT, C=c * (1.0 + 1e-6), D=np.zeros((1, 1)))
    assert not check_lossless(off, trials=0).passed


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sparse_generators_with_non_finite_entries_are_rejected(bad):
    m = scipy.sparse.csr_matrix(np.array([[0.0, bad], [-1.0, 0.0]]))
    with pytest.raises(ValueError, match="J contains non-finite entries"):
        LosslessLinear(J=m, B=np.ones((2, 1)))
    with pytest.raises(ValueError, match="A contains non-finite entries"):
        LinearStateSpace(A=m, B=np.ones((2, 1)), C=np.ones((1, 2)), D=np.zeros((1, 1)))


def test_a_sparse_skew_generator_stays_sparse():
    j = scipy.sparse.csr_matrix(large_ladder())
    assert scipy.sparse.issparse(LosslessLinear(J=j, B=PORT).J)


def test_measured_system_names_a_sparse_generator():
    j = scipy.sparse.csr_matrix(np.asarray(lc_ladder().J))
    with pytest.raises(TypeError, match="J must be a dense matrix"):
        MeasuredSystem(J=j, B=[1.0, 0.0, 0.0], x0=[1.0, 0.0, 0.0])


def test_measured_system_names_a_second_port():
    with pytest.raises(ValueError, match="B has 2 channels, the measured port expects 1"):
        MeasuredSystem(J=np.asarray(lc_ladder().J), B=np.ones((3, 2)), x0=[1.0, 0.0, 0.0])


def test_langevin_model_accepts_k_in_large_units():
    k = rotated(SCALE * np.diag([1.0, 2.0, 3.0]))
    model = LangevinModel(J=np.zeros((3, 3)), K=k, B=PORT, temperature=1.0)
    assert np.array_equal(model.K, k)


def test_langevin_model_checks_k():
    k = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError, match="K is not symmetric"):
        LangevinModel(J=np.zeros((2, 2)), K=k, B=np.ones((2, 1)), temperature=1.0)


def test_psd_inputs_are_judged_on_their_scale():
    gain = rotated(SCALE * np.diag([0.0, 1.0, 2.0]))  # singular: rounding puts an
    # eigenvalue of order -eps SCALE below zero, under PSD_TOL SCALE
    np.testing.assert_allclose(johnson_nyquist_intensity(gain, 1.0), 2.0 * gain)
    assert factor_psd(gain).shape == (2, 3)
    indefinite = rotated(SCALE * np.diag([-1e-6, 1.0, 2.0]))
    with pytest.raises(ValueError, match="positive semidefinite"):
        johnson_nyquist_intensity(indefinite, 1.0)
    with pytest.raises(ValueError, match="positive semidefinite"):
        factor_psd(indefinite)


def test_small_units_are_judged_on_their_own_scale():
    with pytest.raises(ValueError, match="skew-symmetric"):
        LosslessLinear(J=[[0.0, TINY], [0.0, 0.0]], B=np.ones((2, 1)))
    for build in CLASSES.values():
        assert build(rotated(TINY * np.asarray(lc_ladder().J))).B.shape[0] == 3
    gain = rotated(TINY * np.diag([0.0, 1.0, 2.0]))
    assert factor_psd(gain).shape == (2, 3)
    with pytest.raises(ValueError, match="positive semidefinite"):
        factor_psd(rotated(TINY * np.diag([-1e-6, 1.0, 2.0])))


def test_an_all_zero_matrix_passes_exactly():
    # its scale is 0, so a nonzero residual would fail, and it has none
    assert LosslessLinear(J=np.zeros((2, 2)), B=np.ones((2, 1))).J.shape == (2, 2)
    assert factor_psd(np.zeros((2, 2))).shape == (0, 2)
    assert check_lossless(LosslessLinear(J=np.zeros((2, 2)), B=np.zeros((2, 1))), trials=0).passed


def test_state_vectors_share_one_check():
    model = LangevinModel(J=np.zeros((3, 3)), K=np.eye(3), B=PORT, temperature=1.0)
    cases = [
        ("x0", lambda x: simulate_linear(lc_ladder(), None, x0=x, dt=0.1, horizon=1.0)),
        ("x0", lambda x: simulate_langevin(model, None, x, 0.1, 1.0, seed=0)),
        ("mean", lambda x: ThermalEnsemble(temperature=1.0, dimension=3, mean=x)),
    ]
    for name, run in cases:
        with pytest.raises(ValueError, match=f"{name} has dimension 2, state dimension is 3"):
            run([1.0, 0.0])
        with pytest.raises(ValueError, match=f"{name} contains non-finite entries"):
            run([1.0, np.nan, 0.0])
