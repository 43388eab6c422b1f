"""Tests for the sums of rotations: rotation-block impulse responses and
midpoint runs, the rotation-block resolvent and the windowed kernel
transform of `check_dissipative`.

They evaluate e^{i x k step} through the two factors of blocked angle
addition.  The references are the paths they replace: the lifted
`_lti_run` recursion of exp(A dt) for impulse responses, the per-step
loop for midpoint runs, and the per-entry phase table
sum_k w_k g_k e^{-i w t_k} for the transform.  The bounds scale
with eps: the lifted path accumulates about n eps over n steps, the closed
form about eps w t from rounding the phase, and an m-term sum about
sqrt(m) eps.
"""

import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from lossless import dissipative_lossless_approx, memoryless_lossless_approx
from lossless._util import CHUNK_ELEMENTS, angle_blocks, angle_phasors
from lossless.statespace import (
    LinearStateSpace,
    LosslessLinear,
    Trajectory,
    _as_kernel_samples,
    _default_frequencies,
    _dense_resolvent,
    _exponential_tail,
    _kernel_transform,
    _lti_run,
    _midpoint_outputs,
    _port_matrices,
    _rotation_resolvent,
    _rotations,
    check_dissipative,
    impulse_response,
    lc_ladder,
    matrix_exponential,
)

EPS = np.finfo(float).eps


def _lifted(sys, dt, n_samples):
    """The lifted-recursion impulse response that non-rotation systems take."""
    a, b, c, _ = _port_matrices(sys)
    return _lti_run(matrix_exponential(a * dt) - np.eye(len(a)), b, c=c, steps=n_samples - 1)[0]


def _rotation_system(omegas, zeros, rng, ports=1, general=False):
    """Rotations in the bank's layout (zero states, cosine states, then sine
    states), under a random permutation of the states; C = B^T, or a
    random C for a `general` state space."""
    r = len(omegas)
    n = zeros + 2 * r
    a = np.zeros((n, n))
    cos, sin = zeros + np.arange(r), zeros + r + np.arange(r)
    a[cos, sin] = omegas
    a[sin, cos] = -np.asarray(omegas)
    perm = rng.permutation(n)
    a = a[np.ix_(perm, perm)]
    b = rng.standard_normal((n, ports))
    if not general:
        return LosslessLinear(J=a, B=b)
    return LinearStateSpace(A=a, B=b, C=rng.standard_normal((ports, n)), D=np.zeros((ports, ports)))


def _assert_matches_lifted(sys, dt, n_samples):
    a, b, c, _ = _port_matrices(sys)
    assert _rotations(a) is not None
    g = impulse_response(sys, dt, n_samples)
    expected = _lifted(sys, dt, n_samples)
    assert g.values.shape == expected.shape
    scale = float(np.sum(np.linalg.norm(c, axis=0) * np.linalg.norm(b, axis=1)))
    wt = float(np.abs(a).max(initial=0.0)) * (n_samples - 1) * dt
    np.testing.assert_allclose(g.values, expected, rtol=0,
                               atol=16 * EPS * scale * (n_samples + wt))


N_SAMPLES = [1, 2, 37, 1000]


@pytest.fixture(scope="module")
def dense_bank():
    """The benchmark's bank for e^{-t} at epsilon = 0.3: 813 states, dense."""
    t = np.arange(10001) * 1e-3
    g = Trajectory(dt=1e-3, values=np.exp(-t))
    return dissipative_lossless_approx(g, 0.3, 5.0, tail=lambda s: np.exp(-s))


class TestRotationImpulse:
    @pytest.mark.parametrize("n_samples", N_SAMPLES)
    def test_permuted_bank_layout_with_zero_states(self, n_samples):
        rng = np.random.default_rng(1)
        sys = _rotation_system(rng.uniform(0.5, 20.0, 12), 3, rng)
        _assert_matches_lifted(sys, 0.01, n_samples)

    @pytest.mark.parametrize("n_samples", N_SAMPLES)
    def test_two_port_bank(self, n_samples):
        bank = memoryless_lossless_approx(np.array([[2.0, 0.5], [0.5, 1.0]]), 1.0, 40)
        assert bank.system.p == 2
        _assert_matches_lifted(bank.system, 1e-3, n_samples)

    @pytest.mark.parametrize("n_samples", N_SAMPLES)
    def test_general_state_space_with_c_not_b_transpose(self, n_samples):
        rng = np.random.default_rng(2)
        sys = _rotation_system(rng.uniform(0.5, 5.0, 5), 2, rng, ports=2, general=True)
        assert np.abs(sys.C - sys.B.T).min() > 0.0
        _assert_matches_lifted(sys, 0.02, n_samples)

    @pytest.mark.parametrize("n_samples", N_SAMPLES)
    def test_repeated_incommensurate_and_negative_frequencies(self, n_samples):
        rng = np.random.default_rng(3)
        omegas = [1.0, 1.0, np.sqrt(2.0), -np.pi, -1.0, np.e * 10.0, -np.sqrt(2.0)]
        _assert_matches_lifted(_rotation_system(omegas, 1, rng, ports=2), 0.01, n_samples)

    def test_all_zero_generator_is_the_constant_gram_matrix(self):
        rng = np.random.default_rng(4)
        sys = LosslessLinear(J=np.zeros((3, 3)), B=rng.standard_normal((3, 2)))
        g = impulse_response(sys, 0.1, 5)
        np.testing.assert_allclose(g.values, np.broadcast_to(sys.B.T @ sys.B, (5, 2, 2)),
                                   rtol=0, atol=4 * EPS * np.sum(sys.B**2))

    def test_bank_matches_its_harmonic_series(self, dense_bank):
        # the benchmark's 813-state bank against its own series, one
        # rounding of each phase: the closed form stays within 1e-14
        bank = dense_bank
        assert bank.system.n == 813
        t = np.arange(5001) * 1e-3
        h = impulse_response(bank.system, 1e-3, 5001).values[:, 0, 0]
        k = bank.kernel(t)[:, 0, 0]
        assert np.abs(h - k).max() <= 1e-14 * np.abs(k).max()

    @pytest.mark.parametrize("n_samples", N_SAMPLES)
    def test_non_rotation_systems_keep_the_lifted_path_bitwise(self, n_samples):
        rng = np.random.default_rng(5)
        rot = np.zeros((4, 4))
        rot[0, 1], rot[1, 0], rot[2, 3], rot[3, 2] = 2.0, -2.0, 0.5, -0.5
        diagonal = rot.copy()
        diagonal[2, 2] = -0.1
        unequal = rot.copy()
        unequal[1, 0] = -2.0 * (1 + 1e-12)
        two_in_a_row = rot.copy()
        two_in_a_row[0, 2], two_in_a_row[2, 0] = 0.3, -0.3
        b, c = rng.standard_normal((4, 1)), rng.standard_normal((1, 4))
        systems = [lc_ladder()] + [
            LinearStateSpace(A=a, B=b, C=c, D=np.zeros((1, 1)))
            for a in (diagonal, unequal, two_in_a_row)
        ]
        for sys in systems:
            assert _rotations(_port_matrices(sys)[0]) is None
            assert np.array_equal(impulse_response(sys, 0.01, n_samples).values,
                                  _lifted(sys, 0.01, n_samples))

    def test_sparse_bank_takes_the_closed_form(self):
        # above the dense limit a bank's generator is CSR; the closed form
        # reads its nonzeros and equals the same generator densified, bit for bit
        bank = memoryless_lossless_approx(1.0, 1.0, 1200)
        assert scipy.sparse.issparse(bank.system.J) and bank.system.n == 2399
        g = impulse_response(bank.system, 1e-3, 100)
        dense = LosslessLinear(J=bank.system.J.toarray(), B=bank.system.B, D=bank.system.D)
        assert np.array_equal(g.values, impulse_response(dense, 1e-3, 100).values)
        kernel = bank.kernel(np.arange(100) * 1e-3)
        scale = float(np.sum(bank.system.B**2))
        wt = float(abs(bank.system.J).max()) * 99e-3
        np.testing.assert_allclose(g.values, kernel, rtol=0, atol=16 * EPS * scale * (1.0 + wt))

    def test_sparse_non_rotation_generator_is_rejected(self):
        rng = np.random.default_rng(6)
        a = np.zeros((4, 4))
        a[0, 1], a[1, 0], a[2, 3], a[3, 2] = 2.0, -2.0, 0.5, -0.5
        a[2, 2] = -0.1
        sys = LinearStateSpace(A=scipy.sparse.csr_matrix(a), B=rng.standard_normal((4, 1)),
                               C=rng.standard_normal((1, 4)), D=np.zeros((1, 1)))
        with pytest.raises(TypeError, match="dense state matrix"):
            impulse_response(sys, 0.01, 10)

    def test_memory_stays_chunked(self, dense_bank):
        tracemalloc.start()
        try:
            impulse_response(dense_bank.system, 1e-3, 5001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def _midpoint_loop(a, b, c, u, h):
    """The per-step loop the Tustin-warped convolution replaces: state s maps
    to cos x_s + sin x_r + h (g_s + a g_r) / (1 + a^2), a = w_s h / 2.
    Returns the readouts, the final state and max_k |x_s[k]| per state."""
    partner, omega = _rotations(a)
    half = 0.5 * h * omega[:, None]
    cos, sin = (1.0 - half**2) / (1.0 + half**2), 2.0 * half / (1.0 + half**2)
    drive = h / (1.0 + half**2) * (b + half * b[partner])
    x = np.zeros((len(b), u.shape[2]))
    out, peak = np.zeros((len(u) + 1, c.shape[0], u.shape[2])), np.zeros((len(b), 1))
    for k in range(len(u)):
        x = cos * x + sin * x[partner] + drive @ u[k]
        out[k + 1] = c @ x
        peak = np.maximum(peak, np.abs(x).max(axis=1, keepdims=True))
    return out, x, peak


class TestRotationMidpointRun:
    """`_midpoint_outputs` on rotation blocks, one causal convolution with
    the kernel C R(m theta) d and one phasor sum for the final state, against
    the per-step loop.  The loop's orthogonal steps carry their rounding
    undamped, about eps |x| a step; the closed form rounds each phase m theta
    < m pi once.  Both stay within a few steps eps of the states' peak."""

    @pytest.mark.parametrize("make, h, batch", [
        (lambda rng: memoryless_lossless_approx(1.0, 10.0, 100).system, 1e-3, 2),
        (lambda rng: memoryless_lossless_approx(1.0, 10.0, 1100).system, 1e-3, 1),
        (lambda rng: LosslessLinear(J=np.zeros((3, 3)), B=rng.standard_normal((3, 2))), 0.1, 3),
        (lambda rng: _rotation_system([1.0, 1.0, np.sqrt(2.0), -np.pi, -1.0], 2, rng, ports=2,
                                      general=True), 0.01, 3),
        # w h from 1e-3 to 25, both signs
        (lambda rng: _rotation_system(np.logspace(-1.0, np.log10(2500.0), 9) * (-1.0) ** np.arange(9),
                                      1, rng), 0.01, 3),
    ], ids=["dense-bank", "csr-bank", "zero-states", "two-port-general-c", "wide-w-h"])
    def test_matches_the_per_step_loop(self, make, h, batch):
        rng = np.random.default_rng(8)
        a, b, c, _ = _port_matrices(make(rng))
        assert _rotations(a) is not None
        if scipy.sparse.issparse(a):
            assert len(b) == 2199
        steps = 700
        u = rng.standard_normal((steps, b.shape[1], batch))
        out, x = _midpoint_outputs(a, b, c, u, h)
        ref_out, ref_x, peak = _midpoint_loop(a, b, c, u, h)
        assert out.shape == ref_out.shape and x.shape == ref_x.shape
        assert not out[0].any()
        bound = 8 * steps * EPS
        readout = float(np.sum(np.linalg.norm(c, axis=0) * peak[:, 0]))
        assert np.abs(out - ref_out).max() <= bound * readout
        assert np.abs(x - ref_x).max() <= bound * peak.max()

    def test_no_steps_is_rest(self):
        a, b, c, _ = _port_matrices(memoryless_lossless_approx(1.0, 10.0, 10).system)
        out, x = _midpoint_outputs(a, b, c, np.zeros((0, 1, 2)), 1e-3)
        assert out.shape == (1, 1, 2) and x.shape == (len(b), 2)
        assert not out.any() and not x.any()


class TestRotationResolvent:
    """`check_dissipative`'s closed form on rotation blocks against the one
    dense solve per frequency it replaces there.  Both skip the frequencies
    where jw I - A has a 1-norm reciprocal condition number below eps, so the
    grids they keep are equal; the values agree to rounding, a few eps times
    the condition number relative to |ghat| at each frequency."""

    @pytest.mark.parametrize("make", [
        lambda rng: memoryless_lossless_approx(1.0, 10.0, 100).system,
        lambda rng: memoryless_lossless_approx(np.array([[2.0, 0.5], [0.5, 1.0]]), 1.0, 40).system,
        lambda rng: _rotation_system(rng.uniform(0.5, 5.0, 5), 2, rng, ports=2, general=True),
        lambda rng: _rotation_system([1.0, 1.0, np.sqrt(2.0), -np.pi, -1.0], 1, rng, ports=2),
    ], ids=["bank", "two-port-bank", "general-c", "repeated-negative"])
    def test_matches_the_dense_solves(self, make):
        a, b, c, d = _port_matrices(make(np.random.default_rng(7)))
        partner, omega = _rotations(a)
        # the default grid, the rotation frequencies themselves (poles) and
        # points 1e-10 from them (kept, with a large ghat)
        omegas = np.concatenate([_default_frequencies(np.abs(omega).max()), omega,
                                 -omega * (1.0 + 1e-10)])
        ghat, kept = _rotation_resolvent(partner, omega, b, c, d, omegas)
        expected, expected_kept = _dense_resolvent(np.asarray(a), b, c, d, omegas)
        assert np.array_equal(kept, expected_kept)
        assert 0.0 not in kept and len(kept) < len(omegas)
        # each solve carries rounding of eps times its condition number
        w = np.abs(kept)[:, None]
        cond = (w + np.abs(omega)).max(axis=1) / np.abs(w - np.abs(omega)).min(axis=1)
        bound = 64 * EPS * cond * np.abs(expected).max(axis=(1, 2))
        assert (np.abs(ghat - expected).max(axis=(1, 2)) <= bound).all()

    def test_sparse_bank_scan_within_a_time_budget(self):
        # 2199 states as CSR: the dense path took 178 s (a dense SVD, then
        # one 2199 x 2199 complex solve per frequency)
        bank = memoryless_lossless_approx(1.0, 10.0, 1100).system
        assert scipy.sparse.issparse(bank.J) and bank.n == 2199
        start = time.perf_counter()
        verdict = check_dissipative(bank)
        elapsed = time.perf_counter() - start
        assert verdict.dissipative and abs(verdict.min_eigenvalue) < 1e-10
        assert verdict.frequencies.size == 200 and 0.0 not in verdict.frequencies
        assert verdict.frequencies.max() == pytest.approx(1e3 * abs(bank.J).max(), rel=1e-15)
        assert elapsed < 1.0


def _reference_transform(g, omegas):
    """Per-entry phase table: the windowed sum one frequency at a time, the
    same decimation and trapezoid weights, and the same tail closure."""
    vals = _as_kernel_samples(g.values)
    m = len(vals)
    idx = np.arange(0, m, max(1, (m - 1) // 32768))
    if idx[-1] != m - 1:
        idx = np.append(idx, m - 1)
    t = g.times[idx]
    w = np.empty(t.shape)
    w[1:-1] = 0.5 * (t[2:] - t[:-2])
    w[0], w[-1] = 0.5 * (t[1] - t[0]), 0.5 * (t[-1] - t[-2])
    out = np.array([np.einsum("m,mij->ij", w * np.exp(-1j * om * t), vals[idx]) for om in omegas])
    norms = np.linalg.norm(vals, axis=(1, 2))
    rate = _exponential_tail(norms, g.times) if norms[-1] / norms.max() < 0.05 else None
    if rate is not None:
        out += vals[-1] * (np.exp(-1j * omegas * t[-1]) / (rate + 1j * omegas))[:, None, None]
    return out, float(w @ np.linalg.norm(vals[idx], axis=(1, 2))), len(idx)


def _two_port(t):
    e, s = np.exp(-t), np.sin(t) * np.exp(-t)
    return np.stack([np.stack([e, s], -1), np.stack([-s, 2.0 * np.exp(-t / 3.0)], -1)], -2)


class TestKernelTransform:
    @pytest.mark.parametrize("m, kernel, warns", [
        (10001, lambda t: np.exp(-t), False),
        (70002, lambda t: np.exp(-t / 20.0), False),  # stride 2, end sample appended
        (70002, _two_port, False),
        (2001, lambda t: np.cos(t) + 0.5, True),  # does not decay: warned, no tail
    ])
    def test_matches_the_per_entry_phase_table(self, m, kernel, warns):
        g = Trajectory(dt=1e-3, values=kernel(np.arange(m) * 1e-3))
        omegas = _default_frequencies(20.0 * np.pi / g.duration)
        ghat, _, warning = _kernel_transform(g, omegas)
        expected, mass, count = _reference_transform(g, omegas)
        assert (warning is not None) == warns
        assert ghat.shape == expected.shape
        # phase rounding eps |w| t per term, plus sqrt(count) eps from the sums
        bound = 4 * EPS * mass * (np.sqrt(count) + np.abs(omegas) * g.duration)
        assert np.all(np.abs(ghat - expected).max(axis=(1, 2)) <= bound)

    def test_memory_stays_chunked(self):
        g = Trajectory(dt=1e-3, values=np.exp(-np.arange(10001) * 1e-3))
        omegas = _default_frequencies(20.0 * np.pi / g.duration)
        tracemalloc.start()
        try:
            _kernel_transform(g, omegas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestAnglePhasors:
    @pytest.mark.parametrize("count", [1, 2, 3, 37, 1000, 4623])
    def test_blocks_cover_every_index_once(self, count):
        inner, blocks = angle_blocks(count)
        assert inner & (inner - 1) == 0
        assert (blocks - 1) * inner < count <= blocks * inner

    @pytest.mark.parametrize("count", [1, 37, 4623])
    def test_products_are_the_phasors(self, count):
        x = np.array([0.0, 1.0, -2.5, 40.0])
        step = 0.01
        k = np.arange(count)
        for rows, inner, anchor in angle_phasors(x, step, count):
            product = inner[:, k % inner.shape[1]] * anchor[:, k // inner.shape[1]]
            exact = np.exp(1j * np.outer(x[rows], k * step))
            bound = 4 * EPS * (1.0 + np.abs(x[rows])[:, None] * k * step)
            assert np.all(np.abs(product - exact) <= bound)

    def test_chunks_fit_the_element_budget(self):
        x = np.linspace(0.0, 1.0, 20000)
        seen = 0
        for rows, inner, anchor in angle_phasors(x, 0.1, 10001, extra=50):
            assert rows.start == seen
            seen = rows.stop
            assert 2 * (inner.size + anchor.size + 50 * len(inner)) <= CHUNK_ELEMENTS
        assert seen == x.size
