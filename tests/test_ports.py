"""One port convention across the package.

A port record of shape (m,) is one port and (m, p) is m samples of p
ports, so (m,) and (m, 1) must give the same values at every entry point
that takes a record, and an output record mirrors its input's shape.  A
record with the wrong channel count is rejected with a ValueError naming
both counts.  A gain is a scalar or a square matrix; a 1-D gain is
rejected everywhere.
"""

import re

import numpy as np
import pytest

from lossless.approx_linear import (
    MemorylessSystem,
    factor_psd,
    memoryless_error_bound,
    memoryless_lossless_approx,
    split_symmetric,
)
from lossless.approx_nonlinear import (
    EnergySupplyApprox,
    simulate_wrapped,
    supply_error_bound,
    supply_error_running_bound,
    wrap_lossless,
)
from lossless.measurement import Device, kalman_estimate, measured_lc
from lossless.statespace import (
    SignatureMatrix,
    Trajectory,
    check_dissipative,
    check_time_reversible,
    energy_ledger,
    lc_ladder,
    simulate_linear,
)
from lossless.thermal import (
    LangevinModel,
    johnson_nyquist_intensity,
    nonlinear_thermal_decompose,
    simulate_langevin,
    supply_noise_variance,
)

DT = 0.02
TIMES = np.arange(51) * DT
WAVE = np.sin(np.pi * TIMES) ** 2 * np.cos(3.0 * TIMES)  # starts at rest, u(0) = 0

LC = lc_ladder()
BANK = memoryless_lossless_approx(1.5, 1.0, 8)
LC_STATES, LC_OUTPUTS = simulate_linear(LC, Trajectory(dt=DT, values=WAVE))
LANGEVIN = LangevinModel(J=[[0.0]], K=[[1.0]], B=[[1.0]], temperature=0.5)
WRAPPED = wrap_lossless(lambda x, v: -x + v, lambda x, v: x, [0.0], 10.0)
MEASURED = measured_lc()
M1HAT = Device("M1hat", admittance=1.0, temperature=0.5)

# entry point -> (call on a record u, the words its mismatch message must hold)
ENTRY_POINTS = {
    "simulate_linear": (lambda u: simulate_linear(LC, u), "channels"),
    "simulate_langevin": (lambda u: simulate_langevin(LANGEVIN, u, None, DT, 1.0, seed=3), "channels"),
    "energy_ledger": (lambda u: energy_ledger(LC_STATES, u, LC_OUTPUTS), "channels"),
    "check_time_reversible": (
        lambda u: check_time_reversible(LC, SignatureMatrix.identity(1), u).max_deviation, "channels"),
    "bank.respond": (lambda u: BANK.respond(u), "channels"),
    "bank.zero_state_response": (lambda u: BANK.zero_state_response(u.values, DT), "channels"),
    "memoryless_error_bound": (lambda u: memoryless_error_bound(1.5, 1.0, 8, u), "channels"),
    "EnergySupplyApprox.respond": (lambda u: EnergySupplyApprox(-1.0, 10.0).respond(u), "channels"),
    "supply_error_running_bound": (lambda u: supply_error_running_bound(-1.0, u, 10.0), "channels"),
    "simulate_wrapped": (lambda u: simulate_wrapped(WRAPPED, u), None),  # the record sets the ports
    "nonlinear_thermal_decompose": (
        lambda u: nonlinear_thermal_decompose(-1.0, 10.0, u, 0.3), "single-port"),
    "supply_noise_variance": (lambda u: supply_noise_variance(-1.0, 10.0, 0.5, u), "single-port"),
    "kalman_estimate": (lambda u: kalman_estimate(MEASURED, M1HAT, u), "channels"),
}

# entry points whose first output is a record that mirrors the input's shape
MIRRORED = ["bank.respond", "EnergySupplyApprox.respond", "nonlinear_thermal_decompose",
            "supply_noise_variance", "kalman_estimate"]


def _arrays(out):
    """Every number an entry point returned, as a list of arrays."""
    if isinstance(out, tuple):
        return [a for part in out for a in _arrays(part)]
    if isinstance(out, Trajectory):
        return [out.values]
    if hasattr(out, "work_rate"):
        return [out.total_energy, out.work_rate]
    return [np.asarray(out)]


def _first_record(out):
    return out[0] if isinstance(out, tuple) else out


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_column_record_is_the_one_port_record(entry):
    call, _ = ENTRY_POINTS[entry]
    flat = _arrays(call(Trajectory(dt=DT, values=WAVE)))
    column = _arrays(call(Trajectory(dt=DT, values=WAVE[:, None])))
    assert len(flat) == len(column)
    for a, b in zip(flat, column):
        np.testing.assert_array_equal(np.ravel(a), np.ravel(b))


@pytest.mark.parametrize("entry", MIRRORED)
def test_output_record_mirrors_the_input_shape(entry):
    call, _ = ENTRY_POINTS[entry]
    for values in (WAVE, WAVE[:, None]):
        assert _first_record(call(Trajectory(dt=DT, values=values))).values.shape == values.shape


@pytest.mark.parametrize("entry", [name for name, (_, word) in ENTRY_POINTS.items() if word])
def test_channel_mismatch_names_both_counts(entry):
    call, word = ENTRY_POINTS[entry]
    two = Trajectory(dt=DT, values=np.stack([WAVE, 0.5 * WAVE], axis=1))
    with pytest.raises(ValueError, match=word) as err:
        call(two)
    counts = set(re.findall(r"\b\d+\b", str(err.value)))
    assert {"1", "2"} <= counts, str(err.value)


def test_two_port_record_against_the_two_port_bank():
    # the matching case of the mismatch above: a 2-port bank takes 2 channels
    bank = memoryless_lossless_approx(np.array([[2.0, 1.0], [1.0, 3.0]]), 1.0, 6)
    u = Trajectory(dt=DT, values=np.stack([WAVE, 0.5 * WAVE], axis=1))
    assert bank.respond(u).values.shape == u.values.shape
    with pytest.raises(ValueError, match="1 channels, the kernel expects 2"):
        bank.respond(Trajectory(dt=DT, values=WAVE))
    with pytest.raises(ValueError, match="1 channels, the kernel expects 2"):
        bank.zero_state_response(WAVE, DT)


# gain entry point -> call on a gain k
GAINS = {
    "split_symmetric": split_symmetric,
    "factor_psd": factor_psd,
    "MemorylessSystem.from_gain": lambda k: MemorylessSystem.from_gain(k).factor,
    "memoryless_error_bound": lambda k: memoryless_error_bound(
        k, 1.0, 8, Trajectory(dt=DT, values=WAVE)),
    "EnergySupplyApprox": lambda k: EnergySupplyApprox(k, 1.0).gain,
    "supply_error_bound": lambda k: supply_error_bound(k, 1.0, 1.0, 1.0),
    "supply_error_running_bound": lambda k: supply_error_running_bound(
        k, Trajectory(dt=DT, values=WAVE), 1.0),
    "johnson_nyquist_intensity": lambda k: johnson_nyquist_intensity(k, 1.0),
    "check_dissipative": lambda k: check_dissipative(k).min_eigenvalue,
}


@pytest.mark.parametrize("entry", GAINS)
def test_scalar_gain_is_the_one_port_gain(entry):
    scalar = _arrays(GAINS[entry](2.0))
    matrix = _arrays(GAINS[entry]([[2.0]]))
    for a, b in zip(scalar, matrix):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("entry", GAINS)
def test_one_dimensional_gain_is_rejected(entry):
    with pytest.raises(ValueError, match="square"):
        GAINS[entry]([2.0])


def test_reversal_input_must_match_the_system_ports():
    # the signature and the input agree, the one-port system does not
    two = Trajectory(dt=DT, values=np.stack([WAVE, 0.5 * WAVE], axis=1))
    with pytest.raises(ValueError, match="2 channels, the system expects 1"):
        check_time_reversible(LC, SignatureMatrix.identity(2), two)
