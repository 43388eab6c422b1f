"""Changes of unit: a run expressed in another time or energy unit gives
the same numbers, scaled by that unit's power, and passes the same checks.

A power of 2 is exact in binary floating point, so these comparisons are
bit for bit unless the code under test rounds differently on the two
scales.
"""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from lossless import BOLTZMANN_SI, Device, MeasuredSystem, measured_lc, riccati_solve, simulate_device
from lossless.cli import main

# the acceptance tests' grid: 40 geometric points on [1e-3, 1], 80 linear ones on [1.5, 100]
GRID = np.concatenate([np.geomspace(1e-3, 1.0, 40), np.linspace(1.5, 100.0, 80)])


class TestTimeUnit:
    @pytest.mark.parametrize("k", [-14, -10, -6, 3, 10])
    def test_riccati_floor_is_unit_free(self, k):
        # the system in a time unit 2^k: J / 2^k, k_m / 2^k and t 2^k
        lc, unit = measured_lc(), 2.0**k
        ref = riccati_solve(lc, 1.0, 1.0, GRID)
        scaled = MeasuredSystem(J=lc.J / unit, B=lc.B, x0=lc.x0)
        sol = riccati_solve(scaled, 1.0 / unit, 1.0, GRID * unit)
        assert np.array_equal(sol.m_star, ref.m_star)
        assert np.array_equal(sol.state_covariance, ref.state_covariance)


class TestEnergyUnit:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_m1hat_covariance_scales_with_kbt(self, seed):
        # one seed draws the same noise at both temperatures, and a trial's
        # offset from the noise-free chain is its noise term alone, so P / k_B T
        # keeps every digit even at k_B T = BOLTZMANN_SI
        cov = []
        for kbt in (1.0, BOLTZMANN_SI):
            dev = Device(variant="M1hat", admittance=1.0, temperature=kbt)
            out = simulate_device(measured_lc(), dev, 1e-3, 1e-3 / 256, trials=2000, seed=seed)
            cov.append(out.P / kbt)
        np.testing.assert_allclose(cov[1], cov[0], rtol=0, atol=1e-12 * np.abs(cov[0]).max())

    @staticmethod
    def _measure(tmp_path, name, **entries):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"seed": 1, **entries}), encoding="utf-8")
        code = main(["measure", "--config", str(path), "--out", str(tmp_path / name)])
        with open(tmp_path / name / "outcome.csv", encoding="utf-8") as fh:
            row = next(csv.DictReader(fh))
        return code, row

    @pytest.mark.parametrize("power", [70, -70])
    def test_measure_scales_with_the_energy_unit(self, tmp_path, power):
        # every energy times 2^power: x0 by 2^(power/2), k_B T and E_m by 2^power
        amp = 2.0 ** (power // 2)
        lc = measured_lc()
        model = {"J": lc.J.tolist(), "B": lc.B[:, None].tolist(), "x0": lc.x0.tolist()}
        code, unit = self._measure(tmp_path, "unit", model=model)
        assert code == 0
        scaled_model = {**model, "x0": (amp * lc.x0).tolist()}
        code, scaled = self._measure(tmp_path, "scaled", model=scaled_model,
                                     temperature=amp**2, e_m=10.0 * amp**2)
        assert code == 0
        amplitudes = ("y_hat", "b_d_norm", "b_mean_norm", "delta_y", "delta_y_hat",
                      "mean_error", "max_correction_residual")
        energies = ("trace_p", "m_star", "estimate_variance", "product")
        for name in amplitudes:
            assert float(scaled[name]) == amp * float(unit[name]), name
        for name in energies:
            assert float(scaled[name]) == amp**2 * float(unit[name]), name

    def test_measure_passes_at_a_high_temperature(self, tmp_path):
        # the correction residual is rounding on the thermal scale, 3.98e-10
        # here, which an absolute bound of 1e-10 would call a failure
        code, row = self._measure(tmp_path, "hot", temperature=1e8)
        assert code == 0
        assert float(row["max_correction_residual"]) > 1e-10
