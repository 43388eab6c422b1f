"""Experiment-runner tests: config schema, CSV conventions, exit codes.

Runs go through `main` in-process with configs written to tmp_path, so
every artifact lands in a throwaway directory.  Trial counts are kept
small; the statistical heavy lifting lives in the acceptance tests.
"""

import csv
import importlib.util
import io
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lossless
from lossless._util import cumulative_trapezoid, derive_rng
from lossless.approx_nonlinear import (
    simulate_energy_supply,
    supply_error_bound,
    supply_error_running_bound,
)
from lossless.cli import (
    _RUNNERS,
    EXPERIMENTS,
    ConfigError,
    _CSV_BLOCK_ROWS,
    _check,
    _format_cell,
    _format_column,
    _write_csv,
    build_config,
    config_schema,
    main,
    validate,
)
from lossless.statespace import Trajectory
from lossless.thermal import BOLTZMANN_SI


def _write_config(tmp_path, name="config.json", **entries):
    path = tmp_path / name
    path.write_text(json.dumps(entries), encoding="utf-8")
    return path


# One malformed value per kind of field: (experiment, field, value).
MALFORMED = [
    ("approx-memoryless", "gain", 0.0),
    ("fdt", "lag_count", 2.5),
    ("measure", "variant", "M3"),
    ("approx-memoryless", "n_values", [4, "8"]),
    ("approx-memoryless", "n_values", [4, 1]),
    ("approx-nonlinear", "e0_values", [1e2, None]),
    ("approx-nonlinear", "e0_values", [1e2, -1.0]),
    ("table1", "variants", ["M1", 2]),
    ("table1", "variants", ["M1", "M3"]),
    ("tradeoff", "tm_values", [1e-3, 1e-2, 3e-3]),
    ("table1", "variants", ["M1", "M2", "M1"]),
    ("fdt", "seed", -1),
    ("fdt", "threads", 0),
    ("fdt", "out", ""),
    ("fdt", "boltzmann", "x"),
    ("fdt", "boltzmann", -1),
    ("fdt", "model", {"file": 3}),
    ("approx-dissipative", "kernel", {"file": 3}),
    ("approx-memoryless", "gain", -1.0),
]

# The test_11 acceptance configs and the checks each experiment asserts there.
CHECK_NAMES = [
    ("approx-memoryless", {"n_values": [4, 8, 16], "dt": 1e-3},
     ["bound_dominates", "convergence_slope"]),
    ("approx-dissipative", {"epsilon": 0.5, "tau": 2.0},
     ["skew_residual_zero", "shifted_residues_psd", "l2_error_within_target", "coefficient_decay"]),
    ("approx-nonlinear", {"seed": 9, "trials": 3, "e0_values": [1e2, 1e4, 1e6]},
     ["running_bound_holds", "flat_bound_holds", "memoryless_slope", "generic_slope"]),
    ("fdt", {"seed": 2, "trials": 600, "lag_max": 2.0, "lag_count": 5, "samples": 800},
     ["equipartition_3se", "fluctuation_kernel_5se", "kernel_stationarity_5se"]),
    ("langevin", {"seed": 3, "horizon": 60.0, "burn_in": 500, "noise_steps": 2000},
     ["stationary_variance_5pct", "johnson_variance_5pct"]),
    ("measure", {"seed": 7, "variant": "M1hat", "trials": 300},
     ["correction_identity", "covariance_psd"]),
    ("tradeoff", {"seed": 4, "variant": "M2hat", "tm_values": [1e-3], "km_values": [0.5, 2.0],
                  "trials": 300},
     ["product_floor", "rhs_admittance_invariant"]),
    ("table1", {"seed": 1, "variants": ["M1", "M1hat"], "tm_values": [1e-3, 3e-3], "trials": 200},
     ["m1_noise_columns_zero", "m1_bd_coefficient", "m1hat_bd_coefficient",
      "m1hat_trace_coefficient", "m1hat_deltay_coefficient", "m1hat_mstar_exponent"]),
]

# Every file each experiment writes, in output order, with its header row.
HEADERS = {
    "approx-memoryless": {"memoryless.csv": "N,measured_error,error_bound"},
    "approx-dissipative": {
        "summary.csv": "n_harmonics,horizon,shift,state_dimension,peak_gain,error_constant,"
                       "kernel_mass,derivative_mass,tail_mass,l2_error,target_error,"
                       "skew_residual,min_shifted_eig",
        "coefficients.csv": "k,coefficient_norm,decay_envelope,shifted_min_eig",
    },
    "approx-nonlinear": {
        "inequality.csv": "trial,e0,peak_input,max_error,running_ratio,flat_ratio",
        "convergence.csv": "e0,memoryless_error,generic_error",
    },
    "fdt": {
        "fdt.csv": "lag,analytic,empirical,stderr",
        "equipartition.csv": "samples,mean_energy,expected_energy,stderr",
    },
    "langevin": {
        "trajectory.csv": "time,x1",
        "stationary.csv": "component,variance,expected",
        "johnson.csv": "gain,temperature,dt,steps,variance,expected",
    },
    "measure": {
        "outcome.csv": "variant,t_m,k_m,dt,trials,y_hat,b_d_norm,b_mean_norm,trace_p,delta_y,"
                       "delta_y_hat,m_star,estimate_variance,mean_error,product,"
                       "max_correction_residual",
        "record.csv": "time,y_m",
    },
    "tradeoff": {"tradeoff.csv": "t_m,k_m,lhs,rhs,ratio"},
    "table1": {
        "table1.csv": "variant,t_m,b_d_norm,trace_p,delta_y_sq,m_star,estimate_variance",
        "fits.csv": "variant,column,exponent,slope,coefficient,reference,ratio,note",
    },
}


class TestCheck:
    def test_value_at_the_bound_passes(self):
        assert _check("c", 0.1, at_most=0.1, what="x").passed
        assert _check("c", -1e-10, at_least=-1e-10, what="x").passed
        assert not _check("c", np.nextafter(0.1, 1.0), at_most=0.1, what="x").passed

    def test_nan_fails(self):
        for bounds in ({"at_most": 1.0}, {"at_least": 0.0}, {"at_least": 0.0, "at_most": 1.0}):
            assert not _check("c", float("nan"), what="x", **bounds).passed

    def test_two_sided_bounds(self):
        inside = _check("slope", 2.0, at_least=1.9, at_most=2.1, what="log-log slope")
        assert inside.passed
        assert inside.detail == "log-log slope = 2, want 1.9 to 2.1"
        assert _check("slope", 1.9, at_least=1.9, at_most=2.1, what="s").passed
        assert not _check("slope", 1.8, at_least=1.9, at_most=2.1, what="s").passed
        assert not _check("slope", 2.2, at_least=1.9, at_most=2.1, what="s").passed

    def test_detail_gives_value_and_bound(self):
        check = _check("l2", 0.25, at_most=0.5, what="L2 error")
        assert (check.name, check.detail) == ("l2", "L2 error = 0.25, want at most 0.5")
        assert _check("psd", -3e-17, at_least=-1e-10, what="e").detail == "e = -3e-17, want at least -1e-10"

    def test_an_allowance_past_one_shows_in_full(self):
        # approx-nonlinear's default bound 1 + (m + 2p + 10) eps, m = 501, p = 2,
        # which six significant digits would print as 1
        check = _check("r", 0.96, at_most=1.0 + 515 * np.finfo(float).eps, what="ratio")
        assert check.detail == "ratio = 0.96, want at most 1.0000000000001144"


class TestConfigSchema:
    @pytest.mark.parametrize("experiment, field, value", MALFORMED)
    def test_malformed_value_names_its_field(self, tmp_path, experiment, field, value):
        path = _write_config(tmp_path, **{"seed": 1, field: value})
        with pytest.raises(ConfigError) as err:
            build_config(experiment, path)
        assert err.value.field.startswith(field)

    def test_every_experiment_has_a_runner(self):
        assert sorted(_RUNNERS) == sorted(EXPERIMENTS)

    def test_defaults_fill_in(self):
        cfg = build_config("approx-memoryless")
        assert cfg.params["tau"] == 1.0
        assert cfg.params["n_values"] == [4, 8, 16, 32, 64, 128, 256]
        assert cfg.seed is None
        assert cfg.threads == 1
        assert cfg.boltzmann == 1.0
        assert cfg.out == "results/approx-memoryless"

    def test_flags_beat_file_beats_defaults(self, tmp_path):
        path = _write_config(tmp_path, seed=1, threads=2, tau=3.0)
        cfg = build_config("approx-memoryless", path, seed=9, out="elsewhere")
        assert cfg.seed == 9
        assert cfg.threads == 2
        assert cfg.params["tau"] == 3.0
        assert cfg.out == "elsewhere"

    def test_missing_seed_on_stochastic_names_the_field(self):
        with pytest.raises(ConfigError, match="seed"):
            build_config("fdt")

    def test_negative_tau_rejected(self, tmp_path):
        path = _write_config(tmp_path, tau=-1.0)
        with pytest.raises(ConfigError, match="'tau'"):
            build_config("approx-memoryless", path)

    def test_unknown_field_named(self, tmp_path):
        path = _write_config(tmp_path, seed=1, bogus=2)
        with pytest.raises(ConfigError, match="'bogus'"):
            build_config("fdt", path)

    def test_experiment_mismatch_rejected(self, tmp_path):
        path = _write_config(tmp_path, experiment="fdt", seed=1)
        with pytest.raises(ConfigError, match="subcommand"):
            build_config("langevin", path)

    def test_malformed_json_reported_with_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            build_config("fdt", path)

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            build_config("fdt", tmp_path / "nope.json")

    def test_seed_must_be_a_nonnegative_integer(self, tmp_path):
        for bad in (3.5, True, "3", -1):
            path = _write_config(tmp_path, seed=bad)
            with pytest.raises(ConfigError, match="'seed'"):
                build_config("fdt", path)

    def test_boltzmann_presets(self, tmp_path):
        assert build_config("fdt", _write_config(tmp_path, seed=1, boltzmann="si")).boltzmann == BOLTZMANN_SI
        assert build_config("fdt", _write_config(tmp_path, seed=1, boltzmann="unit")).boltzmann == 1.0
        assert build_config("fdt", _write_config(tmp_path, seed=1, boltzmann=2.0)).boltzmann == 2.0
        with pytest.raises(ConfigError, match="'boltzmann'"):
            build_config("fdt", _write_config(tmp_path, seed=1, boltzmann="kelvin"))
        with pytest.raises(ConfigError, match="'boltzmann'"):
            build_config("fdt", _write_config(tmp_path, seed=1, boltzmann=-1.0))

    def test_measure_needs_a_seed_only_when_noisy(self, tmp_path):
        cfg = build_config("measure", _write_config(tmp_path, variant="M1"))
        assert cfg.seed is None
        with pytest.raises(ConfigError, match="seed"):
            build_config("measure", _write_config(tmp_path, variant="M1hat"))

    def test_model_file_must_exist(self, tmp_path):
        path = _write_config(tmp_path, seed=1, model={"file": "missing.json"})
        with pytest.raises(ConfigError, match="does not exist"):
            build_config("fdt", path)

    def test_model_file_resolved_next_to_the_config(self, tmp_path):
        (tmp_path / "model.json").write_text(
            json.dumps({"J": [[0.0, -1.0], [1.0, 0.0]], "B": [[1.0], [0.0]]}),
            encoding="utf-8",
        )
        path = _write_config(tmp_path, seed=1, model={"file": "model.json"})
        cfg = build_config("fdt", path)
        assert cfg.params["model"]["J"] == [[0.0, -1.0], [1.0, 0.0]]

    def test_model_requires_every_matrix(self, tmp_path):
        path = _write_config(tmp_path, seed=1, model={"J": [[0.0]]})
        with pytest.raises(ConfigError, match="missing matrix 'B'"):
            build_config("fdt", path)

    def test_kernel_shape_validation(self, tmp_path):
        path = _write_config(tmp_path, kernel={"dt": 0.1, "values": [[1.0, 0.0]]})
        with pytest.raises(ConfigError, match="'kernel'"):
            build_config("approx-dissipative", path)

    def test_variant_choices(self, tmp_path):
        path = _write_config(tmp_path, seed=1, variant="M3")
        with pytest.raises(ConfigError, match="'variant'"):
            build_config("measure", path)

    def test_validate_accepts_a_built_config(self):
        cfg = build_config("tradeoff", seed=1)
        assert validate(cfg) == []

    def test_echo_round_trips(self, tmp_path):
        cfg = build_config("tradeoff", seed=5, out="somewhere")
        path = tmp_path / "echo.json"
        path.write_text(json.dumps(cfg.echo()), encoding="utf-8")
        assert build_config("tradeoff", path) == cfg

    def test_schema_is_published(self):
        family = config_schema()
        assert set(family) == set(EXPERIMENTS)
        fdt = config_schema("fdt")
        assert fdt["additionalProperties"] is False
        assert fdt["properties"]["lag_count"]["default"] == 50
        assert fdt["properties"]["threads"]["minimum"] == 1


def _reference_csv(header, rows) -> bytes:
    """The CSV text of the per-cell writer: csv.writer on formatted cells."""
    def cell(value):
        if isinstance(value, (bool, np.bool_)):
            return "true" if value else "false"
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        if isinstance(value, (float, np.floating)):
            return format(float(value), ".17g")
        return str(value)

    text = io.StringIO(newline="")
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([cell(value) for value in row])
    return text.getvalue().encode("utf-8")


FLOAT_CELLS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.0, 1e16, 2.0**53 + 2,
               1.0 / 3.0, float("inf"), float("-inf"), float("nan")]


class TestCsvWriter:
    def test_float_cells_match_per_cell_formatting(self, tmp_path):
        values = np.array(FLOAT_CELLS)
        table = np.column_stack([values, -values[::-1]])
        path = tmp_path / "floats.csv"
        for columns in ({"a": table[:, 0], "b": table[:, 1]}, dict(zip("ab", table.T.tolist()))):
            _write_csv(path, columns)
            assert path.read_bytes() == _reference_csv(("a", "b"), table.tolist())

    def test_float64_column_formats_as_its_cells(self):
        column = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324])
        assert _format_column(column) == [_format_cell(cell) for cell in column]
        assert _format_column(column) == ["nan", "inf", "-inf", "-0", "4.9406564584124654e-324"]
        for other in (column.astype(np.float32), np.array([-3, 0, 7]), np.array([True, False])):
            assert _format_column(other) == [_format_cell(cell) for cell in other]

    def test_mixed_rows_match_per_cell_formatting(self, tmp_path):
        rows = [
            (1, np.int64(-7), True, np.bool_(False), "a,b", 0.1, np.float32(0.1)),
            (2, np.int32(3), False, np.bool_(True), 'say "x"', np.float64(-0.0), float("nan")),
            (3, np.uint8(255), True, np.bool_(True), "plain", 1e16, np.float32(2.5)),
        ]
        path = tmp_path / "mixed.csv"
        _write_csv(path, dict(zip(("i", "n", "b", "nb", "s", "f", "f32"), map(list, zip(*rows)))))
        raw = path.read_bytes()
        assert raw == _reference_csv(("i", "n", "b", "nb", "s", "f", "f32"), rows)
        assert b'"a,b"' in raw

    def test_blocks_join_seamlessly(self, tmp_path):
        table = np.random.default_rng(4).standard_normal((2 * _CSV_BLOCK_ROWS + 17, 3))
        path = tmp_path / "long.csv"
        _write_csv(path, dict(zip(("x", "y", "z"), table.T)))
        assert path.read_bytes() == _reference_csv(("x", "y", "z"), table.tolist())

    def test_no_rows_writes_the_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        _write_csv(path, {"k": [], "v": np.array([])})
        assert path.read_bytes() == b"k,v\n"

    def test_columns_of_unequal_length_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="differ in length"):
            _write_csv(tmp_path / "ragged.csv", {"k": [1, 2], "v": [0.5]})

    @pytest.mark.parametrize("header, rows", [
        (("s",), [("",), ("x",), ("",)]),  # a lone empty cell is written as ""
        (("s", "t"), [("", ""), ("", "x")]),  # beside others it stays empty
        (("s", "f"), [("line\nbreak", 1.5), ("\n", 2.5)]),
        (("s", "f"), [("carriage\rreturn", 1.5), ("\r", -0.0)]),  # left unquoted
        (("a,b", 'say "x"', ""), [(1, 2.0, "q"), (3, 4.0, "r")]),
        (("lone, header",), [(0.5,), (0.25,)]),
    ])
    def test_text_cells_quote_as_csv_writer_does(self, tmp_path, header, rows):
        path = tmp_path / "quoted.csv"
        _write_csv(path, dict(zip(header, map(list, zip(*rows)))))
        assert path.read_bytes() == _reference_csv(header, rows)

    def test_integer_array_beside_float_arrays(self, tmp_path):
        values = np.array(FLOAT_CELLS)
        counts = np.arange(len(values), dtype=np.int64) * -(2**40)
        path = tmp_path / "ints.csv"
        _write_csv(path, {"x": values, "n": counts, "y": values[::-1]})
        rows = list(zip(values.tolist(), counts.tolist(), values[::-1].tolist()))
        assert path.read_bytes() == _reference_csv(("x", "n", "y"), rows)

    @staticmethod
    def _assert_cells_exact(path, values):
        """Two float64 columns of `values` against per-cell '%.17g'."""
        table = np.asarray(values, dtype=np.float64).reshape(-1, 2)
        _write_csv(path, {"a": table[:, 0], "b": table[:, 1]})
        want = "a,b\n" + "%.17g,%.17g\n" * len(table) % tuple(table.ravel().tolist())
        assert path.read_bytes() == want.encode()

    def test_random_bit_patterns(self, tmp_path):
        # every sign and binary exponent, subnormals, nan, inf and +-0; the
        # second half keeps the exponents of 1e-11 <= |x| < 1e17, which are
        # formed in numpy rather than by Python
        rng = np.random.default_rng(43)
        half = 5 * 10**5
        bits = rng.integers(0, 2**64, size=2 * half, dtype=np.uint64)
        exponents = rng.integers(1023 - 37, 1023 + 57, size=half, dtype=np.uint64)
        bits[half:] = bits[half:] & ~np.uint64(0x7FF << 52) | exponents << np.uint64(52)
        bits[:8] = [0, 1 << 63, 1, 0x7FF << 52, 0xFFF << 52, 0x7FF8 << 48, 0x000FFFFFFFFFFFFF, 2]
        self._assert_cells_exact(tmp_path / "bits.csv", bits.view(np.float64))

    def test_round_half_even_ties(self, tmp_path):
        # k / 2**f with k odd and k 5**f of 18 digits ends in a 5: an exact
        # tie at 17 digits, which rounds to the even neighbour.  One bit
        # (f = 1) gives 17 digits exactly.
        rng = np.random.default_rng(44)
        cells = []
        for f in range(1, 12):
            low, high = (2**52, 2**53) if f == 1 else (-(-(10**17) // 5**f), min(2**53, 10**18 // 5**f))
            k = rng.integers(low, high, size=2000) | 1
            cells.append(np.ldexp(k.astype(np.float64), -f))
            digits = {len(str(int(v) * 5**f)) for v in k}
            assert digits == ({17} if f == 1 else {18})
        cells = np.concatenate(cells)
        self._assert_cells_exact(tmp_path / "ties.csv", np.concatenate([cells, -cells]))

    def test_powers_of_ten_and_their_neighbours(self, tmp_path):
        # 9.9999999999999995e-08 rounds up to 10**16 at the exponent log10
        # gives, and must be read again one place lower
        powers = 10.0 ** np.arange(-12, 18)
        cells = [powers]
        for _ in range(3):
            cells = [np.nextafter(cells[0], 0)] + cells + [np.nextafter(cells[-1], np.inf)]
        cells = np.concatenate(cells)
        assert 9.9999999999999995e-08 in cells
        self._assert_cells_exact(tmp_path / "tens.csv", np.concatenate([cells, -cells]))

    def test_block_boundary_with_text_beside_floats(self, tmp_path):
        n = _CSV_BLOCK_ROWS + 3
        rng = np.random.default_rng(45)
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-14, 19, n)
        x[_CSV_BLOCK_ROWS - 2 : _CSV_BLOCK_ROWS + 2] = [np.nan, -0.0, 1e-9, 1e300]
        labels = [f"r{i}" for i in range(n)]
        path = tmp_path / "boundary.csv"
        _write_csv(path, {"x": x, "label": labels, "y": -x[::-1].copy()})
        rows = list(zip(x.tolist(), labels, (-x[::-1]).tolist()))
        assert path.read_bytes() == _reference_csv(("x", "label", "y"), rows)

    def test_text_cells_keep_every_byte(self, tmp_path):
        # NUL, quotes, commas and non-ASCII text beside float columns: the
        # frames' padding byte (0xFF) is one that UTF-8 never uses
        text = ["\x00", 'a "b"', "c,d", "ÿÿé€𝄞", "", "\x00,\x00"]
        x = np.linspace(-1.0, 1.0, len(text))
        path = tmp_path / "text.csv"
        _write_csv(path, {"x": x, "s": text, "y": x * 1e-7})
        rows = list(zip(x.tolist(), text, (x * 1e-7).tolist()))
        assert path.read_bytes() == _reference_csv(("x", "s", "y"), rows)
        assert path.read_bytes().count(b"\x00") == 3


class TestRunsAndArtifacts:
    def test_memoryless_csv_contract(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, n_values=[4, 8, 16], dt=1e-3)
        out = tmp_path / "mem"
        assert main(["approx-memoryless", "--config", str(cfg), "--out", str(out)]) == 0
        raw = (out / "memoryless.csv").read_bytes()
        assert b"\r" not in raw
        lines = raw.decode("utf-8").splitlines()
        assert lines[0] == "N,measured_error,error_bound"
        assert len(lines) == 4
        for line in lines[1:]:
            n, measured, bound = line.split(",")
            assert float(measured) <= float(bound)
            # 17 significant digits round-trip: re-rendering reproduces the text
            assert format(float(measured), ".17g") == measured
            assert format(float(bound), ".17g") == bound
        assert "check bound_dominates: pass" in capsys.readouterr().out

    def test_manifest_contents(self, tmp_path):
        cfg = _write_config(tmp_path, n_values=[4, 8, 16], dt=1e-3)
        out = tmp_path / "mem"
        assert main(["approx-memoryless", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["experiment"] == "approx-memoryless"
        assert manifest["outputs"] == ["memoryless.csv"]
        assert all(check["passed"] for check in manifest["checks"])
        assert set(manifest["versions"]) == {"lossless", "numpy", "scipy", "python"}
        # the config echo is itself a working config file
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps(manifest["config"]), encoding="utf-8")
        rebuilt = build_config("approx-memoryless", echo)
        assert rebuilt.params["n_values"] == [4, 8, 16]

    def test_rerun_is_bitwise_identical(self, tmp_path):
        # 300 trials fit in one chunk and 2100 span three; every chunk runs in
        # the calling thread, and --threads 3 must not change a byte
        for variant, trials in (("M1hat", 300), ("M1hat", 2100), ("M2hat", 2100)):
            cfg = _write_config(tmp_path, variant=variant, trials=trials, seed=7)
            first, second, threaded = (tmp_path / f"{n}{variant}{trials}" for n in ("a", "b", "c"))
            assert main(["measure", "--config", str(cfg), "--out", str(first)]) == 0
            assert main(["measure", "--config", str(cfg), "--out", str(second)]) == 0
            argv = ["measure", "--config", str(cfg), "--out", str(threaded), "--threads", "3"]
            assert main(argv) == 0
            for name in ("outcome.csv", "record.csv"):
                baseline = (first / name).read_bytes()
                assert (second / name).read_bytes() == baseline
                assert (threaded / name).read_bytes() == baseline

    def test_langevin_reads_boltzmann_times_temperature(self, tmp_path):
        # k_B T = 2.0 * 0.5 = 1 exactly: the default run's bytes, but for the
        # temperature that johnson.csv echoes from the config
        runs = {}
        for name, entries in (("unit", {}), ("scaled", {"boltzmann": 2.0, "temperature": 0.5})):
            cfg = _write_config(tmp_path, f"{name}.json", seed=1, **entries)
            assert main(["langevin", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
            runs[name] = {p.name: p.read_text(encoding="utf-8") for p in (tmp_path / name).glob("*.csv")}
        johnson = {name: next(csv.DictReader(io.StringIO(files.pop("johnson.csv"))))
                   for name, files in runs.items()}
        assert runs["scaled"] == runs["unit"]
        assert (johnson["unit"].pop("temperature"), johnson["scaled"].pop("temperature")) == ("1", "0.5")
        assert johnson["scaled"] == johnson["unit"]

    @pytest.mark.parametrize("experiment", sorted(lossless.cli._ALWAYS_SEEDED))
    def test_the_si_preset_passes_as_unit_does(self, tmp_path, experiment):
        names = {}
        for preset in ("unit", "si"):
            cfg = _write_config(tmp_path, f"{preset}.json", seed=1, boltzmann=preset)
            assert main([experiment, "--config", str(cfg), "--out", str(tmp_path / preset)]) == 0
            checks = json.loads((tmp_path / preset / "manifest.json").read_text(encoding="utf-8"))["checks"]
            names[preset] = [c["name"] for c in checks]
        assert names["si"] == names["unit"]

    def test_fdt_small_run(self, tmp_path):
        cfg = _write_config(tmp_path, seed=2, trials=600, lag_max=2.0, lag_count=5, samples=800)
        out = tmp_path / "fdt"
        assert main(["fdt", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "fdt.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "lag,analytic,empirical,stderr"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 1.0
        equi = (out / "equipartition.csv").read_text(encoding="utf-8").splitlines()
        assert equi[0] == "samples,mean_energy,expected_energy,stderr"
        assert float(equi[1].split(",")[2]) == 1.5

    def test_tradeoff_small_run(self, tmp_path):
        cfg = _write_config(
            tmp_path, seed=4, variant="M1hat", tm_values=[1e-3], km_values=[0.5, 2.0], trials=300
        )
        out = tmp_path / "tr"
        assert main(["tradeoff", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "tradeoff.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t_m,k_m,lhs,rhs,ratio"
        rows = [line.split(",") for line in lines[1:]]
        assert [float(r[3]) for r in rows] == [2.0, 2.0]
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        notes = {obs["name"] for obs in manifest["observations"]}
        assert "product_ratio_range" in notes

    def test_table1_ideal_variants_are_deterministic(self, tmp_path):
        cfg = _write_config(
            tmp_path, seed=1, variants=["M1", "M2"], tm_values=[1e-3, 3e-3], trials=2
        )
        out = tmp_path / "t1"
        assert main(["table1", "--config", str(cfg), "--out", str(out)]) == 0
        fits = (out / "fits.csv").read_text(encoding="utf-8").splitlines()
        assert fits[0] == "variant,column,exponent,slope,coefficient,reference,ratio,note"
        m2 = [line for line in fits[1:] if line.startswith("M2,")]
        assert len(m2) == 4 and all("identically zero" in line for line in m2)

    def test_table1_supply_backed_variant(self, tmp_path):
        # b_d is deterministic, so its slope check holds at every seed
        cfg = _write_config(
            tmp_path, seed=1, variants=["M2", "M2hat"], tm_values=[1e-3, 3e-3], trials=64
        )
        out = tmp_path / "t1"
        assert main(["table1", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        checks = {c["name"]: c for c in manifest["checks"]}
        assert checks["m2hat_bd_exponent"]["passed"]
        assert "slope = 2," in checks["m2hat_bd_exponent"]["detail"]
        notes = {obs["name"]: obs["detail"] for obs in manifest["observations"]}
        assert notes["m2hat_bd_adjudication"].startswith("coefficient follows k_m^2 y0^3/(4 E_m)")

    def test_nonlinear_scalar_gain_is_the_one_port_case(self, tmp_path):
        blobs = []
        for name, gain in (("scalar", -0.7), ("matrix", [[-0.7]])):
            cfg = _write_config(
                tmp_path, f"{name}.json", seed=9, trials=3, e0_values=[1e2, 1e4, 1e6], gain=gain
            )
            out = tmp_path / name
            assert main(["approx-nonlinear", "--config", str(cfg), "--out", str(out),
                         "--threads", "1"]) == 0
            blobs.append({f: (out / f).read_bytes() for f in ("inequality.csv", "convergence.csv")})
        assert blobs[0] == blobs[1]

    def test_nonlinear_small_run(self, tmp_path):
        cfg = _write_config(tmp_path, seed=9, trials=3, e0_values=[1e2, 1e4, 1e6])
        out = tmp_path / "nl"
        assert main(["approx-nonlinear", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "inequality.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "trial,e0,peak_input,max_error,running_ratio,flat_ratio"
        assert len(lines) == 4

    @pytest.mark.parametrize("gain", [None, -0.7])
    def test_nonlinear_sweep_is_bitwise_the_per_trial_loop(self, tmp_path, gain):
        # the batched sweep against one closed-form evaluation per input,
        # each from the public functions
        entries = dict(seed=4, trials=7, e0_values=[1e2, 1e4, 1e6])
        if gain is not None:
            entries["gain"] = gain
        cfg = _write_config(tmp_path, **entries)
        assert main(["approx-nonlinear", "--config", str(cfg), "--out", str(tmp_path / "nl")]) == 0
        with open(tmp_path / "nl" / "inequality.csv", encoding="utf-8") as fh:
            got = {name: np.array([float(v) for v in column])
                   for name, *column in zip(*csv.reader(fh))}
        k = np.array([[-1.0, 0.3], [-0.2, -0.5]]) if gain is None else np.array([[gain]])
        horizon, dt = 1.0, 2e-3
        t = np.arange(501) * dt
        modes = np.stack([np.sin((m + 1) * np.pi * t / horizon) / (m + 1) for m in range(3)])
        for trial in range(7):
            rng = derive_rng(4, trial)
            vals = np.einsum("mt,mp->tp", modes, rng.standard_normal((3, len(k))))
            e0 = float(10.0 ** rng.uniform(0.5, 3.0))
            u = Trajectory(dt=dt, values=vals)
            y_e = simulate_energy_supply(k, e0, u)[0].values
            # y_E = k u (1 + c / (2 E0)), c = int u . k u, so its error is
            # ||k u|| |c| / (2 E0); differencing y_E adds y_E's own rounding
            drive = vals @ k.T
            charge = cumulative_trapezoid(np.sum(vals * drive, axis=1), dt)
            err = np.linalg.norm(drive, axis=1) * np.abs(charge / (2.0 * e0))
            rounding = np.finfo(float).eps * np.linalg.norm(y_e, axis=1)
            assert np.all(np.abs(np.linalg.norm(y_e - drive, axis=1) - err) <= rounding)
            peak = float(np.linalg.norm(vals, axis=1).max())
            flat = supply_error_bound(k, peak, horizon, e0)
            flat = flat * np.sqrt(cumulative_trapezoid(np.linalg.norm(vals, axis=1) ** 2, dt))
            running = supply_error_running_bound(k, u, e0).values
            expected = {"e0": e0, "peak_input": peak, "max_error": err.max(),
                        "running_ratio": np.divide(err, running, out=np.zeros(501), where=running > 0).max(),
                        "flat_ratio": np.divide(err, flat, out=np.zeros(501), where=flat > 0).max()}
            for name, value in expected.items():
                assert got[name][trial] == value, (trial, name)

    @pytest.mark.parametrize("bound, check", [(3, "running_bound_holds"), (4, "flat_bound_holds")])
    def test_a_bound_broken_by_one_percent_fails_its_check(self, tmp_path, monkeypatch, bound, check):
        # every error scaled so that the largest error-to-bound ratio is
        # 1.01; at the defaults it is 0.96 (running) and 0.62 (flat), so a
        # 1 % scaling alone would stay under the bound
        real = lossless.cli._supply_forms

        def inflated(*args):
            forms = list(real(*args))
            floor = 2.0 * np.finfo(float).eps * np.linalg.norm(forms[0], axis=-1)
            denom = forms[bound] + floor
            largest = np.divide(forms[2], denom, out=np.zeros_like(denom), where=denom > 0).max()
            forms[2] = forms[2] * (1.01 / largest)
            return tuple(forms)

        monkeypatch.setattr(lossless.cli, "_supply_forms", inflated)
        out = tmp_path / "nl"
        assert main(["approx-nonlinear", "--seed", "1", "--out", str(out)]) == 3
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        checks = {c["name"]: c for c in manifest["checks"]}
        assert not checks[check]["passed"]
        assert "ratio over 100 inputs = 1.01," in checks[check]["detail"]

    def test_failed_check_exits_3_and_still_writes(self, tmp_path):
        # far too short a window for the stationary variance to settle
        cfg = _write_config(tmp_path, seed=3, horizon=2.0, burn_in=0)
        out = tmp_path / "short"
        assert main(["langevin", "--config", str(cfg), "--out", str(out)]) == 3
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert any(not check["passed"] for check in manifest["checks"])

    def test_a_ten_percent_variance_excess_fails_the_stationary_check(self, tmp_path, monkeypatch):
        # negative control at the default config: the path scaled by sqrt(1.1)
        # reads about 0.10 against the 5% window, 3.5 standard errors of 1.42% past it
        exact = lossless.cli.simulate_langevin

        def inflated(*args, **kwargs):
            path = exact(*args, **kwargs)
            return Trajectory(dt=path.dt, values=np.sqrt(1.1) * path.values)

        monkeypatch.setattr(lossless.cli, "simulate_langevin", inflated)
        out = tmp_path / "inflated"
        assert main(["langevin", "--seed", "1", "--out", str(out)]) == 3
        checks = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["checks"]
        assert [c["name"] for c in checks if not c["passed"]] == ["stationary_variance_5pct"]

    def test_multiport_eigenvalues_are_those_of_the_factored_residues(self, tmp_path):
        # A two-port kernel with an antisymmetric part: its residues
        # cos_k + shift I - i sin_k are complex Hermitian, and the real
        # part alone has other eigenvalues (by up to 0.034 here).
        dt = 0.02
        t = np.arange(601) * dt
        off = np.exp(-2 * t) - np.exp(-3 * t)
        vals = np.empty((len(t), 2, 2))
        vals[:, 0, 0], vals[:, 0, 1] = 2 * np.exp(-t), off
        vals[:, 1, 0], vals[:, 1, 1] = -off, 2 * np.exp(-3 * t)
        cfg = _write_config(tmp_path, kernel={"dt": dt, "values": vals.tolist()},
                            epsilon=0.5, tau=3.0)
        out = tmp_path / "twoport"
        assert main(["approx-dissipative", "--config", str(cfg), "--out", str(out)]) == 0

        f = lossless.dissipative_lossless_approx(lossless.Trajectory(dt=dt, values=vals), 0.5, 3.0)
        residues = f.cos_coefficients + f.shift * np.eye(2) + 0j
        residues[1:] -= 1j * f.sin_coefficients
        expected = np.linalg.eigvalsh(residues)[:, 0]
        assert np.abs(f.sin_coefficients).max() > 0.01
        with open(out / "coefficients.csv", encoding="utf-8", newline="") as fh:
            column = [float(row["shifted_min_eig"]) for row in csv.DictReader(fh)]
        assert np.array_equal(column, expected)
        with open(out / "summary.csv", encoding="utf-8", newline="") as fh:
            assert float(next(csv.DictReader(fh))["min_shifted_eig"]) == expected.min()

    def test_zero_kernel_gives_the_empty_bank(self, tmp_path):
        cfg = _write_config(tmp_path, kernel={"dt": 0.1, "values": [0.0, 0.0, 0.0, 0.0]})
        out = tmp_path / "zero"
        assert main(["approx-dissipative", "--config", str(cfg), "--out", str(out)]) == 0
        summary = (out / "summary.csv").read_text(encoding="utf-8").splitlines()
        assert summary[1].split(",")[0] == "0"
        coefficients = (out / "coefficients.csv").read_text(encoding="utf-8")
        assert coefficients == "k,coefficient_norm,decay_envelope,shifted_min_eig\n"
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        verdicts = {check["name"]: check["passed"] for check in manifest["checks"]}
        assert verdicts["shifted_residues_psd"] and verdicts["coefficient_decay"]

    def test_validate_flag(self, tmp_path, capsys):
        assert main(["fdt", "--validate", "--seed", "1"]) == 0
        assert capsys.readouterr().out.strip() == "ok"
        assert main(["fdt", "--validate"]) == 2
        assert "'seed'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment, entries, field",
        [
            ("langevin", {"horizon": 2.0, "burn_in": 1000}, "burn_in"),
            ("langevin", {"horizon": 1.0, "dt": 0.3}, "horizon"),
            ("measure", {"t_m": 0.001, "dt": 0.0003}, "t_m"),
            ("approx-memoryless", {"tau": 1.0, "dt": 0.3}, "tau"),
            ("approx-dissipative", {"span": 10.0, "dt": 0.3}, "span"),
            ("approx-nonlinear", {"horizon": 1.0, "dt": 0.3}, "horizon"),
            ("approx-nonlinear", {"e0_values": [100.0, 1000.0]}, "e0_values"),
            ("fdt", {"model": {"J": [[0.0, 1.0], [1.0, 0.0]], "B": [[1.0], [0.0]]}}, "model"),
            ("measure", {"model": {"J": [[0.0, 1.0], [-1.0, 0.0]], "B": [[1.0], [0.0]],
                                   "x0": [1.0, 0.0, 0.0]}}, "model"),
            ("langevin", {"model": {"J": [[0.0, 0.0], [0.0, 0.0]], "K": [[1.0, 0.5], [0.0, 1.0]],
                                    "B": [[1.0], [0.0]]}}, "model"),
        ],
    )
    def test_cross_field_fault_caught_by_validate(self, tmp_path, capsys, experiment, entries, field):
        cfg = _write_config(tmp_path, **entries)
        assert main([experiment, "--config", str(cfg), "--seed", "1", "--validate"]) == 2
        assert f"'{field}'" in capsys.readouterr().err
        out = tmp_path / "never"
        assert main([experiment, "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 2
        assert f"'{field}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiment, entries, names", CHECK_NAMES)
    def test_check_names_in_order(self, tmp_path, experiment, entries, names):
        out = tmp_path / "out"
        config = build_config(experiment, _write_config(tmp_path, **entries), out=out)
        report = _RUNNERS[experiment](config)
        assert [check.name for check in report.checks] == names
        assert not out.exists()

    @pytest.mark.parametrize("experiment, entries", [case[:2] for case in CHECK_NAMES])
    def test_files_and_headers(self, tmp_path, experiment, entries):
        out = tmp_path / "out"
        main([experiment, "--config", str(_write_config(tmp_path, **entries)), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["outputs"] == list(HEADERS[experiment])
        assert sorted(path.name for path in out.glob("*.csv")) == sorted(HEADERS[experiment])
        for name, header in HEADERS[experiment].items():
            assert (out / name).read_text(encoding="utf-8").split("\n", 1)[0] == header

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, tau=-2.0)
        assert main(["approx-memoryless", "--config", str(cfg)]) == 2
        assert "'tau'" in capsys.readouterr().err

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lossless", "--version"],
            capture_output=True,
            text=True,
            check=False,
        )
        assert proc.returncode == 0
        assert "lossless" in proc.stdout


def _fresh_modules(code: str, *args: str) -> set[str]:
    """The modules a fresh interpreter holds after running `code` (which
    gets `args` as sys.argv[1:]) with this package on its path."""
    code += "\nprint('\\n'.join(sys.modules))\n"
    src = Path(lossless.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    return set(proc.stdout.split())


@pytest.fixture(scope="module")
def setup_modules():
    """The modules a fresh interpreter holds after importing the CLI and
    building every config."""
    return _fresh_modules(
        "import sys, lossless.cli\n"
        "for name in lossless.cli.EXPERIMENTS:\n"
        "    lossless.cli.build_config(name, seed=0, out='unused', threads=1)\n"
    )


def test_setup_code_loads_no_heavy_scipy_subpackage(setup_modules):
    """Importing the CLI and building every config loads no scipy module and
    no numpy.f2py (which scipy's array-API layer imports): they cost most of
    a run's start-up."""
    assert sorted(m for m in setup_modules if m.startswith(("scipy", "numpy.f2py"))) == []


# Reduced configs, as the benchmark's tiny runs take them.
_TINY_RUNS = {
    "measure": {"trials": 64},
    "tradeoff": {"trials": 64, "tm_values": [1e-3, 3e-3], "km_values": [0.5, 1.0]},
    "table1": {"trials": 64, "tm_values": [1e-3, 3e-3]},
    "fdt": {"trials": 2000, "samples": 2000, "lag_count": 10},
    "langevin": {"horizon": 20.0, "burn_in": 100, "noise_steps": 2000},
    "approx-nonlinear": {"trials": 3, "e0_values": [1e2, 1e3, 1e4, 1e5]},
    "approx-memoryless": {"n_values": [4, 8, 16], "dt": 1e-3},
}


@pytest.mark.parametrize("experiment", sorted(_TINY_RUNS))
def test_a_run_loads_neither_scipy_linalg_nor_sparse(tmp_path, experiment):
    """A fresh run imports the scipy package for the manifest's version, but
    no experiment except a CSR bank's loads scipy.linalg or scipy.sparse."""
    config = _write_config(tmp_path, **_TINY_RUNS[experiment])
    modules = _fresh_modules(
        "import sys, lossless.cli\n"
        "code = lossless.cli.main(sys.argv[1:])\n"
        "assert code in (0, 3), code\n",
        experiment, "--seed", "1", "--config", str(config), "--out", str(tmp_path / "out"),
    )
    assert "scipy" in modules
    assert sorted(m for m in modules if m.startswith(("scipy.linalg", "scipy.sparse"))) == []


def test_sparse_test_never_imports_scipy_sparse():
    modules = _fresh_modules(
        "import sys\n"
        "import numpy as np\n"
        "from lossless.statespace import _is_sparse\n"
        "assert _is_sparse(np.eye(3)) is False\n"
        "assert 'scipy.sparse' not in sys.modules\n"
        "import scipy.sparse\n"
        "assert _is_sparse(scipy.sparse.csr_matrix(np.eye(3))) is True\n"
        "assert _is_sparse(np.eye(3)) is False\n"
    )
    assert "scipy.sparse" in modules


def test_a_dense_scan_loads_no_scipy():
    """`check_dissipative` on a generator that is not rotation blocks (the
    LC ladder) scans densely in numpy alone: no scipy.linalg, no scipy."""
    modules = _fresh_modules(
        "import sys\n"
        "from lossless.statespace import check_dissipative, lc_ladder\n"
        "assert check_dissipative(lc_ladder()).dissipative\n"
    )
    assert "lossless.statespace" in modules
    assert sorted(m for m in modules if m.startswith("scipy")) == []


def test_a_seed_sweep_with_a_broken_run_exits_1(tmp_path):
    """bench/seeds.py fails when a run writes no manifest: here the one
    seed's config fails validation, so that run exits 2."""
    config = _write_config(tmp_path, variant="M3")
    script = Path(__file__).resolve().parents[1] / "bench" / "seeds.py"
    proc = subprocess.run([sys.executable, str(script), "measure", "--seeds", "1", "--config", str(config)],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["broken_runs"] == {"0": 2}


def test_a_seed_sweep_reports_each_checks_worst_share(tmp_path):
    """bench/seeds.py reports, per check, the seed whose reading came
    closest to its bound and the share of the bound it used: here the
    larger of the two runs' shares, recomputed from their manifests."""
    config = _write_config(tmp_path, **_TINY_RUNS["langevin"])
    script = Path(__file__).resolve().parents[1] / "bench" / "seeds.py"
    proc = subprocess.run([sys.executable, str(script), "langevin", "--seeds", "2", "--config", str(config)],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    worst = json.loads(proc.stdout.splitlines()[-1])["worst"]
    shares = {}
    for seed in (0, 1):
        out = tmp_path / f"seed_{seed}"
        main(["langevin", "--seed", str(seed), "--config", str(config), "--out", str(out)])
        for check in json.loads((out / "manifest.json").read_text(encoding="utf-8"))["checks"]:
            value, bound = check["detail"].split(" = ")[1].split(", want at most ")
            shares.setdefault(check["name"], {})[seed] = float(value) / float(bound)
    assert set(worst) == set(shares) == {"stationary_variance_5pct", "johnson_variance_5pct"}
    for name, by_seed in shares.items():
        seed = max(by_seed, key=by_seed.get)
        assert worst[name]["seed"] == seed
        assert worst[name]["share"] == pytest.approx(by_seed[seed], rel=1e-12)
        assert f"worst share {by_seed[seed]:.3g} (seed {seed}: " in proc.stdout


def test_a_verdict_record_replays(tmp_path):
    """bench/verdicts.py, as a pytest plugin, records a run's two
    `check_dissipative` calls, and its replay finds them unchanged; a
    recorded verdict the library no longer gives fails the replay, and a
    recorded minimum below today's reading is listed."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    (tmp_path / "test_two.py").write_text(
        "import numpy as np\n"
        "from lossless import check_dissipative\n"
        "def test_two():\n"
        "    assert check_dissipative(np.array([[1.0]])).dissipative\n"
        "    assert not check_dissipative(np.array([[-1.0]])).dissipative\n", encoding="utf-8")
    record = tmp_path / "calls.pkl"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(bench.parent / "src"), str(bench)])}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "verdicts",
                           "--verdicts", str(record), "test_two.py"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    replay = [sys.executable, str(bench / "verdicts.py"), "--replay", str(record)]
    proc = subprocess.run(replay, capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "2 calls: 0 verdicts differ, 0 min_eigenvalue moved up, 0 by more than 1e-8 max(1, |reading|)\n"
    calls = pickle.loads(record.read_bytes())
    assert [(c["verdict"], c["min_eigenvalue"]) for c in calls] == [(True, 2.0), (False, -2.0)]
    calls[0]["min_eigenvalue"], calls[1]["verdict"] = 1.0, True
    record.write_bytes(pickle.dumps(calls))
    proc = subprocess.run(replay, capture_output=True, text=True, check=False)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == [
        "min_eigenvalue 1.0 -> 2.0 *: test_two.py::test_two (call)",
        "verdict True -> False: test_two.py::test_two (call)",
        "2 calls: 1 verdicts differ, 1 min_eigenvalue moved up, 1 by more than 1e-8 max(1, |reading|)",
    ]


def test_ab_verdicts_on_canned_samples():
    """bench/ab.py resolves a change only when the medians differ by more
    than the base side's interquartile range, and counts the pairs in
    which the change reads lower."""
    verdict = _load_bench_script("ab").verdict
    base = [0.21, 0.19, 0.25, 0.20, 0.23, 0.22, 0.19, 0.29, 0.21, 0.20]
    faster = verdict(base, [0.17, 0.16, 0.18, 0.16, 0.17, 0.19, 0.16, 0.18, 0.22, 0.15])
    assert (faster["verdict"], faster["lower"], faster["pairs"]) == ("resolved", 9, 10)
    assert faster["base"]["median"] == 0.21 and faster["change"]["median"] == 0.17
    # a median 0.02 lower, inside the base quartiles 0.1975-0.235
    drift = verdict(base, [0.19, 0.18, 0.24, 0.18, 0.21, 0.20, 0.17, 0.27, 0.19, 0.18])
    assert (drift["verdict"], drift["lower"]) == ("unresolved", 10)
    assert drift["base"]["q1"] == pytest.approx(0.1975) and drift["base"]["q3"] == pytest.approx(0.235)
    slower = verdict([1.0, 1.0, 1.0], [1.5, 1.4, 1.6])
    assert (slower["verdict"], slower["lower"]) == ("resolved", 0)
    assert verdict([2.0], [2.0]) == {"base": {"median": 2.0, "q1": 2.0, "q3": 2.0},
                                     "change": {"median": 2.0, "q1": 2.0, "q3": 2.0},
                                     "lower": 0, "pairs": 1, "verdict": "unresolved"}


def test_ab_runs_the_workloads_at_its_seed(monkeypatch):
    """bench/ab.py passes `--seed` to perfbench/run.py (1 by default) and
    refuses a negative one."""
    ab = _load_bench_script("ab")
    runs = []

    def run(args, **kwargs):
        runs.append(args)
        metrics = {m: {"value": 0.1} for m in ("wall_s", "setup_s", "peak_rss_mib")}
        line = json.dumps({"metrics": metrics, "failed": 0})
        return subprocess.CompletedProcess(args, 0, stdout=line + "\n", stderr="")

    monkeypatch.setattr(ab.subprocess, "run", run)
    assert ab._workload(Path("tree"), "trajectories", 7)["failed"] == 0
    assert runs[0][runs[0].index("--seed") + 1] == "7"
    with pytest.raises(SystemExit):
        ab.main(["HEAD", "--seed", "-1"])
    monkeypatch.setattr(ab, "_export", lambda rev, into: into)
    monkeypatch.setattr(ab, "_alternate", lambda pairs, trees, one: {
        side: [one(tree)] for side, tree in trees.items()})
    runs.clear()
    assert ab.main(["HEAD", "--workloads", "montecarlo", "--pairs", "1"]) == 0
    assert {args[args.index("--seed") + 1] for args in runs} == {"1"}


def test_ab_names_the_cells_that_differ():
    """bench/ab.py --bytes reports a differing CSV's cells, their columns
    and the largest relative deviation; a header or text cell reads inf."""
    cells = _load_bench_script("ab")._cells
    base = b"variant,t_m,value\nM1,0.001,2.0\nM2,0.002,4.0\n"
    assert cells(base, b"variant,t_m,value\nM1,0.001,2.0000000000000004\nM2,0.002,4.0\n") == (
        " in 1 cells (value), largest relative deviation 2.2e-16")
    assert cells(base, b"variant,t_m,value\nM1hat,0.001,2.0\nM2,0.002,3.0\n") == (
        " in 2 cells (value, variant), largest relative deviation inf")
    assert cells(base, b"variant,t_m\nM1,0.001\nM2,0.002\n") == " in shape"
    assert cells(base, None) == ""


def test_ab_layers_of_head_against_itself():
    """bench/ab.py --layers times every case of bench/layers.py in HEAD's
    committed files and in this checkout, one fresh process a side."""
    root = Path(__file__).resolve().parents[1]
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True).returncode:
        pytest.skip("not a git checkout")
    proc = subprocess.run([sys.executable, str(root / "bench" / "ab.py"), "HEAD", "--layers", "--pairs", "1"],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])["layers"]
    assert list(report) == list(_load_bench_script("layers").CASES)
    for case in report.values():
        assert case["pairs"] == 1
        assert all(len(s) == 1 and s[0] > 0 for s in case["samples"].values())
        assert case["min"] == {side: s[0] for side, s in case["samples"].items()}


def test_ab_bytes_of_head_against_itself():
    """bench/ab.py --bytes runs every experiment at its defaults in HEAD's
    committed files and in this checkout, and finds them identical."""
    root = Path(__file__).resolve().parents[1]
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True).returncode:
        pytest.skip("not a git checkout")
    proc = subprocess.run([sys.executable, str(root / "bench" / "ab.py"), "HEAD", "--bytes"],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["bytes"] == []
    assert "  identical" in proc.stdout.splitlines()
    assert proc.stdout.count(": exit 0, ") == len(EXPERIMENTS)


def _load_bench_script(name):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parents[1] / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("detail, badness, share", [
    ("worst variance deviation = 0.04, want at most 0.05", 0.04, 0.8),
    ("largest measured-minus-bound gap = -0.2, want at most 0.0", -0.2, None),
    ("log-log slope = 4, want at least 3.0", -4.0, 0.75),
    ("smallest eigenvalue = 3e-12, want at least -1e-10", -3e-12, None),
    ("log-log slope = 2.05, want 1.9 to 2.1", 0.5, 0.5),
    ("log-log slope = nan, want at most -0.4", math.inf, math.inf),
])
def test_a_check_reading_parses_each_bound_form(detail, badness, share):
    got = _load_bench_script("seeds")._reading(detail)
    assert got[0] == pytest.approx(badness)
    assert got[1] == (None if share is None else pytest.approx(share))


def test_setup_code_loads_no_thread_pool(setup_modules):
    """Importing the CLI and building every config loads no thread pool
    (scipy imports `concurrent.futures` itself, but not its `thread` module)."""
    assert "concurrent.futures.thread" not in setup_modules


def _rotation_bank(states):
    """A lossless measured model of `states` states: 2 x 2 rotations."""
    j = np.zeros((states, states))
    j[np.arange(0, states, 2), np.arange(1, states, 2)] = 1.0
    j -= j.T
    return {"J": j.tolist(), "B": np.eye(states)[:, :1].tolist(), "x0": [1.0] + [0.0] * (states - 1)}


@pytest.mark.parametrize(
    "entries, field",
    [
        ({"t_m": 0.001, "dt": 0.001}, "dt"),
        ({"variant": "M2hat", "t_m": 0.001, "dt": 0.001}, "dt"),
        ({"model": _rotation_bank(258)}, "model"),  # 257 samples at the default dt
    ],
)
def test_a_record_shorter_than_the_state_is_caught_by_validate(tmp_path, capsys, entries, field):
    cfg = _write_config(tmp_path, **entries)
    assert main(["measure", "--config", str(cfg), "--seed", "1", "--validate"]) == 2
    err = capsys.readouterr().err
    assert f"'{field}'" in err and "x0 is not determined" in err


def test_an_ideal_probe_needs_no_record_length(tmp_path):
    cfg = _write_config(tmp_path, variant="M1", t_m=0.001, dt=0.001)
    assert main(["measure", "--config", str(cfg), "--validate"]) == 0
    assert main(["measure", "--config", str(_write_config(tmp_path, model=_rotation_bank(256))),
                 "--seed", "1", "--validate"]) == 0


def test_a_diverging_probe_exits_4(tmp_path, capsys):
    cfg = _write_config(tmp_path, variant="M2hat", t_m=2.0, trials=3000)
    out = tmp_path / "out"
    assert main(["measure", "--config", str(cfg), "--seed", "3", "--out", str(out)]) == 4
    assert "diverged at t = " in capsys.readouterr().err
    assert not out.exists()
