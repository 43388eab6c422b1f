"""Experiment-runner tests: config schema, CSV conventions, exit codes.

Runs go through `main` in-process with configs written to tmp_path, so
every artifact lands in a throwaway directory.  Trial counts are kept
small; the statistical heavy lifting lives in the acceptance tests.
"""

import csv
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from lossless.cli import (
    _RUNNERS,
    EXPERIMENTS,
    ConfigError,
    _CSV_BLOCK_ROWS,
    _check,
    _write_csv,
    build_config,
    config_schema,
    main,
    validate,
)
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
        "inequality.csv": "trial,e0,peak_input,max_error,running_margin,flat_margin",
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
        # 300 trials fit in one chunk; 2100 span three, so --threads 3 runs the pool
        for trials in (300, 2100):
            cfg = _write_config(tmp_path, variant="M1hat", trials=trials, seed=7)
            first, second, threaded = (tmp_path / f"{n}{trials}" for n in ("a", "b", "c"))
            assert main(["measure", "--config", str(cfg), "--out", str(first)]) == 0
            assert main(["measure", "--config", str(cfg), "--out", str(second)]) == 0
            argv = ["measure", "--config", str(cfg), "--out", str(threaded), "--threads", "3"]
            assert main(argv) == 0
            for name in ("outcome.csv", "record.csv"):
                baseline = (first / name).read_bytes()
                assert (second / name).read_bytes() == baseline
                assert (threaded / name).read_bytes() == baseline

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
        assert lines[0] == "trial,e0,peak_input,max_error,running_margin,flat_margin"
        assert len(lines) == 4

    def test_failed_check_exits_3_and_still_writes(self, tmp_path):
        # far too short a window for the stationary variance to settle
        cfg = _write_config(tmp_path, seed=3, horizon=2.0, burn_in=0)
        out = tmp_path / "short"
        assert main(["langevin", "--config", str(cfg), "--out", str(out)]) == 3
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert any(not check["passed"] for check in manifest["checks"])

    def test_numerical_blowup_exits_4(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, seed=3, dt=2.5, horizon=5000.0, burn_in=0)
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["langevin", "--config", str(cfg), "--out", str(tmp_path / "div")])
        assert code == 4
        assert "numerical failure" in capsys.readouterr().err
        assert not (tmp_path / "div").exists()

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
