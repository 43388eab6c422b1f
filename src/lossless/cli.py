"""Command-line experiment runner with reproducible configs and CSV output.

Every pipeline in the library is exposed as a subcommand.  A run reads
an optional JSON config file, fills in defaults, overlays the command
line flags, executes the experiment, and writes plain CSV data files
plus a ``manifest.json`` that echoes the fully resolved configuration
together with library versions and the seed.  Feeding the manifest's
``config`` object back in as a config file reproduces the run exactly.
Random streams belong to fixed-size trial chunks, which run in order in
the calling thread, so the CSV bytes are a pure function of the config.
``--threads`` (and the config's ``threads`` field) is still accepted,
validated and echoed in the manifest, but changes nothing.

Each experiment carries a small set of asserted checks, printed one per
line as ``check <name>: pass (<what> = <value>, want at most <bound>)``
(or ``at least <bound>``, or ``<low> to <high>``); NaN passes no check.
Exit codes: 0 when every check passes, 2 for a malformed config (the
diagnostic names the offending field), 3 when a check fails, and 4 when
the computation itself breaks down numerically.  An experiment computes
all of its tables and checks before anything is written, so a run that
exits 2 or 4 writes nothing, not even the output directory.

A runner names each CSV column once, next to its value: a table is one
mapping from column name to column (a list or 1-D array, all of one
length), and tables of library records take their headers from the
record dataclass's fields.  CSV conventions: header row, UTF-8, LF line
endings, floats at 17 significant digits so values round-trip bit for
bit.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import platform
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from ._util import HOLE, derive_rng, float_frames
from .approx_linear import (
    dissipative_lossless_approx,
    memoryless_error_bound,
    memoryless_lossless_approx,
)
from .approx_nonlinear import (
    _supply_forms,
    _wrapped_paths,
    convergence_order,
    simulate_energy_supply,
)
from .measurement import (
    DEVICE_VARIANTS,
    ColumnFit,
    Device,
    MeasuredSystem,
    SummaryRow,
    TradeoffReport,
    _PROBE_STEPS,
    _VARIANT_NEEDS,
    _cell_seed,
    _is_noisy,
    _require_x0_determined,
    device_summary,
    measured_lc,
    simulate_device,
    tradeoff_product,
)
from .statespace import (
    LosslessLinear,
    Trajectory,
    _input_samples,
    _rk4_states,
    _square_gain,
    _step_count,
    check_lossless,
    lc_ladder,
)
from .thermal import (
    BOLTZMANN_SI,
    LangevinModel,
    ThermalEnsemble,
    empirical_fdt_check,
    internal_energy,
    sample_gibbs,
    sample_johnson_noise,
    simulate_langevin,
)

__all__ = [
    "CheckResult",
    "ConfigError",
    "EXPERIMENTS",
    "ExperimentConfig",
    "RunReport",
    "build_config",
    "config_schema",
    "main",
    "run",
    "validate",
]

# Experiments that draw random numbers no matter how they are configured.
# "measure" joins them only when its probe variant carries thermal noise.
_ALWAYS_SEEDED = frozenset(
    {"approx-nonlinear", "fdt", "langevin", "tradeoff", "table1"}
)

_BOLTZMANN_PRESETS = {"unit": 1.0, "si": BOLTZMANN_SI}


class ConfigError(ValueError):
    """A config field is missing, unknown, or out of range."""

    def __init__(self, field: str, message: str):
        super().__init__(f"field '{field}': {message}")
        self.field = field


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved description of one experiment run.

    `params` holds the experiment-specific entries with every default
    filled in, as plain JSON-serializable values; treat it as read-only.
    `seed` may be None only for deterministic experiments.
    """

    experiment: str
    params: dict
    seed: int | None
    out: str
    threads: int
    boltzmann: float

    def echo(self) -> dict:
        """The manifest's config object; valid input for `build_config`."""
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "out": self.out,
            "threads": self.threads,
            "boltzmann": self.boltzmann,
            **self.params,
        }


@dataclass(frozen=True)
class CheckResult:
    """One asserted property of a finished run."""

    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class RunReport:
    """What a runner hands back: its tables, checks and side notes.

    `outputs` holds one (file name, columns) pair per CSV file, where
    `columns` maps each header to its column; `run` writes them once the
    runner has returned.
    """

    outputs: tuple
    checks: tuple
    observations: tuple = ()


# --------------------------------------------------------------------------
# config schema


@dataclass(frozen=True)
class _Param:
    default: object
    check: object  # callable (value, field, base_dir) -> normalized value
    schema: dict


def _float_param(default=None, *, minimum=None, strict=False, allow_none=False):
    schema: dict = {"type": "number"}
    if minimum is not None:
        schema["exclusiveMinimum" if strict else "minimum"] = minimum
    if default is not None or allow_none:
        schema["default"] = default

    def check(value, field, base):
        if value is None and allow_none:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(field, "must be a number")
        v = float(value)
        if not math.isfinite(v):
            raise ConfigError(field, "must be finite")
        if minimum is not None:
            if strict and v <= minimum:
                raise ConfigError(field, f"must be greater than {minimum:g}")
            if not strict and v < minimum:
                raise ConfigError(field, f"must be at least {minimum:g}")
        return v

    return _Param(default, check, schema)


def _int_param(default=None, *, minimum=None, allow_none=False):
    schema: dict = {"type": "integer"}
    if minimum is not None:
        schema["minimum"] = minimum
    if default is not None:
        schema["default"] = default

    def check(value, field, base):
        if value is None and allow_none:
            return None
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(field, "must be an integer")
        if minimum is not None and value < minimum:
            raise ConfigError(field, f"must be at least {minimum}")
        return int(value)

    return _Param(default, check, schema)


def _choice_param(choices, default=None):
    schema: dict = {"type": "string", "enum": list(choices)}
    if default is not None:
        schema["default"] = default

    def check(value, field, base):
        if value not in choices:
            raise ConfigError(field, f"must be one of {', '.join(choices)}")
        return value

    return _Param(default, check, schema)


def _list_param(item, default, *, min_len=1, increasing=False, distinct=False):
    """A list whose entries each pass `item`'s check, named `field[i]`."""
    schema = {"type": "array", "items": dict(item.schema), "minItems": min_len, "default": default}

    def check(value, field, base):
        if not isinstance(value, (list, tuple)) or len(value) < min_len:
            raise ConfigError(field, f"must be a list of at least {min_len} entries")
        out = [item.check(entry, f"{field}[{i}]", base) for i, entry in enumerate(value)]
        for i in range(1, len(out)):
            if increasing and out[i] <= out[i - 1]:
                raise ConfigError(f"{field}[{i}]", "must be greater than the entry before it")
            if distinct and out[i] in out[:i]:
                raise ConfigError(f"{field}[{i}]", "must differ from every entry before it")
        return out

    return _Param(default, check, schema)


def _path_param(default):
    def check(value, field, base):
        if not isinstance(value, str) or value == "":
            raise ConfigError(field, "must be a nonempty path")
        return value

    return _Param(default, check, {"type": "string", "default": default})


def _boltzmann_param():
    presets = _choice_param(tuple(_BOLTZMANN_PRESETS))
    number = _float_param(minimum=0.0, strict=True)
    schema = {"description": "positive number, or preset 'unit' (1.0) / 'si'", "default": "unit"}

    def check(value, field, base):
        if isinstance(value, str):
            return _BOLTZMANN_PRESETS[presets.check(value, field, base)]
        return number.check(value, field, base)

    return _Param("unit", check, schema)


def _as_nested_floats(value, field, *, ndim):
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(field, "must be a nested array of numbers") from None
    if arr.ndim != ndim:
        raise ConfigError(field, f"must have {ndim} dimension(s), got {arr.ndim}")
    if arr.size == 0 or not np.all(np.isfinite(arr)):
        raise ConfigError(field, "must be nonempty and finite")
    return arr.tolist()


def _gain_param(default):
    scalar = _float_param()
    schema = {
        "description": "scalar gain or square matrix as row-major nested arrays",
        "default": default,
    }

    def check(value, field, base):
        if not isinstance(value, list):
            return scalar.check(value, field, base)
        rows = _as_nested_floats(value, field, ndim=2)
        if len(rows) != len(rows[0]):
            raise ConfigError(field, "matrix must be square")
        return rows

    return _Param(default, check, schema)


def _load_referenced_json(value, field, base, expected):
    """`value` itself, or the JSON object its {"file": path} names.

    A relative path is resolved against `base`, the config file's folder.
    """
    if not isinstance(value, dict):
        raise ConfigError(field, f"must be {expected}")
    if "file" not in value:
        return value
    if len(value) != 1 or not isinstance(value["file"], str):
        raise ConfigError(field, "a file reference holds exactly {\"file\": path}")
    path = Path(value["file"])
    if not path.is_absolute():
        path = (base or Path.cwd()) / path
    if not path.is_file():
        raise ConfigError(field, f"referenced file does not exist: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
    except json.JSONDecodeError as err:
        raise ConfigError(field, f"referenced file is not valid JSON: {err}") from None
    if not isinstance(loaded, dict):
        raise ConfigError(field, "referenced file must hold a JSON object")
    return loaded


def _model_param(matrix_keys, vector_keys=()):
    wanted = tuple(matrix_keys) + tuple(vector_keys)
    schema = {
        "type": "object",
        "description": (
            "matrices {"
            + ", ".join(wanted)
            + "} as row-major nested arrays, inline or {\"file\": path}"
        ),
        "default": None,
    }

    def check(value, field, base):
        if value is None:
            return None
        value = _load_referenced_json(value, field, base, "an object of named matrices")
        unknown = sorted(set(value) - set(wanted))
        if unknown:
            raise ConfigError(field, f"unknown matrix name '{unknown[0]}'")
        out = {}
        for key in matrix_keys:
            if key not in value:
                raise ConfigError(field, f"missing matrix '{key}'")
            out[key] = _as_nested_floats(value[key], f"{field}.{key}", ndim=2)
        for key in vector_keys:
            if key not in value:
                raise ConfigError(field, f"missing vector '{key}'")
            out[key] = _as_nested_floats(value[key], f"{field}.{key}", ndim=1)
        return out

    return _Param(None, check, schema)


def _kernel_param():
    step = _float_param(minimum=0.0, strict=True)
    schema = {
        "type": "object",
        "description": (
            "impulse-response samples {\"dt\": step, \"values\": array}, inline "
            "or {\"file\": path}; omit for the built-in exponential kernel"
        ),
        "default": None,
    }

    def check(value, field, base):
        if value is None:
            return None
        value = _load_referenced_json(value, field, base, "an object with 'dt' and 'values'")
        if set(value) != {"dt", "values"}:
            raise ConfigError(field, "must hold exactly 'dt' and 'values'")
        dt = step.check(value["dt"], f"{field}.dt", base)
        arr = np.asarray(value["values"], dtype=float)
        if arr.ndim not in (1, 3):
            raise ConfigError(field, "'values' must be 1-D samples or stacked matrices")
        if arr.ndim == 3 and arr.shape[1] != arr.shape[2]:
            raise ConfigError(field, "stacked kernel samples must be square")
        if arr.shape[0] < 2 or not np.all(np.isfinite(arr)):
            raise ConfigError(field, "'values' must hold at least 2 finite samples")
        return {"dt": dt, "values": arr.tolist()}

    return _Param(None, check, schema)


def _shared_params(experiment):
    """The fields every experiment takes; `ExperimentConfig` holds them apart."""
    return {
        # no default: an experiment that draws random numbers must be given one
        "seed": _int_param(minimum=0, allow_none=True),
        "out": _path_param(f"results/{experiment}"),
        "threads": _int_param(1, minimum=1),
        "boltzmann": _boltzmann_param(),
    }


_POSITIVE = _float_param(minimum=0.0, strict=True)

_EXPERIMENT_PARAMS = {
    "approx-memoryless": {
        "gain": _float_param(1.0, minimum=0.0, strict=True),
        "tau": _float_param(1.0, minimum=0.0, strict=True),
        "dt": _float_param(1e-4, minimum=0.0, strict=True),
        "n_values": _list_param(_int_param(minimum=2), [4, 8, 16, 32, 64, 128, 256]),
    },
    "approx-dissipative": {
        "epsilon": _float_param(0.1, minimum=0.0, strict=True),
        "tau": _float_param(5.0, minimum=0.0, strict=True),
        "rate": _float_param(1.0, minimum=0.0, strict=True),
        "span": _float_param(10.0, minimum=0.0, strict=True),
        "dt": _float_param(1e-3, minimum=0.0, strict=True),
        "kernel": _kernel_param(),
    },
    "approx-nonlinear": {
        "gain": _gain_param([[-1.0, 0.3], [-0.2, -0.5]]),
        "trials": _int_param(100, minimum=1),
        "horizon": _float_param(1.0, minimum=0.0, strict=True),
        "dt": _float_param(2e-3, minimum=0.0, strict=True),
        "e0_values": _list_param(_POSITIVE, [1e2, 1e3, 1e4, 1e5, 1e6], min_len=2),
    },
    "fdt": {
        "temperature": _float_param(1.0, minimum=0.0),
        "trials": _int_param(100_000, minimum=2),
        "lag_max": _float_param(4.9, minimum=0.0, strict=True),
        "lag_count": _int_param(50, minimum=2),
        "samples": _int_param(100_000, minimum=2),
        "model": _model_param(("J", "B")),
    },
    "langevin": {
        "temperature": _float_param(1.0, minimum=0.0),
        "dt": _float_param(0.1, minimum=0.0, strict=True),
        "horizon": _float_param(10_000.0, minimum=0.0, strict=True),
        "burn_in": _int_param(100, minimum=0),
        "k_s": _float_param(1.0, minimum=0.0, strict=True),
        "noise_dt": _float_param(0.01, minimum=0.0, strict=True),
        "noise_steps": _int_param(100_000, minimum=2),
        "model": _model_param(("J", "K", "B")),
    },
    "measure": {
        "variant": _choice_param(DEVICE_VARIANTS, "M1hat"),
        "k_m": _float_param(1.0, minimum=0.0, strict=True),
        "t_m": _float_param(1e-3, minimum=0.0, strict=True),
        "temperature": _float_param(1.0, minimum=0.0),
        "e_m": _float_param(10.0, minimum=0.0, strict=True),
        "dt": _float_param(None, minimum=0.0, strict=True, allow_none=True),
        "trials": _int_param(10_000, minimum=1),
        "model": _model_param(("J", "B"), ("x0",)),
    },
    "tradeoff": {
        "variant": _choice_param(("M1hat", "M2hat"), "M1hat"),
        "tm_values": _list_param(_POSITIVE, [1e-3, 3e-3, 1e-2], increasing=True),
        "km_values": _list_param(_POSITIVE, [0.5, 1.0, 2.0]),
        "temperature": _float_param(1.0, minimum=0.0, strict=True),
        "e_m": _float_param(10.0, minimum=0.0, strict=True),
        "trials": _int_param(10_000, minimum=2),
        "model": _model_param(("J", "B"), ("x0",)),
    },
    "table1": {
        "variants": _list_param(_choice_param(DEVICE_VARIANTS), list(DEVICE_VARIANTS), distinct=True),
        "tm_values": _list_param(_POSITIVE, [1e-3, 3e-3, 1e-2], min_len=2, increasing=True),
        "k_m": _float_param(1.0, minimum=0.0, strict=True),
        "temperature": _float_param(1.0, minimum=0.0, strict=True),
        "e_m": _float_param(10.0, minimum=0.0, strict=True),
        "trials": _int_param(4000, minimum=2),
        "model": _model_param(("J", "B"), ("x0",)),
    },
}


def _step_field(field: str, span: float, dt: float) -> int:
    """Steps of `dt` in `span`, which must be a whole multiple of it."""
    try:
        return _step_count(span, dt)
    except ValueError:
        raise ConfigError(field, f"must be a positive multiple of dt = {dt:g}") from None


def _check_cross_fields(experiment: str, p: dict) -> None:
    """Constraints between an experiment's fields, once each field is valid."""
    if "model" in p:
        # build the model the runner builds, so its faults surface here
        resolve = {"fdt": _resolve_lossless, "langevin": _resolve_langevin}.get(
            experiment, _resolve_measured
        )
        try:
            model = resolve(p)
        except ValueError as err:
            raise ConfigError("model", str(err)) from None
    if experiment == "langevin":
        if p["burn_in"] > _step_field("horizon", p["horizon"], p["dt"]) - 1:
            raise ConfigError("burn_in", "must leave at least two settled samples")
    elif experiment == "measure":
        steps = _PROBE_STEPS if p["dt"] is None else _step_field("t_m", p["t_m"], p["dt"])
        try:
            _require_x0_determined(model, p["variant"], steps)
        except ValueError as err:
            raise ConfigError("model" if p["dt"] is None else "dt", str(err)) from None
    elif experiment == "approx-memoryless":
        _step_field("tau", p["tau"], p["dt"])
    elif experiment == "approx-dissipative" and p["kernel"] is None:
        _step_field("span", p["span"], p["dt"])
    elif experiment == "approx-nonlinear":
        _step_field("horizon", p["horizon"], p["dt"])
        if np.log10(max(p["e0_values"]) / min(p["e0_values"])) < 3.0 - 1e-9:
            raise ConfigError("e0_values", "must span at least three decades")


_SCHEMAS = {
    name: {**_shared_params(name), **own} for name, own in _EXPERIMENT_PARAMS.items()
}

EXPERIMENTS = tuple(_SCHEMAS)


def _needs_seed(experiment: str, params: dict) -> bool:
    return experiment in _ALWAYS_SEEDED or (
        experiment == "measure" and _is_noisy(params["variant"]))


def config_schema(experiment: str | None = None) -> dict:
    """JSON schema for config files, per experiment or for the family."""
    if experiment is None:
        return {
            name: config_schema(name) for name in EXPERIMENTS
        }
    if experiment not in _SCHEMAS:
        raise ConfigError("experiment", f"unknown experiment '{experiment}'")
    properties = {"experiment": {"type": "string", "const": experiment}}
    for name, param in _SCHEMAS[experiment].items():
        properties[name] = dict(param.schema)
    return {
        "type": "object",
        "properties": properties,
        "additionalProperties": False,
    }


def build_config(
    experiment: str,
    config_path=None,
    *,
    seed: int | None = None,
    out=None,
    threads: int | None = None,
) -> ExperimentConfig:
    """Merge defaults, an optional JSON config file, and flag overrides.

    Raises ConfigError naming the offending field when the result does
    not validate.  Flag values win over file values, file values over
    defaults.
    """
    if experiment not in _SCHEMAS:
        raise ConfigError("experiment", f"unknown experiment '{experiment}'")
    raw: dict = {}
    base_dir = None
    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError("config", f"file does not exist: {path}")
        base_dir = path.parent
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError("config", f"invalid JSON: {err}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config", "top level must be a JSON object")
    if seed is not None:
        raw["seed"] = seed
    if out is not None:
        raw["out"] = str(out)
    if threads is not None:
        raw["threads"] = threads
    return _normalize(experiment, raw, base_dir)


def _normalize(experiment: str, raw: dict, base_dir) -> ExperimentConfig:
    raw = dict(raw)
    named = raw.pop("experiment", experiment)
    if named != experiment:
        raise ConfigError(
            "experiment", f"config names '{named}' but the subcommand is '{experiment}'"
        )

    schema = _SCHEMAS[experiment]
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(unknown[0], f"unknown field for experiment '{experiment}'")
    params = {
        name: param.check(raw.get(name, param.default), name, base_dir)
        for name, param in schema.items()
    }
    shared = {name: params.pop(name) for name in ("seed", "out", "threads", "boltzmann")}
    _check_cross_fields(experiment, params)
    if shared["seed"] is None and _needs_seed(experiment, params):
        raise ConfigError(
            "seed", f"required: '{experiment}' draws random numbers with this setup"
        )
    return ExperimentConfig(experiment=experiment, params=params, **shared)


def validate(config: ExperimentConfig) -> list:
    """Schema diagnostics for a config; an empty list means well-formed."""
    try:
        _normalize(config.experiment, config.echo(), None)
    except ConfigError as err:
        return [str(err)]
    return []


# --------------------------------------------------------------------------
# output helpers


#: Rows formatted and written at a time, which bounds the memory that
#: `float_frames` takes for a block.
_CSV_BLOCK_ROWS = 2048


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % value
    return str(value)


def _format_column(cells) -> list:
    """One column of a block as CSV text, cell by cell through `_format_cell`."""
    if isinstance(cells, np.ndarray):
        cells = cells.tolist()
    return [_format_cell(cell) for cell in cells]


def _quote_cells(cells: list, lone: bool) -> list:
    """Text cells as csv.writer with an LF line terminator writes them: a
    cell holding a comma, a quote or a newline is quoted with its quotes
    doubled, and so is an empty cell that is its row's only (`lone`) cell."""
    return ['"%s"' % cell.replace('"', '""') if "," in cell or '"' in cell or "\n" in cell
            or (lone and not cell) else cell for cell in cells]


def _text_frames(cells: list, sep: str) -> np.ndarray:
    """(cells, width) uint8 frames of text cells: each its UTF-8 bytes and
    `sep`, padded with `HOLE` to the widest."""
    encoded = [(cell + sep).encode() for cell in cells]
    width = max(map(len, encoded))
    hole = bytes([HOLE])
    return np.frombuffer(b"".join(cell.ljust(width, hole) for cell in encoded),
                         np.uint8).reshape(len(cells), width)


def _csv_block(block: list, floats: list, seps: list, lone: bool) -> bytes:
    """The CSV text of one block of rows, given as its columns: the cells
    of every float64 array column (`floats` marks them) formed at once by
    `float_frames`, the others by `_text_frames`, each ended by its
    separator in `seps`; one delete of the `HOLE` byte joins them."""
    rows = len(block[0])
    if any(floats):  # (rows, frame) views, one per float column, in order
        cells = np.stack([column for f, column in zip(floats, block) if f], axis=1).ravel()
        float_seps = np.array([ord(sep) for sep, f in zip(seps, floats) if f], np.uint8)
        frames = float_frames(cells, np.tile(float_seps, rows))
        framed = iter(frames.reshape(len(frames), rows, -1).T)
    parts = [next(framed) if f else _text_frames(_quote_cells(_format_column(cells), lone), sep)
             for f, cells, sep in zip(floats, block, seps)]
    return np.concatenate(parts, axis=1).tobytes().translate(None, bytes([HOLE]))


def _write_csv(path: Path, columns: dict) -> None:
    """Write a table given as {header: column}, each column a list or 1-D
    array of one common length, block by block of `_CSV_BLOCK_ROWS` rows
    (`_csv_block`).

    Every cell is byte-identical to the per-cell writer: "%.17g" % x for a
    float, and `_format_column` then `_quote_cells` for the rest.  The
    float64 array columns are formed in numpy by `float_frames`, exactly
    for 1e-11 <= |x| < 1e17; zero, -0, nan, inf, subnormals and the rest
    of the range go through Python's "%.17g" there."""
    lengths = {len(column) for column in columns.values()}
    if len(lengths) > 1:
        raise ValueError(f"columns of {path.name} differ in length: {sorted(lengths)}")
    lone = len(columns) == 1
    floats = [isinstance(column, np.ndarray) and column.dtype == np.float64 for column in columns.values()]
    seps = [","] * (len(columns) - 1) + ["\n"]
    with open(path, "wb") as fh:
        fh.write((",".join(_quote_cells(list(columns), lone)) + "\n").encode())
        for lo in range(0, max(lengths, default=0), _CSV_BLOCK_ROWS):
            block = [column[lo : lo + _CSV_BLOCK_ROWS] for column in columns.values()]
            fh.write(_csv_block(block, floats, seps, lone))


def _single_row(**cells) -> dict:
    """A one-row table: each keyword names a column holding its value."""
    return {name: [value] for name, value in cells.items()}


def _record_columns(cls, records, names=None, **headers) -> dict:
    """A table of dataclass `records`: one column per field of `cls` (or per
    name in `names`), headed by the field's name unless `headers` renames it."""
    names = names or [field.name for field in dataclasses.fields(cls)]
    return {headers.get(name, name): [getattr(r, name) for r in records] for name in names}


def _check(name: str, value, *, at_most=None, at_least=None, what: str) -> CheckResult:
    """A check that `value` lies within its bound(s); NaN lies within none.

    The detail reads "<what> = <value>, want at most <bound>" ("at least",
    or "<low> to <high>" when both bounds are given).  A bound prints in
    full (its shortest round-trip form), so an allowance of a few eps
    past 1 shows.
    """
    value = float(value)
    passed = (at_most is None or value <= at_most) and (at_least is None or value >= at_least)
    if at_least is None:
        want = f"at most {float(at_most)!r}"
    elif at_most is None:
        want = f"at least {float(at_least)!r}"
    else:
        want = f"{float(at_least)!r} to {float(at_most)!r}"
    return CheckResult(name, bool(passed), f"{what} = {value:.6g}, want {want}")


# --------------------------------------------------------------------------
# model resolution


# A config model holds exactly the named matrices its model class takes.


def _resolve_lossless(params) -> LosslessLinear:
    model = params["model"]
    return lc_ladder() if model is None else LosslessLinear(**model)


def _resolve_measured(params) -> MeasuredSystem:
    model = params["model"]
    return measured_lc() if model is None else MeasuredSystem(**model)


def _resolve_langevin(params, boltzmann: float = 1.0) -> LangevinModel:
    model = params["model"] or {"J": [[0.0]], "K": [[1.0]], "B": [[1.0]]}
    return LangevinModel(**model, temperature=boltzmann * params["temperature"])


def _resolve_device(variant: str, params, boltzmann: float) -> Device:
    # config field of each, the temperature converted to the library's k_B T
    value = {"temperature": boltzmann * params["temperature"], "supply_energy": params["e_m"]}
    kwargs = {name: value[name] for name in _VARIANT_NEEDS[variant]}
    return Device(variant, admittance=params["k_m"], **kwargs)


# --------------------------------------------------------------------------
# experiment runners
#
# A runner computes everything before anything is written: it returns its
# CSV tables as (file name, columns), its checks and its notes.


def _run_approx_memoryless(config: ExperimentConfig) -> RunReport:
    p = config.params
    gain, tau, dt, ns = p["gain"], p["tau"], p["dt"], p["n_values"]
    t = np.arange(_step_count(tau, dt) + 1) * dt
    u = Trajectory(dt=dt, values=np.sin(np.pi * t / tau) ** 2)

    measured, bounds = np.empty((2, len(ns)))
    for i, n in enumerate(ns):
        bank = memoryless_lossless_approx(gain, tau, n)
        y = bank.zero_state_response(u.values, dt)[:, 0]
        measured[i] = np.abs(gain * u.values - y).max()
        bounds[i] = memoryless_error_bound(gain, tau, n, u).values.max()

    checks = [
        _check("bound_dominates", (measured - bounds).max(), at_most=0.0,
               what="largest measured-minus-bound gap"),
    ]
    if len(ns) >= 3:
        slope = np.polyfit(np.log(ns), np.log(measured), 1)[0]
        checks.append(_check("convergence_slope", slope, at_most=-0.9, what="log-log slope"))
    table = {"N": ns, "measured_error": measured, "error_bound": bounds}
    return RunReport((("memoryless.csv", table),), tuple(checks))


def _run_approx_dissipative(config: ExperimentConfig) -> RunReport:
    p = config.params
    if p["kernel"] is None:
        rate, span, dt = p["rate"], p["span"], p["dt"]
        t = np.arange(_step_count(span, dt) + 1) * dt
        kernel = Trajectory(dt=dt, values=np.exp(-rate * t))
        # exact remaining mass of e^{-rate t} beyond s
        tail = lambda s: np.exp(-rate * s) / rate
    else:
        kernel = Trajectory(dt=p["kernel"]["dt"], values=np.asarray(p["kernel"]["values"]))
        tail = None
    f = dissipative_lossless_approx(kernel, p["epsilon"], p["tau"], tail=tail)

    residues = f.cos_coefficients.astype(complex)
    residues[1:] -= 1j * f.sin_coefficients
    norms = np.linalg.svd(residues, compute_uv=False)[:, 0]
    # the shifted residues are the Hermitian matrices the bank factors
    eigs = np.linalg.eigvalsh(residues + f.shift * np.eye(f.ports))
    envelope = f.error_constant / (2.0 + np.arange(f.n_harmonics))
    skew = check_lossless(f.system, trials=0).skew_residual
    # An empty bank (the zero kernel) has no residues: the minimum over the
    # empty set is +inf and the maximum -inf, so both bounds hold vacuously.
    min_eig = float(eigs.min(initial=np.inf))
    decay_gap = float((norms - envelope).max(initial=-np.inf))

    tables = (
        ("summary.csv", _single_row(
            n_harmonics=f.n_harmonics,
            horizon=f.horizon,
            shift=f.shift,
            state_dimension=f.system.n,
            peak_gain=f.peak_gain,
            error_constant=f.error_constant,
            kernel_mass=f.kernel_mass,
            derivative_mass=f.derivative_mass,
            tail_mass=f.tail_mass,
            l2_error=f.l2_error_measured,
            target_error=f.target_error,
            skew_residual=skew,
            min_shifted_eig=min_eig,
        )),
        ("coefficients.csv", {
            "k": np.arange(f.n_harmonics),
            "coefficient_norm": norms,
            "decay_envelope": envelope,
            "shifted_min_eig": eigs.min(axis=1),
        }),
    )
    checks = (
        _check("skew_residual_zero", skew, at_most=0.0, what="skew residual"),
        _check("shifted_residues_psd", min_eig, at_least=-1e-10,
               what="smallest shifted eigenvalue"),
        _check("l2_error_within_target", f.l2_error_measured, at_most=p["epsilon"],
               what="L2 error"),
        _check("coefficient_decay", decay_gap, at_most=0.0,
               what="largest norm-minus-envelope gap"),
    )
    return RunReport(tables, checks)


def _run_approx_nonlinear(config: ExperimentConfig) -> RunReport:
    p = config.params
    k = _square_gain(p["gain"])
    ports = k.shape[0]
    horizon, dt, trials = p["horizon"], p["dt"], p["trials"]
    t = np.arange(_step_count(horizon, dt) + 1) * dt
    modes = np.stack([np.sin((m + 1) * np.pi * t / horizon) / (m + 1) for m in range(3)])

    energies, amps = np.empty(trials), np.empty((trials, 3, ports))
    for trial in range(trials):  # each input's draws, in trial order
        rng = derive_rng(config.seed, trial)
        amps[trial] = rng.standard_normal((3, ports))
        energies[trial] = 10.0 ** rng.uniform(0.5, 3.0)
    vals = np.einsum("mt,smp->tsp", modes, amps)  # (time, trial, port)
    _, _, errors, running, flat = _supply_forms(k, vals, dt, energies, horizon)
    peaks = np.linalg.norm(vals, axis=-1).max(axis=0)
    max_errors = errors.max(axis=0)
    # Each input's largest error / bound.  A tight bound (a scalar gain) is
    # the error up to the m-term running sums of both closed forms and a
    # few roundings a sample, so the ratio may pass 1 by `allowance` =
    # (m + 2p + 10) eps.
    running_ratios, flat_ratios = (
        np.divide(errors, bound, out=np.zeros_like(errors), where=bound > 0).max(axis=0)
        for bound in (running, flat)
    )
    allowance = (len(t) + 2 * ports + 10) * np.finfo(float).eps

    e0s = p["e0_values"]
    t_m = np.arange(1001) * 1e-3
    u_m = Trajectory(dt=1e-3, values=np.sin(t_m))
    ref_m = Trajectory(dt=1e-3, values=-np.sin(t_m))
    fit_m = convergence_order(
        lambda e0: simulate_energy_supply(-1.0, e0, u_m)[0], e0s, ref_m
    )
    u_vals, u_mids, h = _input_samples(lambda s: 0.1 * np.sin(s), 1, 2e-3, 2.0)
    ref_g = _rk4_states(-np.eye(1), np.eye(1), u_vals, u_mids, h, [1.0])
    states = _wrapped_paths(lambda x, v: -x + v, lambda x, v: x, np.ones(1),
                            np.sqrt(2.0 * np.asarray(e0s, dtype=float)), u_vals, u_mids, h, stacked=True)[0]
    paths = dict(zip(map(float, e0s), states.swapaxes(0, 1)))
    fit_g = convergence_order(paths.__getitem__, e0s, ref_g)

    tables = (
        ("inequality.csv", {
            "trial": np.arange(trials),
            "e0": energies,
            "peak_input": peaks,
            "max_error": max_errors,
            "running_ratio": running_ratios,
            "flat_ratio": flat_ratios,
        }),
        ("convergence.csv", {
            "e0": e0s,
            "memoryless_error": fit_m.errors,
            "generic_error": fit_g.errors,
        }),
    )
    checks = (
        _check("running_bound_holds", running_ratios.max(), at_most=1.0 + allowance,
               what=f"largest error-to-bound ratio over {trials} inputs"),
        _check("flat_bound_holds", flat_ratios.max(), at_most=1.0 + allowance,
               what=f"largest error-to-bound ratio over {trials} inputs"),
        _check("memoryless_slope", abs(fit_m.slope + 1.0), at_most=0.1,
               what="|log-log slope + 1|"),
        _check("generic_slope", fit_g.slope, at_most=-0.4, what="log-log slope"),
    )
    return RunReport(tables, checks)


def _run_fdt(config: ExperimentConfig) -> RunReport:
    p = config.params
    system = _resolve_lossless(p)
    kbt = config.boltzmann * p["temperature"]
    grid = np.linspace(0.0, p["lag_max"], p["lag_count"])
    report = empirical_fdt_check(system, kbt, p["trials"], grid, seed=config.seed)

    dimension = np.asarray(system.J).shape[0]
    ensemble = ThermalEnsemble(temperature=kbt, dimension=dimension, seed=config.seed + 1)
    energies = internal_energy(sample_gibbs(ensemble, p["samples"]))
    mean_energy = float(energies.mean())
    energy_se = float(energies.std(ddof=1) / math.sqrt(p["samples"]))
    expected = 0.5 * dimension * kbt

    tables = (
        ("fdt.csv", {
            "lag": grid,
            "analytic": report.analytic[:, 0, 0, 0],
            "empirical": report.empirical[:, 0, 0, 0],
            "stderr": report.standard_error[:, 0, 0, 0],
        }),
        ("equipartition.csv", _single_row(
            samples=p["samples"],
            mean_energy=mean_energy,
            expected_energy=expected,
            stderr=energy_se,
        )),
    )
    checks = [
        _check("equipartition_3se", abs(mean_energy - expected), at_most=3.0 * energy_se,
               what="mean-energy deviation"),
        _check("fluctuation_kernel_5se", report.max_normalized_deviation, at_most=5.0,
               what="worst kernel deviation in standard errors"),
    ]
    if not math.isnan(report.stationarity_normalized):
        checks.append(
            _check("kernel_stationarity_5se", report.stationarity_normalized, at_most=5.0,
                   what="worst lag-pair spread in standard errors")
        )
    return RunReport(tables, tuple(checks))


def _run_langevin(config: ExperimentConfig) -> RunReport:
    p = config.params
    langevin = _resolve_langevin(p, config.boltzmann)
    kbt = langevin.temperature  # also the stationary variance of each component
    path = simulate_langevin(langevin, None, None, p["dt"], p["horizon"], seed=config.seed)
    variances = path.values[p["burn_in"]:].var(axis=0)

    noise = sample_johnson_noise(
        p["k_s"], kbt, dt=p["noise_dt"], steps=p["noise_steps"], seed=config.seed + 1
    )
    noise_var = float(noise.values.var())
    noise_expected = 2.0 * kbt * p["k_s"] / p["noise_dt"]

    components = range(len(variances))
    tables = (
        ("trajectory.csv", {
            "time": path.times,
            **{f"x{i + 1}": path.values[:, i] for i in components},
        }),
        ("stationary.csv", {
            "component": [i + 1 for i in components],
            "variance": variances,
            "expected": [kbt for _ in components],
        }),
        ("johnson.csv", _single_row(
            gain=p["k_s"],
            temperature=p["temperature"],
            dt=p["noise_dt"],
            steps=p["noise_steps"],
            variance=noise_var,
            expected=noise_expected,
        )),
    )
    checks = (
        _check("stationary_variance_5pct", np.abs(variances - kbt).max(),
               at_most=0.05 * abs(kbt), what="worst variance deviation"),
        _check("johnson_variance_5pct", abs(noise_var - noise_expected),
               at_most=0.05 * abs(noise_expected), what="variance deviation"),
    )
    return RunReport(tables, checks)


def _run_measure(config: ExperimentConfig) -> RunReport:
    p = config.params
    system = _resolve_measured(p)
    device = _resolve_device(p["variant"], p, config.boltzmann)
    t_m = p["t_m"]
    dt = p["dt"] if p["dt"] is not None else t_m / _PROBE_STEPS
    outcome = simulate_device(
        system,
        device,
        t_m,
        dt,
        p["trials"],
        seed=0 if config.seed is None else config.seed,
    )
    eigs = np.linalg.eigvalsh(outcome.P)
    tables = (
        ("outcome.csv", _single_row(
            variant=outcome.variant,
            t_m=outcome.t_m,
            k_m=device.admittance,
            dt=dt,
            trials=outcome.trials,
            y_hat=outcome.y_hat,
            b_d_norm=float(np.linalg.norm(outcome.b_d)),
            b_mean_norm=float(np.linalg.norm(outcome.b_mean)),
            trace_p=float(np.trace(outcome.P)),
            delta_y=outcome.delta_y,
            delta_y_hat=outcome.delta_y_hat,
            m_star=outcome.m_star,
            estimate_variance=outcome.estimate_variance,
            mean_error=outcome.mean_error,
            product=outcome.product,
            max_correction_residual=outcome.max_correction_residual,
        )),
        ("record.csv", {"time": outcome.y_m.times, "y_m": outcome.y_m.values}),
    )
    checks = (
        _check("correction_identity", outcome.max_correction_residual, at_most=1e-10,
               what="worst correction residual"),
        _check("covariance_psd", eigs.min(), at_least=-1e-10, what="smallest eigenvalue"),
    )
    return RunReport(tables, checks)


def _run_tradeoff(config: ExperimentConfig) -> RunReport:
    p = config.params
    system = _resolve_measured(p)
    reports = []
    for i, t_m in enumerate(p["tm_values"]):
        for j, k_m in enumerate(p["km_values"]):
            device = _resolve_device(p["variant"], {**p, "k_m": k_m}, config.boltzmann)
            cell_seed = _cell_seed(config.seed, i * len(p["km_values"]) + j)
            reports.append(tradeoff_product(system, device, t_m, p["trials"], seed=cell_seed))
    table = _record_columns(
        TradeoffReport, reports, ("t_m", "admittance", "lhs", "rhs", "ratio"), admittance="k_m"
    )

    lhs, rhs = np.array(table["lhs"]), np.array(table["rhs"])
    # one row of the rhs per t_m, one column per k_m
    blocks = rhs.reshape(len(p["tm_values"]), len(p["km_values"]))
    spread = (np.abs(blocks - blocks[:, :1]).max(axis=1) / blocks[:, 0]).max()
    checks = (
        _check("product_floor", (lhs - 0.9 * rhs).min(), at_least=0.0,
               what="smallest lhs - 0.9 rhs"),
        _check("rhs_admittance_invariant", spread, at_most=1e-12,
               what="largest relative spread across k_m"),
    )
    observations = (
        {
            "name": "product_ratio_range",
            "detail": (
                f"lhs/rhs spans [{float((lhs / rhs).min()):.4f}, {float((lhs / rhs).max()):.4f}]; "
                "at small horizons the product sits near the state dimension times the floor, "
                "not at the floor itself"
            ),
        },
    )
    return RunReport((("tradeoff.csv", table),), checks, observations)


def _run_table1(config: ExperimentConfig) -> RunReport:
    p = config.params
    system = _resolve_measured(p)
    devices = [_resolve_device(v, p, config.boltzmann) for v in p["variants"]]
    summary = device_summary(
        system,
        np.asarray(p["tm_values"]),
        devices,
        p["trials"],
        seed=config.seed,
    )
    tables = (
        ("table1.csv", _record_columns(SummaryRow, summary.rows)),
        ("fits.csv", _record_columns(ColumnFit, summary.fits)),
    )

    def largest(variant, *columns):
        """The largest |entry| of the named columns over one variant's rows."""
        return np.abs([summary.column(variant, name) for name in columns]).max()

    noise = ("trace_p", "delta_y_sq", "m_star")  # the columns a noiseless probe leaves zero
    fit_of = {(f.variant, f.column): f for f in summary.fits}
    checks = []
    observations = []
    if "M2" in p["variants"]:
        checks.append(_check("m2_rows_zero", largest("M2", "b_d_norm", *noise), at_most=0.0,
                             what="largest back-action entry"))
    if "M1" in p["variants"]:
        checks.append(_check("m1_noise_columns_zero", largest("M1", *noise), at_most=0.0,
                             what="largest stochastic entry"))
        checks.append(_check("m1_bd_coefficient", abs(fit_of["M1", "b_d_norm"].ratio - 1.0),
                             at_most=0.1, what="|coefficient/reference - 1|"))
    if "M1hat" in p["variants"]:
        checks += [
            _check(f"m1hat_{short}_coefficient", abs(fit_of["M1hat", column].ratio - 1.0),
                   at_most=0.1, what="|coefficient/reference - 1|")
            for short, column in (("bd", "b_d_norm"), ("trace", "trace_p"), ("deltay", "delta_y_sq"))
        ]
        mstar = fit_of[("M1hat", "m_star")]
        checks.append(_check("m1hat_mstar_exponent", abs(mstar.slope + 1.0), at_most=0.1,
                             what="|log-log slope + 1|"))
        observations.append(
            {
                "name": "m1hat_mstar_coefficient",
                "detail": (
                    f"coefficient/reference {mstar.ratio:.4f}: the measured floor carries "
                    "the squared state dimension on top of the single-state law, so this "
                    "ratio is reported rather than asserted"
                ),
            }
        )
    if "M2hat" in p["variants"]:
        bd = fit_of[("M2hat", "b_d_norm")]
        checks.append(_check("m2hat_bd_exponent", bd.slope, at_least=1.9, at_most=2.1,
                             what="log-log slope"))
        observations.append(
            {
                "name": "m2hat_bd_adjudication",
                "detail": f"{bd.note}; coefficient {bd.coefficient:.6g} vs candidate {bd.reference:.6g}",
            }
        )
    return RunReport(tables, tuple(checks), tuple(observations))


_RUNNERS = {
    "approx-memoryless": _run_approx_memoryless,
    "approx-dissipative": _run_approx_dissipative,
    "approx-nonlinear": _run_approx_nonlinear,
    "fdt": _run_fdt,
    "langevin": _run_langevin,
    "measure": _run_measure,
    "tradeoff": _run_tradeoff,
    "table1": _run_table1,
}


# --------------------------------------------------------------------------
# orchestration


def run(config: ExperimentConfig, stream=None) -> int:
    """Execute one experiment: write CSVs and manifest, return exit code.

    The runner computes every table and check first; the output directory
    is created only after it returns, so a run that exits 2 or 4 writes
    nothing.
    """
    stream = sys.stdout if stream is None else stream
    try:
        report = _RUNNERS[config.experiment](config)
    except (ArithmeticError, np.linalg.LinAlgError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 4
    except ValueError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = [name for name, _ in report.outputs]
    for name, columns in report.outputs:
        _write_csv(out_dir / name, columns)
    import scipy  # its version only: the package itself, no subpackage

    manifest = {
        "experiment": config.experiment,
        "seed": config.seed,
        "config": config.echo(),
        "versions": {
            "lossless": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "outputs": files,
        "checks": [dataclasses.asdict(c) for c in report.checks],
        "observations": list(report.observations),
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8", newline="\n") as fh:
        # numpy scalars and arrays become their plain JSON values
        json.dump(manifest, fh, indent=2, sort_keys=True, default=lambda v: v.tolist())
        fh.write("\n")

    for check in report.checks:
        verdict = "pass" if check.passed else "FAIL"
        print(f"check {check.name}: {verdict} ({check.detail})", file=stream)
    for note in report.observations:
        print(f"note {note['name']}: {note['detail']}", file=stream)
    print(f"wrote {', '.join(files + ['manifest.json'])} to {out_dir}", file=stream)
    passed = sum(c.passed for c in report.checks)
    print(f"result: {passed}/{len(report.checks)} checks passed", file=stream)
    return 0 if passed == len(report.checks) else 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lossless",
        description="Run the library's experiments with reproducible configs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="experiment", required=True, metavar="experiment")
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--threads", type=int, default=None,
                       help="accepted and validated; changes nothing")
        p.add_argument(
            "--validate",
            action="store_true",
            help="schema-check the config and exit without computing",
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = build_config(
            args.experiment,
            args.config,
            seed=args.seed,
            out=args.out,
            threads=args.threads,
        )
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    if args.validate:
        print("ok")
        return 0
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
