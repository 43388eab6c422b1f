"""Outside-in span tracer for the `lossless` layers.

`Tracer.install()` wraps every public function (the names in each
module's `__all__`) of the six layers, plus the response methods of the
two bank classes, and rebinds each wrapper wherever `lossless`,
`lossless.cli` or a sibling module holds the original.  Nothing in `src/`
changes; `uninstall()` restores the originals.  `_util` is not a layer:
its chunked Monte-Carlo time counts as self time of whichever layer
calls it.

Spans are kept in memory as (name, layer, start, end, parent) and are
aggregated at the end.  Only calls made on the installing thread are
recorded; work in pool threads counts inside the span that waits for it.
Work counts are computed at the call boundary from arguments and
results, so they repeat exactly.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from pathlib import Path

import numpy as np

LAYERS = ("cli", "statespace", "approx_linear", "approx_nonlinear", "thermal", "measurement")
BANK_CLASSES = ("HarmonicApprox", "FourierLosslessApprox")
BANK_METHODS = ("kernel", "zero_state_response", "respond")

#: Public functions the workloads reach, reported as `<layer>.<name>_s`.
#: `kernel_ongrid` / `kernel_offgrid` split `kernel` by whether the requested
#: times are a uniform grid starting at 0.
ENTRY_POINTS = (
    "approx_linear.dissipative_lossless_approx",
    "approx_linear.memoryless_lossless_approx",
    "approx_linear.kernel_ongrid",
    "approx_linear.kernel_offgrid",
    "approx_linear.zero_state_response",
    "statespace.impulse_response",
    "statespace.simulate_linear",
    "statespace.integrate_ode",
    "statespace.check_lossless",
    "approx_nonlinear.simulate_wrapped",
    "thermal.simulate_langevin",
    "thermal.empirical_fdt_check",
    "measurement.simulate_device",
    "measurement.riccati_solve",
    "measurement.kalman_estimate",
)

#: Work counts, each reported with a `_per_s` rate against its layer's self time.
COUNTS = (
    "approx_linear.harmonics",
    "approx_linear.kernel_points",
    "approx_linear.conv_points",
    "statespace.state_steps",
    "thermal.em_steps",
    "thermal.fdt_trials",
    "measurement.trial_steps",
    "measurement.kalman_samples",
    "cli.csv_rows",
    "cli.csv_bytes",
)


def _is_grid(times) -> bool:
    t = np.asarray(times, float).ravel()
    if t.size < 2 or t[0] != 0.0:
        return False
    return bool(np.allclose(np.diff(t), t[1], rtol=1e-9, atol=0.0))


def _csv_work(argv) -> dict:
    """Rows and bytes of the CSV files a `cli.main(argv)` call wrote."""
    argv = list(argv)
    if "--out" not in argv:
        return {}
    out = Path(argv[argv.index("--out") + 1])
    rows = size = 0
    for path in out.glob("*.csv"):
        data = path.read_bytes()
        size += len(data)
        rows += max(data.count(b"\n") - 1, 0)
    return {"cli.csv_rows": rows, "cli.csv_bytes": size}


def _state_steps(result) -> dict:
    vals = (result[0] if isinstance(result, tuple) else result).values
    return {"statespace.state_steps": (vals.shape[0] - 1) * int(np.prod(vals.shape[1:]))}


def _conv_points(args) -> dict:
    u = np.asarray(args["u_vals"])
    ports = u.shape[1] if u.ndim > 1 else 1
    return {"approx_linear.conv_points": args["self"].n_harmonics * u.shape[0] * ports}


#: Boundary work counts per wrapped function, from its bound arguments and result.
_WORK = {
    "approx_linear.dissipative_lossless_approx":
        lambda a, r: {"approx_linear.harmonics": r.n_harmonics},
    "approx_linear.memoryless_lossless_approx":
        lambda a, r: {"approx_linear.harmonics": int(a["n_harmonics"])},
    "approx_linear.kernel":
        lambda a, r: {"approx_linear.kernel_points": a["self"].n_harmonics * np.size(a["times"])},
    "approx_linear.zero_state_response": lambda a, r: _conv_points(a),
    "statespace.simulate_linear": lambda a, r: _state_steps(r),
    "statespace.integrate_ode": lambda a, r: _state_steps(r),
    "statespace.impulse_response":
        lambda a, r: {"statespace.state_steps": a["sys"].n * int(a["n_samples"])},
    "thermal.simulate_langevin": lambda a, r: {"thermal.em_steps": r.n_samples - 1},
    "thermal.empirical_fdt_check": lambda a, r: {"thermal.fdt_trials": int(a["trials"])},
    "measurement.simulate_device":
        lambda a, r: {"measurement.trial_steps": r.trials * r.y_m.n_samples},
    "measurement.kalman_estimate":
        lambda a, r: {"measurement.kalman_samples": a["y_m"].n_samples},
    "cli.main": lambda a, r: _csv_work(a["argv"] or []),
}

_MISSING = object()


class Tracer:
    """Records spans of calls into `lossless` while installed."""

    def __init__(self, lossless):
        self._pkg = lossless
        self._thread = threading.get_ident()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.spans: list[tuple[str, str, float, float, int]] = []
        self.counts = dict.fromkeys(COUNTS, 0)

    # -- installation -----------------------------------------------------

    def _wrap(self, fn, layer: str, name: str):
        key = f"{layer}.{name}"
        work = _WORK.get(key)
        signature = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            span_name = key
            if key == "approx_linear.kernel":
                times = args[1] if len(args) > 1 else kwargs["times"]
                span_name += "_ongrid" if _is_grid(times) else "_offgrid"
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append((span_name, layer, 0.0, 0.0, parent))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (span_name, layer, start, end, parent)
            if work:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for count, value in work(bound.arguments, result).items():
                    self.counts[count] += int(value)
            return result

        return wrapper

    def _rebind(self, holder, name: str, value) -> None:
        # A bank method lives on the shared mixin; the override is set on the
        # public class and deleted again on uninstall.
        self._saved.append((holder, name, vars(holder).get(name, _MISSING)))
        setattr(holder, name, value)

    def install(self) -> None:
        import lossless.cli  # noqa: F401  (registers the cli layer)

        modules = {layer: getattr(self._pkg, layer) for layer in LAYERS}
        namespaces = [self._pkg, *modules.values()]
        for layer, module in modules.items():
            for name in module.__all__:
                fn = getattr(module, name)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(fn, layer, name)
                for ns in namespaces:
                    if vars(ns).get(name) is fn:
                        self._rebind(ns, name, wrapper)
        for cls_name in BANK_CLASSES:
            cls = getattr(modules["approx_linear"], cls_name)
            for method in BANK_METHODS:
                self._rebind(cls, method, self._wrap(getattr(cls, method), "approx_linear", method))

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._saved):
            if original is _MISSING:
                delattr(holder, name)
            else:
                setattr(holder, name, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- aggregation ------------------------------------------------------

    def aggregate(self, wall_s: float) -> dict:
        """Per-layer calls/total/self, entry-point times, counts and rates.

        A span's self time is its duration minus its direct children's, so
        layer self times partition the root spans exactly; `harness.self_s`
        is the rest of the traced wall time.  A layer's `total_s` sums its
        spans that have no ancestor in the same layer.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, layer, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.total_s"] = 0.0
            out[f"{layer}.self_s"] = 0.0
        entry = dict.fromkeys(ENTRY_POINTS, 0.0)
        roots = 0.0
        for i, (name, layer, start, end, parent) in enumerate(spans):
            duration = end - start
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += duration - child_time[i]
            ancestors = set()
            names = set()
            p = parent
            while p >= 0:
                ancestors.add(spans[p][1])
                names.add(spans[p][0])
                p = spans[p][4]
            if layer not in ancestors:
                out[f"{layer}.total_s"] += duration
            if name in entry and name not in names:
                entry[name] += duration
            if parent < 0:
                roots += duration
        for name, seconds in entry.items():
            out[f"{name}_s"] = seconds
        for count in COUNTS:
            value = self.counts[count]
            layer_self = out[f"{count.split('.')[0]}.self_s"]
            out[count] = value
            out[f"{count}_per_s"] = value / layer_self if layer_self > 0 else 0.0
        out["harness.self_s"] = wall_s - roots
        return out

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, layer, start, end, parent in self.spans:
                fh.write(json.dumps({
                    "name": name, "layer": layer, "parent": parent,
                    "start": start - origin, "end": end - origin,
                }) + "\n")
