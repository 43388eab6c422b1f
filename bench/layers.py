"""Layer timings on fixed inputs: one named case per numerical layer.

    python3 bench/layers.py

Each case builds its inputs, calls its operation once to warm up, then
times `REPEAT` more calls with `time.perf_counter`.  The last line printed
is one JSON object, {case: {"min_s": ..., "median_s": ..., "samples_s":
[...]}}; a case that raises stops the script with its traceback.  The
cases call the `lossless` found on `sys.path`, so `PYTHONPATH=<tree>/src`
times any tree with this file, as `bench/ab.py BASE --layers` does: the
RK4 cases through the private functions that hold their layer, which
every tree compared so far has, the others through the public API.

The Monte-Carlo workers of the realized probes, at the `kalman` and
`table1` sizes of the `montecarlo` workload, on the measured LC ladder at
t_m = 1e-2 with k_m = T_m = 1 (and E_m = 10), seed 1:

- `m2hat_chunk`: the supply-backed probe, 1024 trials (one chunk) of 256 steps
- `m2hat_long_record`: the same probe, 1 trial of 2048 steps
- `m1hat_chunk`: the linear probe, 1024 trials of 256 steps

The fixed-step recurrences (RK4 on prefix sums, `statespace._rk4`, and
the exact Langevin step):

- `rk4_cli_sweep`: `approx-nonlinear`'s convergence sweep at the CLI
  defaults, `approx_nonlinear._wrapped_paths` stacked over 5 charges,
  1000 steps
- `rk4_supply_path`: the supply path of `m2hat_long_record` (2048 steps),
  past `measurement._aux_path`'s one-entry memo, which would otherwise
  serve every call after the warm-up
- `langevin_path`: `simulate_langevin` at the `langevin` defaults, one
  100 000-step path of the unit damped state, seed 1

The thermal kernel and the Riccati fold, through the public API, at k_B T = 1:

- `fdt_check`: `empirical_fdt_check` at the `fdt` defaults on the LC
  ladder, 100 000 trials on 50 lags up to 4.9, seed 1
- `riccati_grid`: `riccati_solve` on the measured LC ladder at k_m = 1, on
  the acceptance tests' 120-point grid (40 geometric points on [1e-3, 1],
  80 linear ones on [1.5, 100])
- `kalman_record`: `kalman_estimate` on a 2049-sample M1hat record, the
  first trial of `simulate_device` at t_m = 1e-2, seed 1
"""

from __future__ import annotations

import json
import statistics
import time


def _device_run(variant: str, steps: int, trials: int):
    import lossless

    system = lossless.measured_lc()
    extra = {"supply_energy": 10.0} if variant == "M2hat" else {}
    device = lossless.Device(variant, admittance=1.0, temperature=1.0, **extra)
    return lambda: lossless.simulate_device(system, device, 1e-2, 1e-2 / steps, trials, seed=1)


def _cli_sweep():
    import numpy as np

    from lossless.approx_nonlinear import _wrapped_paths
    from lossless.statespace import _input_samples

    samples = _input_samples(lambda s: 0.1 * np.sin(s), 1, 2e-3, 2.0)
    roots = np.sqrt(2.0 * np.array([1e2, 1e3, 1e4, 1e5, 1e6]))
    return lambda: _wrapped_paths(lambda x, v: -x + v, lambda x, v: x, np.ones(1), roots, *samples, stacked=True)


def _supply_path():
    import lossless
    from lossless.measurement import _aux_path

    lc = lossless.measured_lc()
    args = (lc.J.tobytes(), lc.B.tobytes(), lc.x0.tobytes(), 1.0, 10.0, 1e-2 / 2048, 2048)
    return lambda: _aux_path.__wrapped__(*args)


def _langevin_path():
    import lossless

    model = lossless.LangevinModel(J=[[0.0]], K=[[1.0]], B=[[1.0]], temperature=1.0)
    return lambda: lossless.simulate_langevin(model, None, None, 0.1, 10_000.0, seed=1)


def _fdt_check():
    import numpy as np

    import lossless

    grid = np.linspace(0.0, 4.9, 50)
    return lambda: lossless.empirical_fdt_check(lossless.lc_ladder(), 1.0, 100_000, grid, seed=1)


def _riccati_grid():
    import numpy as np

    import lossless

    grid = np.concatenate([np.geomspace(1e-3, 1.0, 40), np.linspace(1.5, 100.0, 80)])
    return lambda: lossless.riccati_solve(lossless.measured_lc(), 1.0, 1.0, grid)


def _kalman_record():
    import lossless

    system = lossless.measured_lc()
    device = lossless.Device("M1hat", admittance=1.0, temperature=1.0)
    record = lossless.simulate_device(system, device, 1e-2, 1e-2 / 2048, 1, seed=1).y_m
    return lambda: lossless.kalman_estimate(system, device, record)


#: Timed calls per case, after one warm-up call.
REPEAT = 5

CASES = {
    "m2hat_chunk": lambda: _device_run("M2hat", 256, 1024),
    "m2hat_long_record": lambda: _device_run("M2hat", 2048, 1),
    "m1hat_chunk": lambda: _device_run("M1hat", 256, 1024),
    "rk4_cli_sweep": _cli_sweep,
    "rk4_supply_path": _supply_path,
    "langevin_path": _langevin_path,
    "fdt_check": _fdt_check,
    "riccati_grid": _riccati_grid,
    "kalman_record": _kalman_record,
}


def time_case(name: str) -> dict:
    """The least, median and every one of `REPEAT` timed calls of a case."""
    op = CASES[name]()
    op()
    samples = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        op()
        samples.append(time.perf_counter() - start)
    return {"min_s": min(samples), "median_s": statistics.median(samples), "samples_s": samples}


if __name__ == "__main__":
    print(json.dumps({name: time_case(name) for name in CASES}))
