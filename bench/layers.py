"""Layer timings on fixed inputs: one named case per numerical layer.

    python3 bench/layers.py

Each case builds its inputs, calls its operation once to warm up, then
times `REPEAT` more calls with `time.perf_counter`.  The last line printed
is one JSON object, {case: {"min_s": ..., "median_s": ..., "samples_s":
[...]}}; a case that raises stops the script with its traceback.  The
cases call only the public API of the `lossless` found on `sys.path`, so
`PYTHONPATH=<tree>/src` times any tree with this file, as
`bench/ab.py BASE --layers` does.

The cases are the Monte-Carlo workers of the realized probes at the
`kalman` and `table1` sizes of the `montecarlo` workload, on the measured
LC ladder at t_m = 1e-2 with k_m = T_m = 1 (and E_m = 10), seed 1:

- `m2hat_chunk`: the supply-backed probe, 1024 trials (one chunk) of 256 steps
- `m2hat_long_record`: the same probe, 1 trial of 2048 steps
- `m1hat_chunk`: the linear probe, 1024 trials of 256 steps
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


#: Timed calls per case, after one warm-up call.
REPEAT = 5

CASES = {
    "m2hat_chunk": lambda: _device_run("M2hat", 256, 1024),
    "m2hat_long_record": lambda: _device_run("M2hat", 2048, 1),
    "m1hat_chunk": lambda: _device_run("M1hat", 256, 1024),
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
