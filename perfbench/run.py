"""Benchmark of the `lossless` library and CLI: three closed-loop workloads.

    python3 perfbench/run.py --workload synthesis --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

One client runs a workload's operations back to back in this process
(see `workloads.py` and `README.md`).  A run first times `setup_s` in
fresh interpreters, runs one untimed tiny pass to finish lazy set-up,
then a fixed number of full passes: `--seconds` over the workload's
nominal pass time, rounded (at least one).  With `--trace 0` it reports
the end-to-end metrics; with `--trace 1` it times one cold pass first,
then runs each pass untraced and then traced (same seeds), and reports
the per-layer metrics of the traced ones.  The last
line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`.  Everything it writes stays under
`.bench_build/perfbench` in the checkout.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads, identically for every commit
# compared; only the CLI's own `--threads` pool may use the second core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

#: Fresh-interpreter set-up: imports plus building every experiment's config.
SETUP_CODE = (
    "import lossless, lossless.cli\n"
    "for name in lossless.cli.EXPERIMENTS:\n"
    "    lossless.cli.build_config(name, seed=0, out='unused', threads=1)\n"
)
SETUP_REPEATS = 11

#: Seconds of one full pass on the baseline host (README.md).  A run makes
#: round(--seconds / this) passes, at least one, so the pass count depends on
#: `--seconds` alone and both sides of a comparison take as many samples.
PASS_SECONDS = {"synthesis": 9.0, "montecarlo": 7.0, "trajectories": 25.0}

#: Pass indices of the untimed warm-up and of the cold pass of traced runs,
#: so that their seeds differ from those of every other pass.
WARMUP_PASS = 2**31
COLD_PASS = WARMUP_PASS + 1



def _units() -> dict:
    """Unit of every metric, as BENCHMARK.json declares it."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for group in ("end_to_end", "per_layer") for m in benchmark[group]}


def _setup_times(repeats: int) -> list[float]:
    """Seconds from spawning an interpreter to having every config built.

    This process has imported `lossless` already, so the bytecode caches
    exist, as they do for any user after a first run."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - start)
    return times


def _environment(workload: str, seed: int) -> dict:
    import numpy as np
    import scipy
    from workloads import CLI_THREADS

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cli_threads": CLI_THREADS[workload],
        "workload": workload,
        "seed": seed,
    }


def _run_pass(workload: str, size: str, seed: int, pass_index: int, tracer=None):
    """One pass of a workload; returns (wall seconds, outcomes).

    Outputs go to a scratch directory that is removed afterwards, outside
    the timed region."""
    from workloads import operations, run_operation

    WORK.mkdir(parents=True, exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        ops = operations(workload, size, seed, pass_index, out)
        with tracer or contextlib.nullcontext():
            start = time.perf_counter()
            outcomes = [run_operation(name, op, size) for name, op in ops]
            wall = time.perf_counter() - start
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return wall, outcomes


def _passes(workload, size, seed, count, trace=False):
    """`count` full passes.  With `trace`, each pass runs untraced and then
    traced, with the same seeds, so that slow drifts of the machine's speed
    hit both alike."""
    import lossless
    from tracer import Tracer

    walls, traced_walls, outcomes, layers = [], [], [], []
    for index in range(count):
        wall, result = _run_pass(workload, size, seed, index)
        walls.append(wall)
        outcomes += result
        if trace:
            tracer = Tracer(lossless)
            wall, result = _run_pass(workload, size, seed, index, tracer)
            traced_walls.append(wall)
            outcomes += result
            layers.append(tracer.aggregate(wall))
            tracer.dump(WORK / f"spans-{workload}-{seed}.jsonl")
    return walls, traced_walls, outcomes, layers


def _percentile_summary(values: list[float], unit: str) -> str:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.4f} {unit}"
    for q in (99, 95, 90, 75, 50):
        if n * (100 - q) / 100 >= 10:
            return text + f", p{q} {statistics.quantiles(values, n=100)[q - 1]:.4f} {unit} (n={n})"
    return text + f" (n={n}, too few for a percentile)"


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    import numpy as np

    env = _environment(workload, seed)
    print("environment " + json.dumps(env, sort_keys=True), file=sys.stderr)
    setup = [] if trace else _setup_times(SETUP_REPEATS)
    _run_pass(workload, "tiny", seed, WARMUP_PASS)  # lazy imports, BLAS start-up, caches
    # Until glibc raises its mmap threshold, at the first free of a large
    # block, each large temporary is mapped and faulted in anew: 7 s of the
    # langevin CSV loop at this commit, but in some runs almost none, so a
    # pass timed in that state is too unsteady for `wall_s`.  Traced runs
    # time one full pass in it as `cold_pass_s`; then a 16 MiB block is
    # freed, so that every timed pass starts with the threshold raised.
    cold_outcomes = []
    if trace:
        cold_wall, cold_outcomes = _run_pass(workload, size, seed, COLD_PASS)
    np.ones(2**21).sum()

    count = max(1, round(seconds / PASS_SECONDS[workload]))
    walls, traced_walls, outcomes, layers = _passes(workload, size, seed, count, trace)
    outcomes = cold_outcomes + outcomes

    deviations = [c.deviation for o in outcomes for c in o.checks if c.deviation is not None]
    attempted, failed = len(outcomes), sum(o.failed for o in outcomes)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{workload}: wall_s {_percentile_summary(walls, 's')}; "
          + (f"setup_s {_percentile_summary(setup, 's')}; " if setup else "")
          + (f"cold_pass_s {cold_wall:.4f} s (n=1); " if trace else "")
          + f"peak_rss_mib {peak_rss:.1f} MiB (n=1); "
          f"failed_frac {failed / attempted:.4f} (1, {failed}/{attempted} operations); "
          f"max_ref_deviation {max(deviations, default=0.0):.3g} of tolerance")
    for o in outcomes:
        if o.failed:
            bad = [f"{c.name}: {c.detail}" for c in o.checks if not c.passed]
            print(f"  FAILED {o.op}: {o.error or '; '.join(bad)}")

    if trace:
        metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
        metrics["cold_pass_s"] = cold_wall
        metrics["traced_wall_s"] = statistics.median(traced_walls)
        metrics["trace_overhead_frac"] = metrics["traced_wall_s"] / statistics.median(walls) - 1.0
        metrics["max_ref_deviation"] = max(deviations, default=0.0)
    else:
        metrics = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setup),
                   "peak_rss_mib": peak_rss}
    units = _units()
    metrics = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}

    detail = {
        "environment": env,
        "walls": walls,
        "cpu_times": dict(zip(("user", "system"), os.times()[:2])),
        "setup": setup,
        "operations": [
            {"op": o.op, "seconds": o.seconds, "failed": o.failed, "error": o.error,
             "checks": [vars(c) for c in o.checks]}
            for o in outcomes
        ],
    }
    WORK.mkdir(parents=True, exist_ok=True)
    (WORK / f"last-{workload}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    return {
        "correct": all(o.correct for o in outcomes),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("synthesis", "montecarlo", "trajectories", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    if not (SRC / "lossless" / "__init__.py").is_file():
        print(f"no lossless sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    if args.workload == "all":
        # One process per workload, so each peak RSS is its own.
        code = 0
        for workload in ("synthesis", "montecarlo", "trajectories"):
            cmd = [sys.executable, str(Path(__file__)), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
        return code

    sys.path.insert(0, str(SRC))
    import lossless

    if Path(lossless.__file__).resolve().parent != (SRC / "lossless").resolve():
        print(f"imported lossless from {lossless.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
