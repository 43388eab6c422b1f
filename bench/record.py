"""Record the benchmark of every workload and the Tier-1 test time in one file.

    python3 bench/record.py BENCH_<n>.json

Runs `perfbench/run.py --workload <w> --seed 1 --seconds 15 --trace 0` for
each of the three workloads in its own process, then the Tier-1 test
command, and writes one JSON object: each workload's result line (the last
line `run.py` prints), the Tier-1 wall time and summary line, the Tier-1
passed, failed, xfailed and error counts, the count of non-blank lines in
the Python files under `src/` and the count of public parameters with
defaults (so that the size of the library, the options it offers and the
tests it passes can be compared between records), and the machine facts
(nproc, CPU, Python, numpy and scipy versions, the bytecode mode --
`sys.dont_write_bytecode` and `PYTHONDONTWRITEBYTECODE` -- and the BLAS
thread variables of the recording process).  Without a bytecode cache a
fresh process compiles `src/` first, which adds tens of ms to each
cold time.

`cli_cold` holds each of the eight CLI experiments at its defaults with
`--seed 1`, run `COLD_RUNS` times in a fresh process with one BLAS thread
and a temporary `--out`: the median wall time from `import lossless.cli`
to exit, the largest peak RSS (the child's own `ru_maxrss`), the exit
codes, and the public `scipy` and `numpy.f2py` modules loaded at exit.
`layers` holds `bench/layers.py` on this checkout, one fresh process with
one BLAS thread (its `REPEAT` timed calls a case).  It changes nothing
under `perfbench/`; the output path is its only argument.
"""

from __future__ import annotations

import inspect
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("synthesis", "montecarlo", "trajectories")
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
EXPERIMENTS = ("approx-memoryless", "approx-dissipative", "approx-nonlinear", "fdt",
               "langevin", "measure", "tradeoff", "table1")
COLD_RUNS = 3
SINGLE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

#: One CLI run in a fresh interpreter; its last stdout line reports the run.
COLD_CHILD = """
import json, resource, sys, time
start = time.perf_counter()
import lossless.cli
code = lossless.cli.main(sys.argv[1:])
wall = time.perf_counter() - start
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m.startswith("numpy.f2py"))
print(json.dumps({"exit_code": code, "wall_s": wall,
                  "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  "modules": [m for m in loaded if not any(p.startswith("_") for p in m.split("."))]}))
sys.exit(code)
"""


def _machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "dont_write_bytecode": sys.dont_write_bytecode,
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "blas_threads": {name: os.environ.get(name) for name in SINGLE_THREAD}}


def _workload(name: str) -> dict:
    args = ["perfbench/run.py", "--workload", name, "--seed", "1", "--seconds", "15", "--trace", "0"]
    done = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    return {"command": " ".join(["python3", *args]), "exit_code": done.returncode,
            "result": json.loads(lines[-1]) if done.returncode == 0 and lines else None,
            "report": lines[:-1] if done.returncode == 0 else done.stderr.strip().splitlines()[-5:]}


def _src_env(extra: dict | None = None) -> dict:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **(extra or {}))


def _cli_cold(experiment: str) -> dict:
    runs = []
    for _ in range(COLD_RUNS):
        with tempfile.TemporaryDirectory() as out:
            args = ["-c", COLD_CHILD, experiment, "--seed", "1", "--out", out]
            done = subprocess.run([sys.executable, *args], cwd=ROOT, env=_src_env(SINGLE_THREAD),
                                  capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        try:
            runs.append(json.loads(lines[-1]))
        except (IndexError, ValueError):
            runs.append({"exit_code": done.returncode, "error": done.stderr.strip().splitlines()[-1:]})
    timed = [run for run in runs if "wall_s" in run]
    return {"command": f"python3 -m lossless {experiment} --seed 1 --out <tmp>",
            "exit_codes": [run["exit_code"] for run in runs],
            "wall_s": statistics.median(run["wall_s"] for run in timed) if timed else None,
            "peak_rss_mib": max((run["peak_rss_mib"] for run in timed), default=None),
            "modules": timed[-1]["modules"] if timed else None}


def _layers() -> dict:
    done = subprocess.run([sys.executable, "bench/layers.py"], cwd=ROOT, env=_src_env(SINGLE_THREAD),
                          capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]) if done.returncode == 0 and lines else {"error": done.stderr.strip()[-500:]}


def _src_lines() -> int:
    """Non-blank lines of the Python files under src/."""
    return sum(1 for path in sorted((ROOT / "src").rglob("*.py"))
               for line in path.read_text(encoding="utf-8").splitlines() if line.strip())


def _public_defaults() -> int:
    """Parameters with a default across `lossless.__all__`: those of each
    function, and of each class's constructor and public methods."""
    sys.path.insert(0, str(ROOT / "src"))
    import lossless

    count = 0
    for name in lossless.__all__:
        obj = getattr(lossless, name)
        members = [obj]
        if inspect.isclass(obj):
            members += [getattr(obj, m) for m in vars(obj) if not m.startswith("_")]
        for member in filter(callable, members):
            params = inspect.signature(member).parameters.values()
            count += sum(p.default is not p.empty for p in params)
    return count


def _tier1_counts(summary: str) -> dict:
    """Passed, failed, xfailed and error counts from pytest's summary line,
    "1053 passed, 4 xfailed in 57.7s"; an outcome it does not name is 0."""
    found = dict((word, int(n)) for n, word in
                 re.findall(r"(\d+) (passed|failed|xfailed|error)s?\b", summary))
    return {word: found.get(word, 0) for word in ("passed", "failed", "xfailed", "error")}


def _tier1() -> dict:
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1], cwd=ROOT, env=_src_env(), capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    return {"command": "PYTHONPATH=src python " + " ".join(TIER1), "wall_s": wall,
            "exit_code": done.returncode, "summary": lines[-1] if lines else ""}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0].startswith("-"):
        print("usage: python3 bench/record.py OUTPUT.json", file=sys.stderr)
        return 2
    record = {"machine": _machine(), "workloads": {w: _workload(w) for w in WORKLOADS},
              "cli_cold": {e: _cli_cold(e) for e in EXPERIMENTS}, "layers": _layers(), "tier1": _tier1()}
    record |= {"tier1_counts": _tier1_counts(record["tier1"]["summary"]),
               "src_nonblank_lines": _src_lines(), "public_defaults": _public_defaults()}
    Path(argv[0]).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    failed = [w for w, run in record["workloads"].items() if run["exit_code"]]
    return 1 if failed or record["tier1"]["exit_code"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
