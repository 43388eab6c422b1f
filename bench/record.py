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
(nproc, CPU, Python, numpy and scipy versions).  It changes
nothing under `perfbench/`; the output path is its only argument.
"""

from __future__ import annotations

import inspect
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("synthesis", "montecarlo", "trajectories")
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


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
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def _workload(name: str) -> dict:
    args = ["perfbench/run.py", "--workload", name, "--seed", "1", "--seconds", "15", "--trace", "0"]
    done = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    return {"command": " ".join(["python3", *args]), "exit_code": done.returncode,
            "result": json.loads(lines[-1]) if done.returncode == 0 and lines else None,
            "report": lines[:-1] if done.returncode == 0 else done.stderr.strip().splitlines()[-5:]}


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
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1], cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    return {"command": "PYTHONPATH=src python " + " ".join(TIER1), "wall_s": wall,
            "exit_code": done.returncode, "summary": lines[-1] if lines else ""}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0].startswith("-"):
        print("usage: python3 bench/record.py OUTPUT.json", file=sys.stderr)
        return 2
    record = {"machine": _machine(), "workloads": {w: _workload(w) for w in WORKLOADS},
              "tier1": _tier1()}
    record |= {"tier1_counts": _tier1_counts(record["tier1"]["summary"]),
               "src_nonblank_lines": _src_lines(), "public_defaults": _public_defaults()}
    Path(argv[0]).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    failed = [w for w, run in record["workloads"].items() if run["exit_code"]]
    return 1 if failed or record["tier1"]["exit_code"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
