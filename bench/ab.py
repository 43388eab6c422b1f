"""A/B comparison of this checkout against a git revision, in alternating pairs.

    python3 bench/ab.py BASE [--workloads W ...] [--pairs N] [--seed N] [--setup N] [--cli] [--layers]
                             [--bytes]

BASE (a commit, branch or tag) is exported with `git archive` into a
temporary directory, which is removed at the end; the other side is this
checkout's working tree.  Each pair runs both sides back to back, and
every second pair runs the change first, so that a drift of the host's
speed hits both sides alike.  Every child gets one BLAS thread and the
bytecode mode of this process, and the output records both.

- `--workloads` (the default mode, all three workloads): `--pairs` runs of
  `perfbench/run.py --workload W --seed N --seconds 15 --trace 0` per side,
  compared on `wall_s`, `setup_s` and `peak_rss_mib`.  `--seed` sets N
  (default 1), so that a claim can be checked on a seed not used while
  the change was written.
- `--setup N`: N pairs of fresh interpreters running perfbench's set-up
  code alone (imports and every experiment's config), timed from spawn to
  exit.
- `--cli`: `--pairs` fresh-process runs per side of each CLI experiment at
  its defaults with `--seed 1` (as `bench/record.py`'s `cli_cold`),
  compared on `wall_s` and `peak_rss_mib`.
- `--layers`: `--pairs` fresh processes per side of this checkout's
  `bench/layers.py` on the side's library, compared per case on the
  least of its timed calls; the report adds each side's minimum.  A case
  that raises on either side stops the comparison with its error.
- `--bytes`: each CLI experiment once per side at its defaults with
  `--seed 1`: every CSV byte for byte, the exit codes, and the manifests
  without their `versions`.  A CSV that differs is named with the count of
  cells that differ, their columns and the largest relative deviation.

For each metric it prints the median and quartiles of each side, how many
pairs the change reads lower, and a verdict: "resolved" only when the
medians differ by more than the base side's interquartile range,
"unresolved" otherwise.  The last line is one JSON object with every
sample.  The exit code is 1 when `--bytes` finds a difference or a run
fails, else 0.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from layers import CASES  # noqa: E402
from record import COLD_CHILD, EXPERIMENTS, SINGLE_THREAD, WORKLOADS  # noqa: E402

def verdict(base: list[float], change: list[float]) -> dict:
    """Medians, quartiles, the pairs in which the change reads lower, and
    whether the medians differ by more than the base side's IQR."""
    def summary(samples):
        q1, median, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
        return {"median": median, "q1": q1, "q3": q3}

    b, c = summary(base), summary(change)
    resolved = abs(c["median"] - b["median"]) > b["q3"] - b["q1"]
    return {"base": b, "change": c, "lower": sum(y < x for x, y in zip(base, change)),
            "pairs": len(base), "verdict": "resolved" if resolved else "unresolved"}


def _compare(samples: dict, metrics) -> dict:
    """The verdict on each metric of paired runs, printed as it is formed."""
    out = {}
    for metric in metrics:
        base, change = ([run[metric] for run in samples[side]] for side in ("base", "change"))
        out[metric] = verdict(base, change) | {"samples": {"base": base, "change": change}}
        print(_line(metric, out[metric]), flush=True)
    return out


def _line(name: str, v: dict) -> str:
    b, c = v["base"], v["change"]
    return (f"  {name}: base {b['median']:.4g} ({b['q1']:.4g}-{b['q3']:.4g}), change {c['median']:.4g} "
            f"({c['q1']:.4g}-{c['q3']:.4g}), ratio {c['median'] / b['median']:.3f}, change lower in "
            f"{v['lower']} of {v['pairs']}: {v['verdict']}")


def _export(rev: str, into: Path) -> Path:
    """The committed files of `rev`, unpacked under `into`."""
    tree = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tree)) as tar:
        tar.extractall(into, filter="data")
    return into


def _env(tree: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(tree / "src"), **SINGLE_THREAD)


def _alternate(pairs: int, trees: dict, run) -> dict:
    """{side: [run(tree) for each pair]}, the change first in odd pairs."""
    samples = {side: [] for side in trees}
    for i in range(pairs):
        for side in (("base", "change") if i % 2 == 0 else ("change", "base")):
            samples[side].append(run(trees[side]))
    return samples


def _workload(tree: Path, name: str, seed: int) -> dict:
    args = ["perfbench/run.py", "--workload", name, "--seed", str(seed), "--seconds", "15", "--trace", "0"]
    done = subprocess.run([sys.executable, *args], cwd=tree, env=_env(tree), capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"{name} in {tree}: {done.stderr.strip().splitlines()[-1:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {m: v["value"] for m, v in result["metrics"].items()} | {"failed": result["failed"]}


def _setup(tree: Path, code: str) -> dict:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=tree, env=_env(tree), check=True)
    return {"seconds": time.perf_counter() - start}


def _cold(tree: Path, experiment: str) -> dict:
    with tempfile.TemporaryDirectory() as out:
        done = subprocess.run([sys.executable, "-c", COLD_CHILD, experiment, "--seed", "1", "--out", out],
                              cwd=tree, env=_env(tree), capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _layers(tree: Path) -> dict:
    """{case: least timed call in seconds} of one fresh process of
    `bench/layers.py` on the library of `tree`."""
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "layers.py")], cwd=tree, env=_env(tree),
                          capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"layers in {tree}: {done.stderr.strip().splitlines()[-1:]}")
    return {case: timing["min_s"] for case, timing in json.loads(done.stdout.strip().splitlines()[-1]).items()}


def _compare_layers(samples: dict) -> dict:
    """The verdict and both minima of each layer case."""
    out = {}
    for case in CASES:
        base, change = ([run[case] for run in samples[side]] for side in ("base", "change"))
        out[case] = verdict(base, change) | {"min": {"base": min(base), "change": min(change)},
                                             "samples": {"base": base, "change": change}}
        print(f"{_line(case, out[case])}; min {min(base):.4g} -> {min(change):.4g}", flush=True)
    return out


def _start(tree: Path, experiment: str, work: Path) -> subprocess.Popen:
    """One default run of `experiment` in `tree`, writing under `work`."""
    work.mkdir(parents=True)
    return subprocess.Popen([sys.executable, "-m", "lossless", experiment, "--seed", "1", "--out", "out"],
                            cwd=work, env=_env(tree), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def _outputs(run: subprocess.Popen, work: Path) -> dict:
    """A finished run's exit code, CSV bytes and manifest."""
    code, out = run.wait(), work / "out"
    files = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))} if out.is_dir() else {}
    written = out / "manifest.json"
    manifest = json.loads(written.read_text(encoding="utf-8")) if written.is_file() else {}
    return {"exit_code": code, "csv": files,
            "manifest": {k: v for k, v in manifest.items() if k != "versions"}}


def _cells(base: bytes | None, change: bytes | None) -> str:
    """Where two CSV files of one shape differ: the count of cells, their
    columns and the largest relative deviation of the numeric ones."""
    if base is None or change is None:
        return ""
    rows = [list(csv.reader(io.StringIO(data.decode()))) for data in (base, change)]
    if [len(r) for r in rows[0]] != [len(r) for r in rows[1]]:
        return " in shape"
    header, cells = rows[0][0] if rows[0] else [], []
    for old, new in zip(*rows):
        cells += [(header[i], a, b) for i, (a, b) in enumerate(zip(old, new)) if a != b]
    deviations = []
    for _, a, b in cells:
        try:
            deviations.append(abs(float(b) - float(a)) / max(abs(float(a)), 1e-300))
        except ValueError:
            deviations.append(float("inf"))
    columns = sorted({column for column, _, _ in cells})
    return (f" in {len(cells)} cells ({', '.join(columns)}), largest relative deviation "
            f"{max(deviations, default=0.0):.2g}")


def _compare_bytes(trees: dict, work: Path) -> list[str]:
    """Every difference between the two trees' default runs, as text.  The
    two sides of an experiment run at the same time."""
    differences = []
    for experiment in EXPERIMENTS:
        dirs = {side: work / side / experiment for side in trees}
        runs = {side: _start(trees[side], experiment, dirs[side]) for side in trees}
        base, change = (_outputs(runs[side], dirs[side]) for side in ("base", "change"))
        if base["exit_code"] != change["exit_code"]:
            differences.append(f"{experiment}: exit code {base['exit_code']} -> {change['exit_code']}")
        for name in sorted(base["csv"].keys() | change["csv"].keys()):
            old, new = base["csv"].get(name), change["csv"].get(name)
            if old != new:
                differences.append(f"{experiment}: {name} differs{_cells(old, new)}")
        if base["manifest"] != change["manifest"]:
            keys = {k for k in base["manifest"].keys() | change["manifest"].keys()
                    if base["manifest"].get(k) != change["manifest"].get(k)}
            differences.append(f"{experiment}: manifest differs in {sorted(keys)}")
        print(f"  {experiment}: exit {base['exit_code']}, {len(base['csv'])} CSV files", flush=True)
    return differences


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision to compare this checkout against")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload or experiment (10)")
    parser.add_argument("--seed", type=int, default=1, help="perfbench seed of the workload runs (1)")
    parser.add_argument("--setup", type=int, default=0, metavar="N", help="pairs of set-up runs")
    parser.add_argument("--cli", action="store_true", help="pairs of cold CLI runs")
    parser.add_argument("--layers", action="store_true", help="pairs of bench/layers.py runs")
    parser.add_argument("--bytes", action="store_true", help="compare the default outputs")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.setup < 0 or args.seed < 0:
        parser.error("--pairs must be positive, --setup and --seed nonnegative")
    workloads = args.workloads or (() if args.setup or args.cli or args.layers or args.bytes else WORKLOADS)

    env = {"blas_threads": SINGLE_THREAD, "dont_write_bytecode": sys.dont_write_bytecode,
           "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
           "python": sys.version.split()[0]}
    print(f"ab: {args.base} against the working tree of {ROOT}; " + json.dumps(env), flush=True)
    report, code = {"base": args.base, "seed": args.seed, "environment": env}, 0
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {"base": _export(args.base, Path(tmp) / "base"), "change": ROOT}
        for name in workloads:
            print(f"{name} ({args.pairs} pairs, --seed {args.seed}):", flush=True)
            samples = _alternate(args.pairs, trees, lambda tree: _workload(tree, name, args.seed))
            report[name] = _compare(samples, ("wall_s", "setup_s", "peak_rss_mib"))
            failed = {side: sum(s["failed"] for s in samples[side]) for side in samples}
            if any(failed.values()):
                print(f"  failed operations: {failed}")
                code = 1
        if args.setup:
            sys.path.insert(0, str(ROOT / "perfbench"))
            from run import SETUP_CODE

            print(f"set-up code ({args.setup} pairs):", flush=True)
            samples = _alternate(args.setup, trees, lambda tree: _setup(tree, SETUP_CODE))
            report["setup"] = _compare(samples, ("seconds",))
        if args.cli:
            report["cli"] = {}
            for experiment in EXPERIMENTS:
                samples = _alternate(args.pairs, trees, lambda tree: _cold(tree, experiment))
                codes = {side: sorted({s["exit_code"] for s in samples[side]}) for side in samples}
                print(f"{experiment} ({args.pairs} pairs, exit codes {codes}):", flush=True)
                report["cli"][experiment] = _compare(samples, ("wall_s", "peak_rss_mib")) | {"exit_codes": codes}
                code = max(code, int(codes["base"] != codes["change"]))
        if args.layers:
            print(f"layers ({args.pairs} pairs, least of each process's timed calls):", flush=True)
            report["layers"] = _compare_layers(_alternate(args.pairs, trees, _layers))
        if args.bytes:
            print("bytes of every experiment at its defaults, --seed 1:", flush=True)
            differences = _compare_bytes(trees, Path(tmp) / "bytes")
            report["bytes"] = differences
            print("  identical" if not differences else "\n".join("  DIFFERS " + d for d in differences))
            code = max(code, int(bool(differences)))
    print(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
