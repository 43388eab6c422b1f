"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import lossless  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


#: A fresh interpreter that runs one tiny workload as `run.py` would, with
#: BLAS pinned by importing `run` before numpy.
LAUNCHER = (
    "import json, sys\n"
    "sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
    "import run\n"
    "print(json.dumps(run.run_workload(sys.argv[3], 7, 0.1, sys.argv[4] == '1', size='tiny')))\n"
)


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", LAUNCHER, str(HERE), str(ROOT / "src"), workload, str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_metric(workload):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        result = _bench(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert 0 <= result["failed"] <= result["attempted"]
        declared = {m["name"]: m["unit"] for m in BENCHMARK[group]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        if trace:
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            parts = sum(metrics[f"{layer}.self_s"] for layer in LAYERS) + metrics["harness.self_s"]
            assert parts == pytest.approx(metrics["traced_wall_s"], rel=1e-9)


def _outputs(workload: str, out: Path, traced: bool):
    ops = workloads.operations(workload, "tiny", 3, 0, out)
    tracer = Tracer(lossless)
    with tracer if traced else contextlib.nullcontext():
        outcomes = [workloads.run_operation(name, op, "tiny") for name, op in ops]
    verdicts = [(o.op, o.error, [(c.name, c.passed) for c in o.checks]) for o in outcomes]
    csvs = {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*.csv"))}
    return verdicts, csvs, tracer


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_changes_no_output(workload, tmp_path):
    plain = _outputs(workload, tmp_path / "plain", traced=False)
    traced = _outputs(workload, tmp_path / "traced", traced=True)
    assert plain[0] == traced[0]
    assert plain[1] and plain[1] == traced[1]
    assert traced[2].spans and not plain[2].spans
    # uninstall restored every original binding
    assert lossless.cli.simulate_device is lossless.measurement.simulate_device
    assert "kernel" not in vars(lossless.FourierLosslessApprox)


def _exit_with(monkeypatch, experiment: str, code: int) -> None:
    """Make `experiment` run as usual but exit with `code`."""
    main = lossless.cli.main

    def fake(argv):
        real = main(argv)
        return code if argv[0] == experiment else real

    monkeypatch.setattr(lossless.cli, "main", fake)


def test_failed_statistical_verdict_is_counted(monkeypatch):
    _exit_with(monkeypatch, "measure", 3)  # one of its own checks failed
    result = run.run_workload("montecarlo", 5, 0.1, trace=True, size="tiny")
    detail = json.loads((run.WORK / "last-montecarlo.json").read_text(encoding="utf-8"))
    failed_ops = [o["op"] for o in detail["operations"] if o["failed"]]
    assert failed_ops.count("measure") == 3  # the cold pass, one untraced and one traced pass
    assert result["failed"] == len(failed_ops)
    assert result["attempted"] == len(detail["operations"])
    assert result["correct"] is True  # a stochastic verdict is not a deterministic check


def _cli_outcome(workload: str, experiment: str, out: Path):
    [(name, op)] = [o for o in workloads.operations(workload, "tiny", 5, 0, out) if o[0] == experiment]
    return workloads.run_operation(name, op, "tiny")


def test_config_error_is_incorrect(monkeypatch, tmp_path):
    monkeypatch.setitem(workloads.TINY_CLI, "measure", {"trials": 0})  # exit 2
    outcome = _cli_outcome("montecarlo", "measure", tmp_path)
    assert outcome.failed and not outcome.correct
    assert outcome.checks[0].detail.startswith("exit 2")


@pytest.mark.parametrize("workload, experiment, code", [
    ("montecarlo", "measure", 4),               # numerical failure
    ("trajectories", "approx-memoryless", 3),   # a check failed on a seed-free experiment
])
def test_nonstatistical_exit_is_incorrect(monkeypatch, tmp_path, workload, experiment, code):
    _exit_with(monkeypatch, experiment, code)
    outcome = _cli_outcome(workload, experiment, tmp_path)
    assert outcome.failed and not outcome.correct


def test_reference_deviation_fails_the_check(monkeypatch):
    monkeypatch.setitem(workloads.reference()["tiny"], "dense.state_dimension", 1)
    outcome = workloads.run_operation("dense_impulse", workloads._dense_impulse(workloads.SIZES["tiny"]), "tiny")
    assert outcome.failed and not outcome.correct
    [bad] = [c for c in outcome.checks if not c.passed]
    assert bad.name == "dense.state_dimension" and bad.deviation > 1.0


def test_outside_checkout_exits_without_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.*"):
        (bench / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "synthesis", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
