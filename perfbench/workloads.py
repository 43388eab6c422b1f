"""The benchmark's three closed-loop workloads and their output checks.

A workload is a list of operations run back to back by one client.  Each
operation returns its checks; it fails when it raises, when a CLI run
exits nonzero, or when a check does not hold.  Checks come in two kinds:

* experiment verdicts: exit code 3 of a CLI experiment whose outputs
  depend on its seed, meaning one of its own statistical checks failed;
* deterministic checks: a measured number against a stored reference
  or an exact identity, within a tolerance set by roundoff or by the
  discretization order (see `reference.json`), and every other nonzero
  exit code (2 for a config error, 4 for a numerical failure), or exit 3
  of an experiment whose outputs do not depend on its seed.  Only these
  decide the benchmark's `correct` flag.

Every seed is derived from (workload seed, pass index, operation index)
before any outcome is seen.  `size="tiny"` shrinks every operation for
the benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.integrate import trapezoid

import lossless
import lossless.cli


@functools.cache
def reference() -> dict:
    """Stored values and tolerances of the deterministic outputs."""
    return json.loads((Path(__file__).parent / "reference.json").read_text(encoding="utf-8"))


WORKLOADS = ("synthesis", "montecarlo", "trajectories")

#: CLI experiments whose outputs do not depend on `--seed`: exit 3 is a
#: deterministic failure for them, and `reference.json` holds their outputs.
DETERMINISTIC_CLI = {"approx-dissipative", "approx-memoryless"}

#: `--threads` handed to the CLI: only `montecarlo` exercises the chunked pool.
CLI_THREADS = {"synthesis": 1, "montecarlo": 2, "trajectories": 1}

#: Reduced experiment configs for `size="tiny"`; the full size is each default.
TINY_CLI = {
    "approx-dissipative": {"epsilon": 0.5},
    "tradeoff": {"trials": 64, "tm_values": [1e-3, 3e-3], "km_values": [0.5, 1.0]},
    "table1": {"trials": 64, "tm_values": [1e-3, 3e-3]},
    "measure": {"trials": 64},
    "fdt": {"trials": 2000, "samples": 2000, "lag_count": 10},
    "langevin": {"horizon": 20.0, "burn_in": 100, "noise_steps": 2000},
    "approx-nonlinear": {"trials": 3, "e0_values": [1e2, 1e3, 1e4, 1e5]},
    "approx-memoryless": {"n_values": [4, 8, 16], "dt": 1e-3},
}

#: Library problem sizes per benchmark size.
SIZES = {
    "full": {
        "eps": 0.1, "eps_dense": 0.3, "kernel_points": 5001, "conv_samples": 2001,
        "impulse_samples": 5001, "kalman_steps": 2048, "riccati_points": 1000,
        "linear_steps": 20000, "lossless_trials": 8,
    },
    "tiny": {
        "eps": 0.5, "eps_dense": 0.6, "kernel_points": 201, "conv_samples": 201,
        "impulse_samples": 201, "kalman_steps": 128, "riccati_points": 20,
        "linear_steps": 2000, "lossless_trials": 1,
    },
}


@dataclass
class Check:
    name: str
    passed: bool
    deterministic: bool
    deviation: float | None = None  # share of the tolerance used, for reference checks
    detail: str = ""


@dataclass
class Outcome:
    op: str
    seconds: float
    checks: list[Check] = field(default_factory=list)
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None or not all(c.passed for c in self.checks)

    @property
    def correct(self) -> bool:
        return self.error is None and all(c.passed for c in self.checks if c.deterministic)


class Checker:
    """Collects one operation's checks against `reference.json`."""

    def __init__(self, size: str):
        self.size = size
        self.checks: list[Check] = []

    def exact(self, name: str, passed: bool, detail: str = "", deterministic: bool = True):
        self.checks.append(Check(name, bool(passed), deterministic, detail=detail))

    def reference(self, key: str, measured: float) -> None:
        """Compare `measured` with the stored value; `tol` is absolute or,
        when the entry says `"relative": true`, relative to the value."""
        entry = reference()["tolerances"][key]
        ref = reference()[self.size][key]
        diff = abs(measured - ref)
        if entry.get("relative"):
            diff /= abs(ref)
        share = diff / entry["tol"]
        self.checks.append(Check(
            key, bool(share <= 1.0), True, deviation=share,
            detail=f"measured {measured!r}, reference {ref!r}, deviation {diff:.3g} (tol {entry['tol']:g})",
        ))


def derive_seed(seed: int, pass_index: int, op_index: int) -> int:
    """Operation seed, fixed by the workload seed before anything runs."""
    return int(np.random.SeedSequence([seed, pass_index, op_index]).generate_state(1)[0] >> 1)


# --------------------------------------------------------------------------
# CLI operations


def _cli(experiment: str, size: str, seed: int, threads: int, out: Path, post=None):
    def op(chk: Checker) -> None:
        argv = [experiment, "--seed", str(seed), "--out", str(out), "--threads", str(threads)]
        if size == "tiny":
            out.mkdir(parents=True, exist_ok=True)
            config = out.parent / f"{out.name}.config.json"
            config.write_text(json.dumps(TINY_CLI[experiment]), encoding="utf-8")
            argv += ["--config", str(config)]
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            code = lossless.cli.main(argv)
        failing = [line for line in log.getvalue().splitlines() if ": FAIL" in line]
        stochastic = code == 3 and experiment not in DETERMINISTIC_CLI
        chk.exact(f"{experiment}.exit_code", code == 0, f"exit {code}; " + "; ".join(failing),
                  deterministic=not stochastic)
        if code in (0, 3) and post is not None:
            post(chk, out)
    return op


def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _dissipative_summary(chk: Checker, out: Path) -> None:
    row = _read_csv(out / "summary.csv")[0]
    for column in ("n_harmonics", "state_dimension", "horizon", "shift", "peak_gain",
                   "error_constant", "kernel_mass", "derivative_mass", "tail_mass",
                   "l2_error", "skew_residual", "min_shifted_eig"):
        chk.reference(f"approx-dissipative.{column}", float(row[column]))


def _memoryless_errors(chk: Checker, out: Path) -> None:
    for row in _read_csv(out / "memoryless.csv"):
        chk.reference(f"approx-memoryless.measured_error.N{row['N']}", float(row["measured_error"]))
        chk.reference(f"approx-memoryless.error_bound.N{row['N']}", float(row["error_bound"]))


# --------------------------------------------------------------------------
# library operations


def _exp_kernel_bank(eps: float):
    """Bank for e^{-t}, exactly as the `approx-dissipative` experiment builds it."""
    t = np.arange(10001) * 1e-3
    g = lossless.Trajectory(dt=1e-3, values=np.exp(-t))
    return lossless.dissipative_lossless_approx(g, eps, 5.0, tail=lambda s: np.exp(-s))


def _direct_sum(bank, times: np.ndarray) -> np.ndarray:
    """Reference series sum_k C_k cos(w_k t) + S_k sin(w_k t), one time at a time."""
    w = (np.pi / bank.horizon) * np.arange(bank.n_harmonics)
    c, s = bank.effective_cos[:, 0, 0], bank.effective_sin[:, 0, 0]
    return np.array([math.fsum(c * np.cos(w * t)) + math.fsum(s * np.sin(w * t)) for t in times])


def _synthesis_bank(sz: dict, seed: int):
    def op(chk: Checker) -> None:
        bank = _exp_kernel_bank(sz["eps"])
        grid = np.linspace(0.0, 5.0, sz["kernel_points"])
        rng = np.random.default_rng(seed)
        offgrid = np.sort(rng.uniform(0.0, 5.0, sz["kernel_points"]))
        on = bank.kernel(grid)[:, 0, 0]
        off = bank.kernel(offgrid)[:, 0, 0]
        dt = 1e-3
        t = np.arange(sz["conv_samples"]) * dt
        y = bank.zero_state_response(np.sin(t), dt)[:, 0]

        chk.reference("bank.n_harmonics", bank.n_harmonics)
        # Roundoff of an N-term series is a few ulps of sum_k |C_k| + |S_k|.
        scale = float(np.abs(bank.effective_cos).sum() + np.abs(bank.effective_sin).sum())
        probe = rng.choice(grid.size, size=min(64, grid.size), replace=False)
        chk.reference("bank.kernel_ongrid_vs_direct_sum",
                      float(np.abs(on[probe] - _direct_sum(bank, grid[probe])).max()) / scale)
        chk.reference("bank.kernel_offgrid_vs_direct_sum",
                      float(np.abs(off[probe] - _direct_sum(bank, offgrid[probe])).max()) / scale)
        # The exact response of e^{-t} to sin t is (sin t - cos t + e^{-t}) / 2.
        exact = 0.5 * (np.sin(t) - np.cos(t) + np.exp(-t))
        chk.reference("bank.sine_response_error", float(np.abs(y - exact).max()))
    return op


def _dense_impulse(sz: dict):
    def op(chk: Checker) -> None:
        bank = _exp_kernel_bank(sz["eps_dense"])
        n = sz["impulse_samples"]
        h = lossless.impulse_response(bank.system, 1e-3, n).values[:, 0, 0]
        k = bank.kernel(np.arange(n) * 1e-3)[:, 0, 0]
        chk.reference("dense.state_dimension", bank.system.n)
        chk.reference("dense.impulse_vs_kernel", float(np.abs(h - k).max() / np.abs(k).max()))
    return op


def _kalman(variant: str, sz: dict, seed: int):
    def op(chk: Checker) -> None:
        system = lossless.measured_lc()
        extra = {"supply_energy": 10.0} if variant == "M2hat" else {}
        device = lossless.Device(variant, admittance=1.0, temperature=1.0, **extra)
        t_m = 1e-2
        outcome = lossless.simulate_device(system, device, t_m, t_m / sz["kalman_steps"], 1, seed)
        offset = None if variant == "M1hat" else 0.0
        est, gains = lossless.kalman_estimate(system, device, outcome.y_m, state_offset=offset)
        finite = bool(np.all(np.isfinite(est.values)) and np.all(np.isfinite(gains.values)))
        chk.exact(f"kalman.{variant}.finite", finite and est.n_samples == outcome.y_m.n_samples)
        if variant == "M1hat":
            # Both filters solve the same least-squares problem on one record.
            chk.reference("kalman.M1hat_final_vs_batch_filter",
                          abs(float(est.values[-1]) - outcome.y_hat))
    return op


def _riccati(sz: dict):
    def op(chk: Checker) -> None:
        grid = np.linspace(10.0 / sz["riccati_points"], 10.0, sz["riccati_points"])
        sol = lossless.riccati_solve(lossless.measured_lc(), 1.0, 1.0, grid)
        for frac in (0.001, 0.01, 0.1, 1.0):
            idx = max(int(round(frac * grid.size)) - 1, 0)
            chk.reference(f"riccati.m_star.{frac:g}", float(sol.m_star[idx]))
    return op


def _linear_energy(sz: dict, seed: int):
    def op(chk: Checker) -> None:
        sys = lossless.lc_ladder()
        dt, steps = 1e-3, sz["linear_steps"]
        t = np.arange(steps + 1) * dt
        rng = np.random.default_rng(seed)
        amps, freqs = rng.standard_normal(5), rng.uniform(0.2, 3.0, 5)
        u = lossless.Trajectory(dt=dt, values=(amps * np.sin(np.outer(t, freqs))).sum(axis=1))
        x, y = lossless.simulate_linear(sys, u)
        ledger = lossless.energy_ledger(x, u, y)
        scale = float(trapezoid(np.abs(ledger.work_rate), dx=dt))
        chk.reference("linear.energy_balance", ledger.balance_residual() / scale)
    return op


def _check_lossless(sz: dict, seed: int):
    def op(chk: Checker) -> None:
        verdict = lossless.check_lossless(lossless.lc_ladder(), trials=sz["lossless_trials"], seed=seed)
        chk.exact("check_lossless.passed", verdict.passed,
                  f"energy residual {verdict.energy_residual:.3g}")
    return op


# --------------------------------------------------------------------------
# workloads


def operations(workload: str, size: str, seed: int, pass_index: int, out: Path
               ) -> list[tuple[str, Callable[[Checker], None]]]:
    """The operations of one pass, in order, with their seeds already fixed."""
    sz = SIZES[size]
    threads = CLI_THREADS[workload]

    def cli(experiment, i, post=None):
        return experiment, _cli(experiment, size, derive_seed(seed, pass_index, i), threads,
                                out / experiment, post)

    if workload == "synthesis":
        return [
            cli("approx-dissipative", 0, _dissipative_summary),
            ("dissipative_bank", _synthesis_bank(sz, derive_seed(seed, pass_index, 1))),
            ("dense_impulse", _dense_impulse(sz)),
        ]
    if workload == "montecarlo":
        return [
            cli("tradeoff", 0),
            cli("table1", 1),
            cli("measure", 2),
            cli("fdt", 3),
            ("kalman_M1hat", _kalman("M1hat", sz, derive_seed(seed, pass_index, 4))),
            ("kalman_M2hat", _kalman("M2hat", sz, derive_seed(seed, pass_index, 5))),
            ("riccati", _riccati(sz)),
        ]
    if workload == "trajectories":
        return [
            cli("langevin", 0),
            cli("approx-nonlinear", 1),
            cli("approx-memoryless", 2, _memoryless_errors),
            ("simulate_linear", _linear_energy(sz, derive_seed(seed, pass_index, 3))),
            ("check_lossless", _check_lossless(sz, derive_seed(seed, pass_index, 4))),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def run_operation(name: str, op: Callable[[Checker], None], size: str) -> Outcome:
    """Run one operation; an exception is the operation's failure, not the harness's."""
    chk = Checker(size)
    start = time.perf_counter()
    try:
        op(chk)
    except Exception as err:  # noqa: BLE001 - any error fails this operation only
        return Outcome(name, time.perf_counter() - start, chk.checks, f"{type(err).__name__}: {err}")
    return Outcome(name, time.perf_counter() - start, chk.checks)
