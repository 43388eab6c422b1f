"""Count each CLI check's failures over a sweep of seeds.

    python3 bench/seeds.py EXPERIMENT --seeds K [--config FILE]

Runs `lossless.cli.main` for seeds 0..K-1 of one experiment, each into its
own directory under a temporary one that is removed afterwards, with the
config file given (the experiment's defaults otherwise).  Reads every
run's checks from its `manifest.json`, then prints one line per check,
`check <name>: <failures>/<K> failed, worst share <s> (seed <i>: <detail>)`,
and last one JSON object with the same counts, each check's worst reading,
the config path and the exit code of every run that wrote no manifest (2
for a config error, 4 for a numerical failure).  A check's worst reading is
the one that came closest to failing, and its share is how much of the
bound it used (`_reading`): a sweep shows how near it came to failing, not
only how often it failed.  Exits 1 if any
run wrote no manifest, 0 otherwise: failed checks are counted, not errors.
The library is imported from this checkout's `src/`; nothing is written
outside the temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from lossless import cli  # noqa: E402


def _reading(check: dict) -> tuple[float, float | None]:
    """(badness, share) of a manifest check entry's reading v (`value`)
    against its bounds (`at_most` b, `at_least` b, or both, lo to hi).

    Badness orders a check's readings toward failure: v for "at most b",
    -v for "at least b", and for "lo to hi" the distance from the window's
    centre in half-widths.  The share is v / b, b / v or that distance: 1 at
    the bound, past 1 failed.  A one-sided bound that is not positive gives
    no ratio, so its share is None.  A NaN reading is the worst, share inf.
    """
    v, most, least = check["value"], check["at_most"], check["at_least"]
    if math.isnan(v):
        return math.inf, math.inf
    if least is None:
        return v, v / most if most > 0 else None
    if most is None:
        return -v, (least / v if v > 0 else math.inf) if least > 0 else None
    distance = abs(v - (least + most) / 2) / ((most - least) / 2)
    return distance, distance


def sweep(experiment: str, seeds: int, config: str | None) -> dict:
    """Failure count and worst reading of every check over seeds
    0..seeds-1, and the runs that broke."""
    failures: dict[str, int] = {}
    worst: dict[str, dict] = {}
    broken: dict[int, int] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(seeds):
            out = Path(tmp) / f"seed_{seed}"
            argv = [experiment, "--seed", str(seed), "--out", str(out)]
            if config is not None:
                argv += ["--config", config]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            manifest = out / "manifest.json"
            if not manifest.exists():
                broken[seed] = code
                continue
            for check in json.loads(manifest.read_text(encoding="utf-8"))["checks"]:
                name = check["name"]
                failures[name] = failures.get(name, 0) + (not check["passed"])
                badness, share = _reading(check)
                if name not in worst or badness > worst[name]["badness"]:
                    worst[name] = {"badness": badness, "share": share, "seed": seed,
                                   "detail": check["detail"]}
    for entry in worst.values():
        del entry["badness"]
    return {"experiment": experiment, "seeds": seeds, "config": config,
            "failures": failures, "worst": worst, "broken_runs": broken}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="seeds.py", description=__doc__.splitlines()[0])
    parser.add_argument("experiment", choices=cli.EXPERIMENTS)
    parser.add_argument("--seeds", type=int, required=True, help="sweep seeds 0..K-1")
    parser.add_argument("--config", default=None, help="JSON config file")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    result = sweep(args.experiment, args.seeds, args.config)
    for name, count in result["failures"].items():
        worst = result["worst"][name]
        share = "n/a" if worst["share"] is None else f"{worst['share']:.3g}"
        print(f"check {name}: {count}/{args.seeds} failed, worst share {share} "
              f"(seed {worst['seed']}: {worst['detail']})")
    for seed, code in result["broken_runs"].items():
        print(f"seed {seed}: exit {code}, no manifest")
    print(json.dumps(result, sort_keys=True))
    return 1 if result["broken_runs"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
