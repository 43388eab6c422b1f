"""Count each CLI check's failures over a sweep of seeds.

    python3 bench/seeds.py EXPERIMENT --seeds K [--config FILE]

Runs `lossless.cli.main` for seeds 0..K-1 of one experiment, each into its
own directory under a temporary one that is removed afterwards, with the
config file given (the experiment's defaults otherwise).  Reads every
run's checks from its `manifest.json`, then prints one line per check,
`check <name>: <failures>/<K> failed`, and last one JSON object with the
same counts, the config path and the exit code of every run that wrote no
manifest (2 for a config error, 4 for a numerical failure).  Exits 1 if any
run wrote no manifest, 0 otherwise: failed checks are counted, not errors.
The library is imported from this checkout's `src/`; nothing is written
outside the temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from lossless import cli  # noqa: E402


def sweep(experiment: str, seeds: int, config: str | None) -> dict:
    """Failure count of every check over seeds 0..seeds-1, and the runs that broke."""
    failures: dict[str, int] = {}
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
                failures[check["name"]] = failures.get(check["name"], 0) + (not check["passed"])
    return {"experiment": experiment, "seeds": seeds, "config": config,
            "failures": failures, "broken_runs": broken}


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
        print(f"check {name}: {count}/{args.seeds} failed")
    for seed, code in result["broken_runs"].items():
        print(f"seed {seed}: exit {code}, no manifest")
    print(json.dumps(result, sort_keys=True))
    return 1 if result["broken_runs"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
