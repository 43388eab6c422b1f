"""Record every `check_dissipative` call of a test run, then replay it.

    PYTHONPATH=src:bench python3 -m pytest -p verdicts --verdicts FILE [pytest args]
    python3 bench/verdicts.py --replay FILE

As a pytest plugin (`-p verdicts`, with `bench/` on the path) it wraps
`check_dissipative` wherever the `lossless` package binds it, and at the end
of the run pickles each call into FILE: its arguments, the test that made
it, and its verdict and `min_eigenvalue` (or the name of the exception it
raised).  `--replay FILE` re-runs the recorded calls on the library in this
checkout's `src/` and prints each call whose verdict differs, each whose
`min_eigenvalue` moved up (`*` past 1e-8 max(1, |reading|)), then the
counts.  It exits 1 if a verdict differs.  FILE is unpickled, so replay
only files you recorded yourself.
"""

from __future__ import annotations

import argparse
import os
import pickle
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def pytest_addoption(parser):
    parser.addoption("--verdicts", metavar="FILE", required=True,
                     help="pickle every check_dissipative call of the run into FILE")


def pytest_configure(config):
    import lossless

    original, calls = lossless.check_dissipative, []

    def recorded(obj, frequencies=None):
        call = {"args": pickle.dumps((obj, frequencies)), "test": os.environ.get("PYTEST_CURRENT_TEST"),
                "min_eigenvalue": None}
        calls.append(call)
        try:
            v = original(obj, frequencies)
        except Exception as exc:  # an error is an outcome to compare, like a verdict
            call["verdict"] = type(exc).__name__
            raise
        call.update(verdict=v.dissipative, min_eigenvalue=v.min_eigenvalue)
        return v

    for module in list(sys.modules.values()):
        if module.__name__.startswith("lossless") and getattr(module, "check_dissipative", None) is original:
            module.check_dissipative = recorded
    config.add_cleanup(lambda: Path(config.getoption("verdicts")).write_bytes(pickle.dumps(calls)))


def replay(path: str) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from lossless import check_dissipative

    calls = pickle.loads(Path(path).read_bytes())
    differ = up = past = 0
    for call in calls:
        try:
            v = check_dissipative(*pickle.loads(call["args"]))
            verdict, low = v.dissipative, v.min_eigenvalue
        except Exception as exc:
            verdict, low = type(exc).__name__, None
        old = call["min_eigenvalue"]
        if verdict != call["verdict"]:
            differ += 1
            print(f"verdict {call['verdict']} -> {verdict}: {call['test']}")
        elif low is not None and low > old:
            up += 1
            far = low - old > 1e-8 * max(1.0, abs(old))
            past += far
            print(f"min_eigenvalue {old!r} -> {low!r}{' *' if far else ''}: {call['test']}")
    print(f"{len(calls)} calls: {differ} verdicts differ, {up} min_eigenvalue moved up, "
          f"{past} by more than 1e-8 max(1, |reading|)")
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="verdicts.py", description=__doc__.splitlines()[0])
    parser.add_argument("--replay", metavar="FILE", required=True, help="a file the plugin recorded")
    return replay(parser.parse_args(argv).replay)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
