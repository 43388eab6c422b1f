"""The four README demos run to completion.

Each script runs in-process as `__main__` with its printout captured,
so a change to a record or constructor the demos use cannot break them
unnoticed.  Together they take about 1.5 s.
"""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_the_four_readme_demos_are_found():
    assert [path.stem for path in DEMOS] == [
        "closed_circuit_energy",
        "lossless_resistor_synthesis",
        "measurement_tradeoff",
        "thermal_fluctuations",
    ]


@pytest.mark.parametrize("path", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs_and_prints(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue().strip()
