"""The demos run as scripts: each checks its own conclusion and exits 1,
naming the row, where a result contradicts it.  The counterexample demo
is left to criterion 5, which checks the same claim."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["topologies_and_rates", "logistic_lasso"])
def test_demo_exits_zero(demo):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
