import os
import subprocess
import sys

from bfre import tolerance


def test_default():
    assert tolerance.DEFAULT_EPS == 1e-9


def test_env_override_read_at_import():
    code = "import bfre.tolerance as t; print(t.EPS)"
    env = dict(os.environ, BFRE_EPS="1e-6")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert float(out.stdout) == 1e-6


def test_env_override_changes_comparisons():
    # with a coarse tolerance, 0.5000001 >= 0.5 collapses to equality
    code = (
        "from bfre import validate, solve_u;"
        "print(solve_u(validate('lukasiewicz'), 0.5000001, 0.5))"
    )
    env = dict(os.environ, BFRE_EPS="1e-3")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert float(out.stdout) == 1.0
