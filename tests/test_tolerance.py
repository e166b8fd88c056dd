import os
import subprocess
import sys

import pytest

from bfre import example_path, tolerance


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


@pytest.mark.parametrize("value", ["1e-12", "1e-9", "1e-6", "1e-3"])
def test_accepted_range_includes_both_ends(value):
    code = "import bfre.tolerance as t; print(t.EPS)"
    env = dict(os.environ, BFRE_EPS=value)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert float(out.stdout) == float(value)


@pytest.mark.parametrize("value", ["nan", "-1", "inf", "-inf", "0", "abc", "",
                                   "1e-16", "9e-13", "1.1e-3", "1e-2", "0.1", "0.5"])
def test_out_of_range_value_refused_at_import(value):
    env = dict(os.environ, BFRE_EPS=value)
    done = subprocess.run([sys.executable, "-m", "bfre.cli", "solve", example_path()],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    assert lines[0].startswith("error: ") and "BFRE_EPS" in lines[0], done.stderr


@pytest.mark.parametrize("value", ["nan", "abc", "1e-2"])
def test_refused_value_is_a_value_error_to_library_code(value):
    code = (
        "try:\n"
        "    import bfre\n"
        "except ValueError as e:\n"
        "    print(type(e).__name__, e)\n"
    )
    env = dict(os.environ, BFRE_EPS=value)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout == f"EpsRefused BFRE_EPS={value!r} is not a number in [1e-12, 0.001]\n"
