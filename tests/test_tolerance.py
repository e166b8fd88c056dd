import json
import os
import subprocess
import sys

from bfre import tolerance


def test_default():
    assert tolerance.EPS == 1e-9


def test_environment_cannot_widen_the_tolerance():
    # dombi #93 of this batch is a 3x1 dombi(2) draw whose row 0 has
    # |a- - b| = 1.8e-7: a tolerance of 1e-6 resolves it as a- = b and loses
    # the planted point, so any way of widening EPS from outside shows here
    env = dict(os.environ, BFRE_EPS="1e-6")
    done = subprocess.run(
        [sys.executable, "-m", "bfre.cli", "verify", "--seed", "1", "--count", "94",
         "--json", "--no-timing"],
        env=env, capture_output=True, text=True)
    assert json.loads(done.stdout)["mismatches"] == []
    assert done.returncode == 0, done.stderr
