"""Set-up cost of a fresh process: import bfre and load every problem file.

    python3 setup_probe.py <src dir> <instance dir>

Prints the elapsed seconds and the mean time of a calibration round run
just before and just after (see run.SpeedGauge).  Interpreter start-up is not
counted; the clock starts just before ``import bfre``.
"""

import os
import sys
import time


def main(src: str, instance_dir: str) -> tuple:
    problem, x = calibration_problem()
    before = calibration_round(problem, x)
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from bfre.cli import load_problem

    for name in sorted(os.listdir(instance_dir)):
        load_problem(os.path.join(instance_dir, name))
    elapsed = time.perf_counter() - t0
    return elapsed, (before + calibration_round(problem, x)) / 2


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import calibration_problem, calibration_round

    print(*map(repr, main(sys.argv[1], sys.argv[2])))
