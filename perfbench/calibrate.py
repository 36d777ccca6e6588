"""Host-speed probe: a fixed piece of work that uses no code of the program.

    python3 perfbench/calibrate.py [CPU]

Given a CPU number, it first moves itself to that CPU.  Then it starts
like a set-up probe (interpreter, numpy, scipy.optimize), runs a fixed mix
of numpy array arithmetic and interpreted Python, and prints the
system-wide monotonic clock.  The harness times it from spawn to that
line, on two CPUs at once, a few times in a run, and scales the run's
times by CALIBRATION_REF_S over the median (see NOTES.md, Stability).
Since it runs nothing of the program, no change to the program moves it.
"""

import os
import sys
import time

if len(sys.argv) > 1 and hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {int(sys.argv[1])})

import numpy as np  # noqa: E402
import scipy.optimize  # noqa: E402,F401  (the import that dominates set-up)


def work():
    x = np.linspace(1.0, 2.0, 4096) + 0.25j
    for _ in range(400):
        x = np.sqrt(x * np.exp(-x) + 1.0)
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return float(x.real.sum()) + total


if __name__ == "__main__":
    work()
    print(time.monotonic(), flush=True)
