"""Time one set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Imports ``linesched``, generates the workload's instances with their JSON
round trip, and prints the seconds this took.
"""

import sys
import time

from workloads import WORKLOADS, load_linesched

if __name__ == "__main__":
    t0 = time.perf_counter()
    ls = load_linesched()
    WORKLOADS[sys.argv[1]].generate(ls, int(sys.argv[2]))
    print(time.perf_counter() - t0)
