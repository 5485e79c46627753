"""Time one workload's set-up in a fresh interpreter and print the seconds.

Usage: python3 setup_probe.py <src dir> <workload> <seed> <smoke 0|1>

The clock starts before ``import fedcotrain`` and stops when the workload is
ready for its first timed round, so every sample pays the same import cost a
user does. ``run.py`` starts this several times and reports the median.
"""

import sys
import time

if __name__ == "__main__":
    src, workload, seed, smoke = sys.argv[1:5]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import fedcotrain  # noqa: F401  (the import is part of what is timed)
    from workloads import WORKLOADS

    WORKLOADS[workload](int(seed), smoke == "1").ready()
    print(repr(time.perf_counter() - start))
