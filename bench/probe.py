"""Cold-start probe: import ballprolate from ./src, run one warm-up call of
each op kind of a workload and print CLOCK_MONOTONIC when done.  run.py
starts this script in a fresh interpreter and subtracts its own reading
taken just before the start, which gives the set-up time.

    python3 bench/probe.py <workload> <scratch-dir>
"""

import os
import sys
import time

sys.path[:0] = [os.path.join(os.getcwd(), "src"), os.path.dirname(os.path.abspath(__file__))]

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.warm_up(sys.argv[1], workloads.Ctx(sys.argv[2]))
    print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
