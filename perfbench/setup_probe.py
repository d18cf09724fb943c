"""Time tentopt's import plus one workload's input generation in this fresh
interpreter, and print the seconds.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
import time

start = time.perf_counter()
import workloads  # noqa: E402  (imports tentopt)

workloads.WORKLOADS[sys.argv[1]].inputs(int(sys.argv[2]))
print(time.perf_counter() - start)
