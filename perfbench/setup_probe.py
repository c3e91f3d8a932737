"""Time `import lambdadet` plus building one workload's inputs, in a fresh
interpreter, and print the seconds taken.

    python3 perfbench/setup_probe.py WORKLOAD SEED TINY

run.py starts this several times per run and reports the median as setup_s.
"""

import os
import sys
import time

start = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import workloads  # noqa: E402  (imports lambdadet; that is what is timed)

workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]), sys.argv[3] == "1")
print(time.perf_counter() - start)
