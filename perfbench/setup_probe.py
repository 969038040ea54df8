"""Time the benchmark's set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Set-up is importing dlfmkit, generating the workload's batch of datasets and
building their specs. Prints the elapsed seconds, measured from the first line
of this script, as its only output.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

import run  # noqa: E402

run.load_dlfmkit()
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].make_batch(int(sys.argv[2]))
print(repr(time.perf_counter() - T0))
