"""Time one cold set-up: import the package and build a workload's ops.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the seconds from before ``import colored_dyck`` until the op
list exists, in a fresh interpreter, scaled to the reference host
speed (see hostref.py).  run.py calls this several times and reports
the median as ``setup_s``.
"""

import time
from time import perf_counter

import hostref

for _ in range(3):  # warm the sample loop up, so that samples read alike
    hostref.sample_loop()
sampler = hostref.Sampler().start()
t0 = perf_counter()

import sys  # noqa: E402

from workloads import build  # noqa: E402  (imports colored_dyck)

build(sys.argv[1], int(sys.argv[2]))
setup = perf_counter() - t0
time.sleep(hostref.MARGIN)  # samples after the set-up count too
sampler.stop()
print(sampler.scaled(t0, setup)[0])
