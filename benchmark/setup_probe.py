"""Time one set-up in a fresh interpreter: import ``dunkl_lab`` and build the
workload's fixed context.  Prints the seconds.  Started by run.py, which
sets the thread pins and PYTHONPATH in its environment.

    python3 benchmark/setup_probe.py <workload> <seed> <output dir>
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
import workloads  # noqa: E402  (the clock covers the package import)

workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]), Path(sys.argv[3]))
print(repr(time.perf_counter() - start))
