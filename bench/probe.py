"""Set-up probe: a fresh interpreter gets ready to run its first job.

Run as ``python3 bench/probe.py <workload> <seed>`` by the benchmark.  It
imports numpy, ``scipy.integrate`` and ``pbeseries.cli`` (timing each),
generates the workload, and prints one JSON line whose ``ready`` field is
``time.monotonic()`` at that moment; the caller subtracts its own clock
reading taken before it started the process.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

t0 = time.perf_counter()
import numpy  # noqa: E402,F401

t1 = time.perf_counter()
from scipy import integrate  # noqa: E402,F401

t2 = time.perf_counter()
import pbeseries.cli  # noqa: E402,F401

t3 = time.perf_counter()
from bench.jobs import make_jobs  # noqa: E402

make_jobs(sys.argv[1], int(sys.argv[2]))
print(json.dumps({
    "ready": time.monotonic(),
    "setup.import_numpy_s": t1 - t0,
    "setup.import_scipy_s": t2 - t1,
    "setup.import_pbeseries_s": t3 - t2,
}))
