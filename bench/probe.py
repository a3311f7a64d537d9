"""Set-up probe: import zerophase and build one workload's inputs, then exit.

    python3 bench/probe.py WORKLOAD SEED

harness.py times this from spawn to exit in a fresh interpreter; the median
over a few probes is the setup_s metric.
"""

import sys
from pathlib import Path

import zerophase  # noqa: F401  (the import is what is being timed)
import workloads

if __name__ == "__main__":
    workloads.build(sys.argv[1], int(sys.argv[2]), Path.cwd(),
                    workloads.BENCH_DIR / ".work")
