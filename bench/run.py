"""zerophase benchmark: one seeded workload, closed loop, one client.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli_readme and library (see workloads.py and README.md in this
directory).  The last line of stdout is
a JSON object {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones, measured untraced; with --trace 1 they
are the per-layer ones from a traced run (tracing.py).  The line before it
records the environment the numbers were taken in.

The program is imported from ./src; nothing is installed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(zerophase_threads: str | None) -> dict:
    """What makes runs of the parent and of a change comparable."""
    import numpy
    import scipy
    rec = {"python": sys.version.split()[0], "numpy": numpy.__version__,
           "scipy": scipy.__version__, "nproc": os.cpu_count(),
           "affinity_cpus": len(os.sched_getaffinity(0)),
           "blas_threads": blas_threads(),
           "ZEROPHASE_THREADS": "unset" if zerophase_threads is None
           else f"was {zerophase_threads!r}, unset for the run",
           "git_commit": None}
    if (ROOT / ".git").exists():
        try:
            rec["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    # identifies the measured sources where the checkout is not a git tree
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    rec["source_sha256"] = digest.hexdigest()
    return rec


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, when it is findable."""
    import ctypes
    import glob
    import numpy
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None) -> int:
    if not (SRC / "zerophase" / "__init__.py").is_file():
        print(f"error: no zerophase sources under {SRC}; run from the "
              "repository root", file=sys.stderr)
        return 2
    threads = os.environ.pop("ZEROPHASE_THREADS", None)
    sys.path.insert(0, str(SRC))
    import harness
    import workloads
    args = parse_args(argv, harness.WORKLOAD_NAMES)
    harness.WORK.mkdir(exist_ok=True)
    env = workloads.child_env(SRC)

    tally = harness.Tally()
    detail: dict = {}
    if args.trace:
        metrics = harness.traced(args.workload, args.seed, args.seconds, ROOT,
                                 env, tally)
    else:
        metrics, detail = harness.untraced(args.workload, args.seed,
                                           args.seconds, ROOT, env, tally)
    for reason in tally.reasons[:20]:
        print(f"failed: {reason}", file=sys.stderr)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit_of = {m["name"]: m["unit"]
               for m in spec["end_to_end"] + spec["per_layer"]}
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "environment": environment(threads),
              "metrics": metrics, "detail": detail}
    name = f"result-{args.workload}-{args.seed}-{args.trace}.json"
    (harness.WORK / name).write_text(json.dumps(record, indent=1) + "\n")
    print("environment: " + json.dumps(record["environment"]))
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit_of[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
