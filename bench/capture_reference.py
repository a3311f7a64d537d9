"""Write bench/reference.json from the program as it stands.

Run from the repository root:  python3 bench/capture_reference.py

The file holds the exit code and stdout of each fixed README CLI example,
and samples of every entropy_grids output at the default seed.  The
benchmark compares later runs against it, so regenerate it only when an
output is meant to change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the src path above)


def main() -> int:
    work = workloads.BENCH_DIR / ".work"
    work.mkdir(exist_ok=True)
    cli = {}
    for name, argv in workloads.README_COMMANDS.items():
        res = workloads.spawn_cli(argv, ROOT, work)
        # a multi-line stdout is a CSV table, a single line the summary
        csv = res.stdout.count("\n") > 1
        cli[name] = {"code": res.code, "stdout": res.stdout, "csv": csv}
    inputs = workloads.entropy_inputs(workloads.DEFAULT_SEED)
    entropy = {}
    for name, call in workloads.entropy_ops(inputs).items():
        values = workloads.entropy_reference_values(name, call())
        entropy[name] = workloads.reference_samples(values)
    workloads.REFERENCE_PATH.write_text(
        json.dumps({"cli": cli, "entropy": entropy}, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
