"""Closed-loop passes, the untraced measurement and the traced run."""

from __future__ import annotations

import contextlib
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import Tracer, import_times, layer_metrics
from workloads import CheckFailed, Workload
from zerophase import bose_gas

BENCH_DIR = Path(__file__).resolve().parent
WORK = BENCH_DIR / ".work"

WORKLOAD_NAMES = tuple(workloads.WORKLOADS)

# Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_REPEATS = 3

# A run measures whole passes until both the requested seconds of op time
# and this many ops are reached, so every op appears equally often and the
# tail percentile has at least ten samples beyond it.
MIN_OPS = 25


class Tally:
    """Attempted and failed ops over a run, with the failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, wl_name: str, walls: list, errors: dict) -> None:
        self.attempted += len(walls)
        self.failed += len(errors)
        self.reasons.extend(f"{wl_name}/{k}: {v}" for k, v in errors.items())


def setup_seconds(workload: str, seed: int, root: Path, env: dict) -> float:
    """Median wall of a fresh interpreter importing zerophase and building
    the workload's inputs, from spawn to exit."""
    walls = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(BENCH_DIR / "probe.py"),
                        workload, str(seed)], env=env, cwd=root, check=True,
                       timeout=120)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def run_pass(wl: Workload, pass_no: int, tally: Tally,
             tracer: Tracer | None = None, inprocess: bool = False):
    """Run every op once, in seeded order; check outputs after the pass.

    Returns [(op name, wall seconds)] and the largest child peak RSS in KiB
    (CLI ops run as child processes).
    """
    walls, errors, results, child_rss = [], {}, {}, 0
    with (tracer.installed() if tracer else contextlib.nullcontext()):
        for i in wl.rng.permutation(len(wl.ops)):
            op = wl.ops[i]
            call = op.run_traced if inprocess and op.run_traced else op.run
            start = time.perf_counter()
            try:
                if tracer:
                    tracer.tags = {"wl": op.group, "pass": pass_no,
                                   "op": op.name}
                    with tracer.span("op"):
                        results[op.name] = call()
                else:
                    results[op.name] = call()
            except Exception as e:  # a failing op is counted, not fatal
                errors[op.name] = f"{type(e).__name__}: {e}"
            walls.append((op.name, time.perf_counter() - start))
            child_rss = max(child_rss,
                            getattr(results.get(op.name), "max_rss_kb", 0) or 0)
    if tracer:
        tracer.tags = {}
    for op in wl.ops:
        if op.name in results:
            try:
                op.check(results[op.name], results)
            except CheckFailed as e:
                errors[op.name] = str(e)
    tally.add(wl.name, walls, errors)
    return walls, child_rss


def tail_value(values: list, pct: int) -> float:
    """Nearest-rank percentile, in integer arithmetic."""
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1]


def measure(wl: Workload, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """End-to-end metrics of untraced passes, and the per-op detail."""
    walls: list[tuple[str, float]] = []
    child_rss = 0
    passes = 0
    while (not walls or sum(t for _, t in walls) < seconds
           or len(walls) < MIN_OPS):
        w, rss = run_pass(wl, passes, tally)
        walls.extend(w)
        child_rss = max(child_rss, rss)
        passes += 1
    times = [t for _, t in walls]
    rss_kb = child_rss if wl.is_cli else \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {"op_p50_s": statistics.median(times),
               "op_tail_s": tail_value(times, wl.tail_pct),
               "ops_per_s": len(times) / sum(times),
               "ok_ratio": 1.0 - tally.failed / tally.attempted,
               "peak_rss_mb": rss_kb / 1024.0}
    detail = {"samples": len(times), "passes": passes,
              "tail_percentile": wl.tail_pct,
              "op_median_s": {op.name: statistics.median(
                  t for name, t in walls if name == op.name) for op in wl.ops}}
    return metrics, detail


def untraced(name: str, seed: int, seconds: float, root: Path, env: dict,
             tally: Tally) -> tuple[dict, dict]:
    setup = setup_seconds(name, seed, root, env)
    wl = workloads.build(name, seed, root, WORK)
    metrics, detail = measure(wl, seconds, tally)
    return {"setup_s": setup, **metrics}, detail


def traced(name: str, seed: int, seconds: float, root: Path, env: dict,
           tally: Tally) -> dict:
    """Per-layer metrics: the named workload alternates traced and untraced
    passes for `seconds`; every other workload gets one traced pass, so each
    per-layer metric is reported whichever workload is named."""
    metrics = import_times(env, root)
    tracer = Tracer()
    cli_walls: list[float] = []
    overhead = None
    for wl_name in (name,) + tuple(n for n in WORKLOAD_NAMES if n != name):
        wl = workloads.build(wl_name, seed, root, WORK)
        if wl.is_cli:
            w, _ = run_pass(wl, -1, tally)    # child processes, untraced
            cli_walls = [t for _, t in w]
        if wl_name != name:
            run_pass(wl, 0, tally, tracer, inprocess=True)
            continue
        pass_walls: dict[bool, list] = {True: [], False: []}
        passes = 0
        while passes < 4 or sum(map(sum, pass_walls.values())) < seconds:
            on = passes % 2 == 0
            w, _ = run_pass(wl, passes, tally, tracer if on else None,
                            inprocess=True)
            pass_walls[on].append(sum(t for _, t in w))
            passes += 1
        overhead = (statistics.median(pass_walls[True])
                    / statistics.median(pass_walls[False]) - 1.0)

    def max_residual() -> float:
        return max(bose_gas.hartree_residual(st, levels)
                   for levels, states in tracer.branch_states for st in states)

    metrics.update(layer_metrics(tracer.spans, cli_walls, max_residual))
    metrics["trace.overhead_ratio"] = overhead
    tracer.write(WORK / f"trace-{name}-{seed}.jsonl")
    return metrics
