"""Spans around the program's public functions, and per-layer metrics.

The traced run replaces public module attributes of `zerophase` with
wrappers that record a span per call: name, start, end, the enclosing span,
and the workload, pass and op being run.  Calls inside the package go
through the same module attributes, so nested calls nest as spans too.
Nothing in the program changes; the wrappers are removed after each traced
pass.  Spans stay in memory and are written out as JSON lines at the end.

Spans are tagged with the op's group (cli_readme, bose_levels,
entropy_grids, exact_scans).  Per-layer metrics are medians over the traced
passes of per-pass totals of one group (seconds in a function, calls,
counts), unless a metric says otherwise.  Self time is a span's duration
minus its direct children.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import re
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path
from typing import Callable

_MB = 1024.0 * 1024.0

ENVELOPES = ("hopf_lax", "log_gaussian_smoothing", "heat_semigroup_residual")


def _envelope_attrs(tracer, args, kwargs, result) -> dict:
    field0 = args[0]
    n = int(field0.H.size)
    # computed, not measured: the exhaustive scan forms ndim coordinate
    # differences and one squared distance per node pair, in float64
    return {"ndim": field0.ndim, "node_pairs": n * n,
            "bytes_computed": 8 * n * n * (field0.ndim + 1)}


def _composition_attrs(tracer, args, kwargs, result) -> dict:
    key = (int(args[0]), int(args[1]))
    cold = key not in tracer.seen_layouts
    tracer.seen_layouts.add(key)
    return {"key": list(key), "classes": len(result), "cold": cold}


def _continuation_attrs(tracer, args, kwargs, result) -> dict:
    tracer.branch_states.append((args[0], result.states))
    return {"accepted": len(result.states)}


def _near_attrs(tracer, args, kwargs, result) -> dict:
    tracer.branch_states.append((args[0], result))
    return {"accepted": len(result)}


def _solve_attrs(tracer, args, kwargs, result) -> dict:
    if tracer.parent_name() not in ("bose_gas.continue_branch",
                                    "bose_gas.branch_points_near"):
        tracer.branch_states.append((args[0], (result,)))
    return {}


def _social_attrs(tracer, args, kwargs, result) -> dict:
    eco, grid = args[0], args[1]
    return {"evaluations": (eco.N + 1) * len(grid)}


def _resonance_attrs(tracer, args, kwargs, result) -> dict:
    spectrum, bound = args[0], args[1]
    levels = getattr(spectrum, "values", spectrum)
    return {"tuples_bound": (2 * int(bound) + 1) ** len(levels)}


# module -> {function: attribute hook or None}
TARGETS = {
    "cli": {"run": None},
    "averaging": {"financial_average": None,
                  "check_resonance_free": _resonance_attrs,
                  "probe_proposition3": None},
    "ensemble": {"compositions": _composition_attrs,
                 "init_product_state": None, "evolve_step": None,
                 "marginals": None, "state_norm": None,
                 "specific_free_energy": None},
    "asymptotics": {"convergence_scan": None, "limit_F": None,
                    "limit_w": None},
    "bose_gas": {"theta_upper_bound": None,
                 "zeroth_order_certificate": None,
                 "continue_branch": _continuation_attrs,
                 "solve_branch": _solve_attrs,
                 "branch_points_near": _near_attrs,
                 "singular_exponent_fit": None},
    "entropy_flow": {"hopf_lax": _envelope_attrs,
                     "log_gaussian_smoothing": _envelope_attrs,
                     "heat_semigroup_residual": _envelope_attrs,
                     "ascent_trajectory": None, "price_transport": None,
                     "calibrate_c": None},
    "condensation": {"debt_supply": None, "critical_number": None,
                     "condensate_excess": None,
                     "social_explosion_scan": _social_attrs},
}


class Tracer:
    """In-memory span recorder for one benchmark process (serial calls)."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.tags: dict = {}
        self.seen_layouts: set = set()
        self.branch_states: list = []   # (levels, states) accepted by bose_gas
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0

    def parent_name(self) -> str | None:
        # called from a hook, while the finished span is still on the stack
        return self._stack[-2][1] if len(self._stack) > 1 else None

    @contextlib.contextmanager
    def span(self, name: str, hook: Callable | None = None,
             args: tuple = (), kwargs: dict | None = None,
             alloc: bool = False):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, name))
        attrs: dict = {}
        box: dict = {}
        if alloc:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            yield box
        except BaseException as e:
            attrs["error"] = type(e).__name__
            raise
        finally:
            end = time.perf_counter()
            if alloc:
                attrs["peak_alloc"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            if hook is not None and "error" not in attrs:
                attrs.update(hook(self, args, kwargs or {}, box["result"]))
            self._stack.pop()
            self.spans.append({"id": sid, "name": name, "parent": parent,
                               "start": start - self.t0, "end": end - self.t0,
                               **self.tags, **attrs})

    def wrap(self, fn: Callable, name: str, hook: Callable | None) -> Callable:
        alloc = name.split(".")[-1] in ENVELOPES

        def traced(*args, **kwargs):
            with self.span(name, hook, args, kwargs, alloc) as box:
                box["result"] = fn(*args, **kwargs)
            return box["result"]

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        saved = []
        try:
            for mod_name, funcs in TARGETS.items():
                module = importlib.import_module(f"zerophase.{mod_name}")
                for fn_name, hook in funcs.items():
                    original = getattr(module, fn_name)
                    saved.append((module, fn_name, original))
                    setattr(module, fn_name,
                            self.wrap(original, f"{mod_name}.{fn_name}", hook))
            yield self
        finally:
            for module, fn_name, original in reversed(saved):
                setattr(module, fn_name, original)

    def write(self, path: Path) -> None:
        with open(path, "w") as out:
            for s in self.spans:
                out.write(json.dumps(s) + "\n")


# ---------------------------------------------------------------------------
# import breakdown


IMPORT_MODULES = ("zerophase", "zerophase.averaging", "zerophase.bose_gas",
                  "zerophase.entropy_flow")


def import_times(env: dict, cwd: Path, repeats: int = 3) -> dict:
    """Median cumulative import seconds from `python -X importtime`."""
    samples = defaultdict(list)
    line = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)")
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import zerophase"], env=env, cwd=cwd,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        for m in line.finditer(proc.stderr):
            if m.group(3) in IMPORT_MODULES:
                samples[m.group(3)].append(int(m.group(2)) * 1e-6)
    return {name.rsplit(".", 1)[-1] + ".import_s": statistics.median(v)
            for name, v in samples.items()}


# ---------------------------------------------------------------------------
# per-layer metrics


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


class SpanIndex:
    def __init__(self, spans: list[dict]) -> None:
        self.spans = spans
        self.children = defaultdict(list)
        self.by_id = {}
        for s in spans:
            self.by_id[s["id"]] = s
            if s["parent"] is not None:
                self.children[s["parent"]].append(s)

    def self_time(self, s: dict) -> float:
        return _dur(s) - sum(_dur(c) for c in self.children[s["id"]])

    def passes(self, wl: str) -> list[list[dict]]:
        groups = defaultdict(list)
        for s in self.spans:
            if s.get("wl") == wl:
                groups[s["pass"]].append(s)
        return [groups[k] for k in sorted(groups)]

    def per_pass(self, wl: str, fn: Callable[[list], float]) -> float:
        values = [fn(p) for p in self.passes(wl)]
        return statistics.median(values) if values else float("nan")

    def parent_op(self, s: dict) -> str | None:
        return s.get("op") if s["parent"] is not None and \
            self.by_id[s["parent"]]["name"] == "op" else None


def _total(spans, name, pred=lambda s: True) -> float:
    return sum(_dur(s) for s in spans if s["name"] == name and pred(s))


def _count(spans, name, pred=lambda s: True) -> int:
    return sum(1 for s in spans if s["name"] == name and pred(s))


def _attr_sum(spans, name, attr) -> float:
    return sum(s.get(attr, 0) for s in spans if s["name"] == name)


def layer_metrics(spans: list[dict], cli_walls: list[float],
                  residual: Callable[[], float]) -> dict:
    """Every per-layer metric except the import and trace.* ones."""
    ix = SpanIndex(spans)
    m: dict[str, float] = {}

    # cli: medians over in-process ops of cli_readme
    runs = [s for s in spans if s["name"] == "cli.run"]
    run_s = statistics.median(_dur(s) for s in runs)
    m["cli.run_s"] = run_s
    m["cli.self_s"] = statistics.median(ix.self_time(s) for s in runs)
    m["cli.process_overhead_s"] = statistics.median(cli_walls) - run_s

    # bose_gas: certificate and gas-phase times from bose_levels ops
    bl = "bose_levels"
    for K in (2, 8, 32):
        m[f"bose_gas.certificate_k{K}_s"] = ix.per_pass(bl, lambda p, K=K: _total(
            p, "bose_gas.zeroth_order_certificate",
            lambda s: s.get("op") == f"certificate_k{K}"))
    m["bose_gas.gas_phase_s"] = ix.per_pass(bl, lambda p: _total(
        p, "bose_gas.solve_branch", lambda s: ix.parent_op(s) == "gas_phase"))

    # shared bose_gas layers: per pass of bose_levels plus per pass of
    # cli_readme, whose bose sweep runs the same continuation
    def both(fn):
        return sum(ix.per_pass(wl, fn) for wl in (bl, "cli_readme"))

    def accepted(p):
        n = _attr_sum(p, "bose_gas.continue_branch", "accepted")
        n += _attr_sum(p, "bose_gas.branch_points_near", "accepted")
        wrappers = ("bose_gas.continue_branch", "bose_gas.branch_points_near")
        n += sum(1 for s in p if s["name"] == "bose_gas.solve_branch"
                 and "error" not in s
                 and ix.by_id[s["parent"]]["name"] not in wrappers)
        return n

    for fn in ("continue_branch", "solve_branch"):
        name = f"bose_gas.{fn}"
        m[f"{name}.s"] = both(lambda p, name=name: _total(p, name))
        m[f"{name}.calls"] = both(lambda p, name=name: _count(p, name))
    m["bose_gas.solve_branch.self_s"] = both(lambda p: sum(
        ix.self_time(s) for s in p if s["name"] == "bose_gas.solve_branch"))
    m["bose_gas.accept_ratio"] = both(accepted) / m["bose_gas.solve_branch.calls"]
    m["bose_gas.max_hartree_residual"] = residual()

    # entropy_flow, per pass of entropy_grids
    eg = "entropy_grids"
    for key, fn in (("hopf_lax", "hopf_lax"),
                    ("smoothing", "log_gaussian_smoothing"),
                    ("heat_residual", "heat_semigroup_residual")):
        for d in (1, 2):
            m[f"entropy_flow.{key}_{d}d_s"] = ix.per_pass(eg, lambda p, fn=fn, d=d: _total(
                p, f"entropy_flow.{fn}", lambda s: s.get("ndim") == d))
    m["entropy_flow.ascent_s"] = ix.per_pass(eg, lambda p: _total(
        p, "entropy_flow.ascent_trajectory", lambda s: ix.parent_op(s) == "ascent"))
    m["entropy_flow.price_transport_s"] = ix.per_pass(eg, lambda p: _total(
        p, "entropy_flow.price_transport"))
    envelopes = [f"entropy_flow.{e}" for e in ENVELOPES]
    for attr in ("node_pairs", "bytes_computed"):
        m[f"entropy_flow.{attr}"] = ix.per_pass(eg, lambda p, attr=attr: sum(
            _attr_sum(p, e, attr) for e in envelopes))
    m["entropy_flow.peak_alloc_mb"] = max(
        s.get("peak_alloc", 0) for s in spans if s["name"] in envelopes) / _MB

    # ensemble, asymptotics, condensation, averaging: per pass of exact_scans
    ex = "exact_scans"
    comp = "ensemble.compositions"
    m["ensemble.first_layout_s"] = ix.per_pass(ex, lambda p: _total(
        p, comp, lambda s: s.get("cold")))
    m["ensemble.classes"] = ix.per_pass(ex, lambda p: sum(
        {tuple(s["key"]): s["classes"] for s in p if s["name"] == comp}.values()))
    m["ensemble.evolve_step.calls"] = ix.per_pass(ex, lambda p: _count(
        p, "ensemble.evolve_step"))
    for fn in ("evolve_step", "marginals"):
        m[f"ensemble.{fn}.s"] = ix.per_pass(ex, lambda p, fn=fn: _total(
            p, f"ensemble.{fn}"))
    scan = "asymptotics.convergence_scan"
    m[f"{scan}.s"] = ix.per_pass(ex, lambda p: _total(p, scan))
    m[f"{scan}.self_s"] = ix.per_pass(ex, lambda p: sum(
        ix.self_time(s) for s in p if s["name"] == scan))
    social = "condensation.social_explosion_scan"
    m[f"{social}.s"] = ix.per_pass(ex, lambda p: _total(p, social))
    m["condensation.evaluations"] = ix.per_pass(ex, lambda p: _attr_sum(
        p, social, "evaluations"))
    for fn in ("check_resonance_free", "probe_proposition3"):
        m[f"averaging.{fn}.s"] = ix.per_pass(ex, lambda p, fn=fn: _total(
            p, f"averaging.{fn}"))
    m["averaging.tuples_bound"] = ix.per_pass(ex, lambda p: _attr_sum(
        p, "averaging.check_resonance_free", "tuples_bound"))

    # share of library op time that the top-level layer spans account for
    coverage = []
    for wl in (bl, eg, ex):
        ops = [s for s in spans if s["name"] == "op" and s.get("wl") == wl]
        covered = sum(_dur(c) for s in ops for c in ix.children[s["id"]])
        coverage.append(covered / sum(_dur(s) for s in ops))
    m["trace.coverage_ratio"] = min(coverage)
    return m
