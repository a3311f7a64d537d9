"""Seeded inputs, operations and output checks for the two workloads.

Every workload is a list of operations ("ops") that one client runs in a
closed loop: the next op starts when the previous one has returned.  A pass
runs each op once, in an order drawn from the seed.  An op's inputs come
from the seed alone; the program only ever sees the generated values.

`cli_readme` runs the README CLI examples as child processes.  `library`
calls the solvers in-process; its ops come in three groups, `bose_levels`,
`entropy_grids` and `exact_scans`, which the traced run reports on
separately.

Each op carries a check that runs after the pass, outside the timed region.
The checks use routes independent of the call being timed (residuals of the
returned states, envelope order, brute-force argmins, integer-relation
arithmetic) or, for the CLI, references captured from the program.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from zerophase import (asymptotics, averaging, bose_gas, cli, condensation,
                       entropy_flow)

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"

# Seed whose library outputs are also compared with stored arrays.
DEFAULT_SEED = 0

# A CLI op that runs longer than this is killed and counted as failed.
CLI_TIMEOUT_S = 120.0

# Cells printed with %.12g are compared to a relative 1e-9.  Cells that are
# rounding noise around an exact zero (abs_error = 1.1e-16 where the exact
# value is 0) have no meaningful relative error, hence the absolute floor.
CELL_RTOL = 1e-9
CELL_ATOL = 1e-13

# Envelope outputs at the default seed must match the stored samples.
ARRAY_ATOL = 1e-12


class CheckFailed(Exception):
    """An op returned, but its output did not pass the check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    """One timed call; `check(result, pass_results)` raises CheckFailed."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any, dict], None]
    # The traced run calls this instead of `run` (the CLI runs in-process).
    run_traced: Callable[[], Any] | None = None
    # layer group the op belongs to, for the per-layer metrics
    group: str = "cli_readme"


@dataclass
class Workload:
    name: str
    ops: list
    # Percentile reported as op_tail_s, fixed from the sample count a
    # 40-second run collects: the highest with at least ten samples beyond.
    tail_pct: int
    # draws the op order of each pass
    rng: np.random.Generator
    is_cli: bool = False


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def reference_samples(values: np.ndarray, count: int = 129) -> dict:
    flat = np.asarray(values, dtype=float).ravel()
    idx = np.unique(np.linspace(0, flat.size - 1, count).round().astype(int))
    return {"index": idx.tolist(), "values": flat[idx].tolist()}


def _match_samples(values: np.ndarray, ref: dict, what: str) -> None:
    flat = np.asarray(values, dtype=float).ravel()
    got = flat[np.asarray(ref["index"], dtype=int)]
    err = float(np.max(np.abs(got - np.asarray(ref["values"]))))
    require(err <= ARRAY_ATOL, f"{what}: differs from the default-seed "
                               f"reference by {err:.3g}")


# ---------------------------------------------------------------------------
# cli_readme


README_COMMANDS = {
    "avg": ["avg", "--lambda", "0,0.5,1.3", "--p", "0.2,0.5,0.3",
            "--beta", "1"],
    "spectrum_check": ["spectrum", "check", "--lambda", "1,2,3",
                       "--bound", "2"],
    "evolve": ["evolve", "--g", "1,1", "--lambda", "0,1", "--beta", "0.7",
               "--M", "4", "--steps", "3"],
    "limits": ["limits", "--g", "1,1", "--lambda", "0,1", "--beta", "1",
               "--n", "0,1", "--M", "50,100,200,400"],
    "flow": ["flow", "--grid=-1,1,101", "--h0-poly", "0,0,-1", "--t", "0.5",
             "--mode", "max"],
    "social": ["social", "--n1", "5", "--n2", "95", "--N", "100",
               "--gamma", "1.5", "--T-grid", "0,2,200"],
    "bose_sweep_v2": ["bose", "sweep", "--levels", "0,1", "--V", "2",
                      "--g", "1"],
    # README example; nu = lambda_0 - lambda_1 + V = 0, so no branch exists
    # and the documented outcome is exit code 3.
    "bose_sweep_v1": ["bose", "sweep", "--levels", "0,1", "--V", "1",
                      "--g", "1", "--theta-points", "48"],
}

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                     r"|(?<![A-Za-z])[-+]?(?:inf|nan)(?![A-Za-z])")


@dataclass
class CliRun:
    code: int
    stdout: str
    max_rss_kb: int | None = None


def child_env(src_dir: Path) -> dict:
    env = dict(os.environ)
    env.pop("ZEROPHASE_THREADS", None)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src_dir) + (os.pathsep + path if path else "")
    return env


def spawn_cli(argv: list, root: Path, work: Path) -> CliRun:
    """Run `python -m zerophase.cli argv` from spawn to exit."""
    out_path = work / "cli-stdout.txt"
    with open(out_path, "w+b") as out:
        proc = subprocess.Popen([sys.executable, "-m", "zerophase.cli", *argv],
                                stdout=out, stderr=subprocess.DEVNULL,
                                env=child_env(root / "src"), cwd=root)
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode()
    return CliRun(proc.returncode, text, usage.ru_maxrss)


def inprocess_cli(argv: list) -> CliRun:
    """Run `zerophase.cli.main(argv)` in this process, capturing stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return CliRun(code, buf.getvalue())


def compare_output(expected: str, got: str, csv: bool) -> None:
    """Exact text between numbers, numbers to CELL_RTOL; CSV header exact."""
    exp_lines = expected.splitlines()
    got_lines = got.splitlines()
    require(len(exp_lines) == len(got_lines),
            f"{len(got_lines)} output lines, expected {len(exp_lines)}")
    if csv and exp_lines:
        require(exp_lines[0] == got_lines[0],
                f"CSV header {got_lines[0]!r}, expected {exp_lines[0]!r}")
    for lineno, (e, g) in enumerate(zip(exp_lines, got_lines), start=1):
        require(_NUMBER.split(e) == _NUMBER.split(g),
                f"line {lineno}: {g!r}, expected {e!r}")
        for a, b in zip(_NUMBER.findall(e), _NUMBER.findall(g)):
            fa, fb = float(a), float(b)
            require(fa == fb or math.isclose(fa, fb, rel_tol=CELL_RTOL,
                                             abs_tol=CELL_ATOL),
                    f"line {lineno}: {b} differs from {a}")


def write_ledger(path: Path, rng: np.random.Generator) -> str:
    """Seeded debt ledger; returns the CSV `debt --sigma-avg 2` must print."""
    lines = ["# kind, principal, velocity-or-years"]
    short = slow = 0.0
    for _ in range(int(rng.integers(4, 12))):
        principal = round(float(rng.uniform(10.0, 1000.0)), 2)
        if rng.random() < 0.6:
            velocity = round(float(rng.uniform(0.5, 4.0)), 3)
            short += principal * velocity
            lines.append(f"position, {principal!r}, {velocity!r}")
        else:
            years = int(rng.integers(1, 30))
            slow += principal / years
            lines.append(f"long_term, {principal!r}, {years}")
    path.write_text("\n".join(lines) + "\n")
    M = short + slow
    return f"M,N\n{M:.12g},{M / 2.0:.12g}\n"


def cli_readme(seed: int, root: Path, work: Path) -> Workload:
    rng = np.random.default_rng(seed)
    ledger = work / f"ledger-{seed}.txt"
    expected = {name: dict(entry)
                for name, entry in load_reference()["cli"].items()}
    expected["debt"] = {"code": 0, "stdout": write_ledger(ledger, rng),
                        "csv": True}
    commands = dict(README_COMMANDS)
    commands["debt"] = ["debt", "--ledger", str(ledger), "--sigma-avg", "2"]

    def make(name: str) -> Op:
        argv = commands[name]
        ref = expected[name]

        def check(res: CliRun, _pass: dict) -> None:
            require(res.code == ref["code"],
                    f"exit code {res.code}, expected {ref['code']}")
            compare_output(ref["stdout"], res.stdout, ref["csv"])

        return Op(name, lambda: spawn_cli(argv, root, work), check,
                  run_traced=lambda: inprocess_cli(argv))

    return Workload("cli_readme", [make(n) for n in commands], tail_pct=72,
                    rng=rng, is_cli=True)


# ---------------------------------------------------------------------------
# bose_levels


def _jittered_levels(K: int, rng: np.random.Generator) -> bose_gas.LevelSet:
    # jitter stays below a quarter gap, so levels stay ordered and distinct
    lam = np.linspace(0.0, 1.0, K)
    lam[1:] += rng.uniform(-0.25, 0.25, K - 1) / (K - 1)
    return bose_gas.LevelSet.from_values(lam, g=1.0, V=2.0)


def _check_states(states, levels, what: str) -> None:
    for st in states:
        r = bose_gas.hartree_residual(st, levels)
        require(r < bose_gas.RESIDUAL_TOL,
                f"{what}: hartree residual {r:.3g} at theta={st.theta:.6g}")


def bose_levels_ops(seed: int) -> list:
    rng = np.random.default_rng(seed)
    levels = {K: _jittered_levels(K, rng) for K in (2, 8, 32)}
    gas_levels = levels[32]
    hi = bose_gas.theta_upper_bound(gas_levels)
    gas_thetas = hi * (1.0 + np.sort(rng.uniform(0.01, 2.0, 16)))
    # the near-fold op needs the fold temperature as an input
    near_levels = levels[2]
    theta_c = bose_gas.zeroth_order_certificate(near_levels, 1).theta_c
    deltas = np.geomspace(1e-6, 1e-4, 9)

    def certificate(K: int) -> Op:
        lv = levels[K]

        def check(cert, _pass: dict) -> None:
            require(cert.jump > 0, f"jump {cert.jump} is not positive")
            bound = bose_gas.theta_upper_bound(lv)
            require(0 < cert.theta_c < bound,
                    f"theta_c {cert.theta_c} outside (0, {bound})")

        return Op(f"certificate_k{K}",
                  lambda: bose_gas.zeroth_order_certificate(lv, K - 1), check)

    def gas_phase():
        return [bose_gas.solve_branch(gas_levels, float(th), gas_levels.ground)
                for th in gas_thetas]

    def check_gas(states, _pass: dict) -> None:
        require(len(states) == gas_thetas.size, "missing gas states")
        _check_states(states, gas_levels, "gas phase")

    def near_fold():
        states = bose_gas.branch_points_near(near_levels, 1, theta_c, deltas)
        return states, bose_gas.singular_exponent_fit(near_levels, states,
                                                      theta_c)

    def check_near(res, _pass: dict) -> None:
        states, fit = res
        require(len(states) == deltas.size, "missing near-fold states")
        _check_states(states, near_levels, "near fold")
        # square-root law at the fold
        require(0.4 < fit.exponent < 0.6, f"exponent {fit.exponent}")

    ops = [certificate(K) for K in (2, 8, 32)]
    ops.append(Op("gas_phase", gas_phase, check_gas))
    ops.append(Op("near_fold", near_fold, check_near))
    for op in ops:
        op.group = "bose_levels"
    return ops


# ---------------------------------------------------------------------------
# entropy_grids


ENVELOPE_T = 0.1


def smooth_field(coeffs: np.ndarray, shape: tuple) -> entropy_flow.EntropyField:
    """Concave background plus seeded smooth modes on [-1, 1]^d."""
    a = coeffs
    spacing = tuple(2.0 / (n - 1) for n in shape)
    origin = (-1.0,) * len(shape)
    if len(shape) == 1:
        def fn(x):
            return (-0.5 * x * x + a[0] * np.sin(2.0 * x + a[1])
                    + a[2] * np.cos(3.0 * x) + a[3] * x)
    else:
        def fn(x, y):
            return (-0.5 * (x * x + y * y)
                    + a[0] * np.sin(2.0 * x + a[1]) * np.cos(y)
                    + a[2] * np.cos(3.0 * y) + a[3] * x * y + a[4] * y)
    return entropy_flow.EntropyField.from_function(fn, origin, spacing, shape)


def _field_gradient_2d(a: np.ndarray, x: float, y: float) -> np.ndarray:
    """Analytic gradient of the 2-d smooth_field."""
    return np.array([
        -x + 2.0 * a[0] * math.cos(2.0 * x + a[1]) * math.cos(y) + a[3] * y,
        -y - a[0] * math.sin(2.0 * x + a[1]) * math.sin(y)
        - 3.0 * a[2] * math.sin(3.0 * y) + a[3] * x + a[4]])


def entropy_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-0.3, 0.3, 5)
    traj_field = smooth_field(coeffs, (101, 101))
    b = rng.uniform(0.5, 1.5, 3)
    prices = [entropy_flow.EntropyField.from_function(
                  fn, traj_field.origin, traj_field.spacing, traj_field.shape)
              for fn in (lambda x, y: b[0] * x + b[1] * y * y,
                         lambda x, y: np.sin(b[2] * x) * y)]
    # observed price drifts c * (grad lambda . grad H) from analytic
    # gradients, at points where the pairing is far from zero
    c_true = float(rng.uniform(0.5, 2.0))
    drifts = []
    while len(drifts) < 64:
        x, y = rng.uniform(-0.8, 0.8, 2)
        pairing = float(np.array([b[0], 2.0 * b[1] * y])
                        @ _field_gradient_2d(coeffs, x, y))
        if abs(pairing) > 0.2:
            drifts.append((c_true * pairing, (x, y)))
    return {"fields": {"1d": smooth_field(coeffs, (4001,)),
                       "2d": smooth_field(coeffs, (61, 61))},
            "traj_field": traj_field,
            "prices": prices,
            "x0": tuple(rng.uniform(-0.5, 0.5, 2)),
            "flow": entropy_flow.FlowConfig(dt=1e-3, steps=1000),
            "c_true": c_true,
            "drifts": drifts}


def entropy_ops(inputs: dict) -> dict:
    """Op name -> zero-argument call; shared with the reference capture."""
    t = ENVELOPE_T
    calls = {}
    for dim, f in inputs["fields"].items():
        calls[f"hopf_max_{dim}"] = (lambda f=f: entropy_flow.hopf_lax(f, t, "max"))
        calls[f"hopf_min_{dim}"] = (lambda f=f: entropy_flow.hopf_lax(f, t, "min"))
        calls[f"smoothing_{dim}"] = (
            lambda f=f: entropy_flow.log_gaussian_smoothing(f, t))
        calls[f"heat_residual_{dim}"] = (
            lambda f=f: entropy_flow.heat_semigroup_residual(f, t))
    tf, cfg, x0 = inputs["traj_field"], inputs["flow"], inputs["x0"]
    calls["ascent"] = lambda: entropy_flow.ascent_trajectory(tf, cfg, x0)
    calls["price_transport"] = lambda: entropy_flow.price_transport(
        tf, cfg, inputs["prices"], x0)
    calls["calibrate_c"] = lambda: np.array([
        entropy_flow.calibrate_c(drift, tf, inputs["prices"][0], x)
        for drift, x in inputs["drifts"]])
    return calls


def entropy_reference_values(name: str, result) -> np.ndarray:
    """The array of an op's result that is compared with the reference."""
    if name.startswith("heat_residual"):
        return np.array([result])
    if name == "calibrate_c":
        return result
    if name == "ascent":
        return result.points
    if name == "price_transport":
        return np.concatenate([result.ode_route.ravel(),
                               result.chain_route.ravel()])
    return result.H


def entropy_grids_ops(seed: int) -> list:
    inputs = entropy_inputs(seed)
    reference = load_reference()["entropy"] if seed == DEFAULT_SEED else None
    t = ENVELOPE_T

    def check(name: str) -> Callable:
        dim = name.rsplit("_", 1)[-1]
        f0 = inputs["fields"].get(dim)

        def run_check(res, pass_results: dict) -> None:
            if name.startswith("hopf_max"):
                require(np.all(res.H >= f0.H - 1e-12), "max envelope below H0")
            elif name.startswith("hopf_min"):
                require(np.all(res.H <= f0.H + 1e-12), "min envelope above H0")
            elif name.startswith("smoothing"):
                # log-sum-exp lies between its largest term and that term
                # plus log(n): sandwich against the max envelope of this pass
                upper = pass_results.get(f"hopf_max_{dim}")
                if upper is not None:
                    shift = (float(np.sum(np.log(f0.spacing)))
                             - 0.5 * f0.ndim * math.log(t))
                    low = upper.H + shift
                    require(np.all(res.H >= low - 1e-9)
                            and np.all(res.H <= low + math.log(f0.H.size) + 1e-9),
                            "smoothing outside the max-envelope sandwich")
            elif name.startswith("heat_residual"):
                require(math.isfinite(res) and 0.0 < res < 1.0,
                        f"heat residual {res}")
            elif name == "ascent":
                lo, hi = inputs["traj_field"].box()
                require(np.all(res.points >= lo) and np.all(res.points <= hi),
                        "trajectory left the box")
                require(res.exited or len(res.points) == inputs["flow"].steps + 1,
                        "trajectory stopped early without exiting")
                require(res.H_values[-1] >= res.H_values[0], "H fell along ascent")
            elif name == "price_transport":
                asc = pass_results.get("ascent")
                if asc is not None:
                    require(np.array_equal(asc.points, res.trajectory.points),
                            "price trajectory differs from the ascent op")
                require(np.array_equal(res.ode_route[0], res.chain_route[0]),
                        "routes start apart")
                gap = float(np.max(np.abs(res.ode_route - res.chain_route)))
                require(gap < 1e-3, f"ODE and chain routes differ by {gap:.3g}")
            elif name == "calibrate_c":
                # interpolated grid gradients recover the analytic c
                err = float(np.max(np.abs(res / inputs["c_true"] - 1.0)))
                require(err < 0.03, f"calibrated c off by {err:.3g} (relative)")
            if reference is not None:
                values = entropy_reference_values(name, res)
                if name.startswith("heat_residual"):
                    ref = reference[name]["values"][0]
                    require(math.isclose(res, ref, rel_tol=1e-6),
                            f"heat residual {res} vs reference {ref}")
                else:
                    _match_samples(values, reference[name], name)

        return run_check

    return [Op(name, call, check(name), group="entropy_grids")
            for name, call in entropy_ops(inputs).items()]


# ---------------------------------------------------------------------------
# exact_scans


def exact_scans_ops(seed: int) -> list:
    rng = np.random.default_rng(seed)

    # convergence scan: three levels, three steps.  The cold op gets fresh
    # ensemble sizes on every call, so its class layouts are built as in a
    # new process; the warm op repeats one list and hits the layout cache.
    g = rng.uniform(0.5, 1.5, 3)
    spectrum = np.sort(rng.uniform(0.0, 1.5, 3))
    beta = float(rng.uniform(0.5, 1.5))
    pools = [rng.permutation(np.arange(lo, lo + 64)) for lo in (30, 100, 180, 360)]
    m_lists = [[int(M) for M in ms] for ms in zip(*pools)]
    warm_list = m_lists.pop()
    cold_lists = itertools.cycle(m_lists)

    def conv(M_list):
        return M_list, asymptotics.convergence_scan(g, spectrum, beta, 3, M_list)

    def check_conv(res, _pass: dict) -> None:
        M_list, rep = res
        require(rep.M_values == tuple(M_list), "M values reordered")
        require(np.allclose(rep.w_exact.sum(axis=1), 1.0, atol=1e-12),
                "marginals do not sum to 1")
        # exact-minus-limit error shrinks as the ensemble grows
        require(np.all(np.diff(rep.errors) < 0),
                f"errors not decreasing in M: {rep.errors}")

    # social scan at the size guard over ~20 000 temperatures
    n1 = int(rng.integers(2, 20))
    eco = condensation.TwoLevelEconomy(
        n1=n1, n2=100 - n1, N=condensation.SOCIAL_SCAN_GUARD,
        gamma_int=float(rng.uniform(1.2, 1.8)))
    T_grid = np.linspace(0.0, float(rng.uniform(1.5, 2.5)), 20000)
    sample = np.sort(rng.choice(T_grid.size, 16, replace=False))

    def social():
        return condensation.social_explosion_scan(eco, T_grid)

    def check_social(scan, _pass: dict) -> None:
        require(len(scan.argmin_N1) == T_grid.size, "missing temperatures")
        for j in sample:
            want = int(np.argmin(condensation.social_functional(eco, T_grid[j])))
            require(scan.argmin_N1[j] == want,
                    f"argmin at T={T_grid[j]:.6g} is {scan.argmin_N1[j]}, "
                    f"brute force gives {want}")
        moves = np.abs(np.diff(scan.argmin_N1))
        require(scan.jump_size == int(moves.max()), "jump size mismatch")

    # resonance check of generic levels, exhaustive at bound 4
    levels = rng.uniform(0.0, 1.0, 6)

    def witness_ok(k, lam) -> bool:
        k = np.asarray(k)
        lam = np.asarray(lam, dtype=float)
        return (int(k.sum()) == 0 and abs(float(k @ lam))
                <= 1e-10 * float(np.abs(lam).max()) * float(np.abs(k).sum()))

    def check_resonance(rep, _pass: dict) -> None:
        if not rep.holds:
            require(witness_ok(rep.witness, levels),
                    f"witness {rep.witness} is not an integer relation")

    # Proposition 3 probe; spectra are regenerated here to verify witnesses
    probe_seed = int(rng.integers(0, 2**31))

    def check_probe(rep, _pass: dict) -> None:
        require(len(rep.witnesses) == 100, "missing trials")
        hits = sum(w is not None for w in rep.witnesses)
        require(rep.fail_fraction == hits / 100, "fail fraction mismatch")
        regen = np.random.default_rng(probe_seed)
        points = np.arange(4, dtype=float)
        for w in rep.witnesses:
            coeffs = regen.standard_normal(4)
            lam = sum(c * points ** q for q, c in enumerate(coeffs))
            if w is not None:
                require(witness_ok(w, lam), f"witness {w} is not a relation")

    ops = [Op("convergence_scan_cold", lambda: conv(next(cold_lists)), check_conv),
           Op("convergence_scan_warm", lambda: conv(warm_list), check_conv),
           Op("social_scan", social, check_social),
           Op("resonance_check",
              lambda: averaging.check_resonance_free(levels, 4), check_resonance),
           Op("probe_proposition3",
              lambda: averaging.probe_proposition3(3, 3, 100, 3, seed=probe_seed),
              check_probe)]
    for op in ops:
        op.group = "exact_scans"
    return ops


# ---------------------------------------------------------------------------
# library


def library(seed: int, root: Path, work: Path) -> Workload:
    """Every in-process op of the three groups, shuffled together per pass."""
    ops = bose_levels_ops(seed) + entropy_grids_ops(seed) + exact_scans_ops(seed)
    return Workload("library", ops, tail_pct=88,
                    rng=np.random.default_rng([seed, 1]))


WORKLOADS = {"cli_readme": cli_readme, "library": library}


def build(name: str, seed: int, root: Path, work: Path) -> Workload:
    return WORKLOADS[name](seed, root, work)
