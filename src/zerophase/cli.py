"""Command-line scenario runner.

One executable binds the library modules behind eight subcommands:

    avg       kernel average of a spectrum under weights
    spectrum  resonance check of a level set (action: check)
    evolve    class-basis evolution trace as CSV
    limits    exact vs limiting free energy over ensemble sizes
    bose      metastable branch sweep with transition summary (action: sweep)
    flow      entropy-field envelopes and ascent trajectories
    debt      ledger aggregation and condensation threshold
    social    two-level explosion scan over a temperature grid

Conventions shared by all subcommands:

  * `--config FILE` reads `key = value` lines (`#` starts a comment); flags
    override the file, a duplicated key keeps the last value and warns.
  * every CSV gets a header row and floats with 12 significant digits; the
    one-line summary goes to stdout, or to stderr when the CSV itself
    occupies stdout.
  * exit 0 on success, 2 on bad input, 3 when a solver or guard gives up.
  * outputs depend only on the scenario; reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from . import asymptotics, averaging, bose_gas, condensation, ensemble, entropy_flow
from .errors import (BranchNotFound, BranchTerminated, GuardExceeded,
                     InputError, SolverError)


# ---------------------------------------------------------------------------
# option plumbing


def _float(s: str) -> float:
    try:
        return float(s)
    except ValueError:
        raise InputError(f"expected a number, got {s!r}")


def _int(s: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise InputError(f"expected an integer, got {s!r}")


def _floats(s: str) -> tuple:
    return tuple(_float(part) for part in s.split(","))


def _ints(s: str) -> tuple:
    return tuple(_int(part) for part in s.split(","))


def _str(s: str) -> str:
    return s


@dataclass(frozen=True)
class Opt:
    name: str                      # dest and config key
    conv: Callable[[str], Any]
    default: Any = None
    required: bool = False
    help: str = ""

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


def load_config(path: str) -> dict:
    """Parse a `key = value` file into a raw-string map; flags override it."""
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise InputError(f"cannot read config file: {e}")
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise InputError(f"{path}:{lineno}: expected `key = value`")
        key, _, value = body.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if not key or not value:
            raise InputError(f"{path}:{lineno}: expected `key = value`")
        if key in out:
            print(f"warning: {path}:{lineno}: duplicate key {key!r}, "
                  "last value wins", file=sys.stderr)
        out[key] = value
    return out


def _resolve(opts: Sequence[Opt], ns: dict) -> dict:
    """Merge flag strings over config strings, convert once, check presence."""
    config: dict[str, str] = {}
    if ns.get("config"):
        config = load_config(ns["config"])
    known = {o.name for o in opts}
    for key in config:
        if key not in known:
            raise InputError(f"unknown config key {key!r}")
    params: dict[str, Any] = {}
    for o in opts:
        raw = ns.get(o.name)
        if raw is None:
            raw = config.get(o.name)
        if raw is None:
            if o.required:
                raise InputError(f"missing required option {o.flag}")
            params[o.name] = o.default
        else:
            params[o.name] = o.conv(raw)
    return params


# ---------------------------------------------------------------------------
# output plumbing


def _cell(v: Any) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v)).lower()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, str):
        return v
    return "%.12g" % float(v)


def _emit_csv(header: Sequence[str], rows: Sequence[Sequence[Any]],
              path: str | None) -> bool:
    """Write one CSV; returns True when it went to stdout."""
    lines = [",".join(header)]
    lines.extend(",".join(_cell(c) for c in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if path:
        Path(path).write_text(text)
        return False
    sys.stdout.write(text)
    return True


def _say(line: str, csv_on_stdout: bool) -> None:
    print(line, file=sys.stderr if csv_on_stdout else sys.stdout)


_G = "%.12g"


# ---------------------------------------------------------------------------
# subcommands


_AVG_OPTS = (
    Opt("lambda", _floats, required=True, help="level values, comma separated"),
    Opt("p", _floats, help="weights (default uniform)"),
    Opt("beta", _float, 1.0, help="inverse temperature for the exponential kernel"),
    Opt("kernel", _str, "exponential", help="exponential | linear"),
    Opt("seed", _int, 0, help="reserved; outputs are deterministic"),
)


def _run_avg(params: dict) -> int:
    lam = params["lambda"]
    p = params["p"] if params["p"] is not None else tuple(1.0 / len(lam) for _ in lam)
    if params["kernel"] == "exponential":
        kernel = averaging.AveragingKernel.exponential(params["beta"])
    elif params["kernel"] == "linear":
        kernel = averaging.AveragingKernel.linear()
    else:
        raise InputError("kernel must be exponential or linear")
    value = averaging.financial_average(kernel, lam, p)
    _say(f"avg = {_G % value}", False)
    return 0


_SPECTRUM_OPTS = (
    Opt("lambda", _floats, required=True, help="level values"),
    Opt("bound", _int, 2, help="max |k_i| searched for integer relations"),
    Opt("seed", _int, 0, help="reserved; outputs are deterministic"),
)


def _run_spectrum_check(params: dict) -> int:
    report = averaging.check_resonance_free(params["lambda"], params["bound"])
    if report.holds:
        _say(f"resonance-free within bound {params['bound']}: yes", False)
    else:
        witness = ",".join(str(k) for k in report.witness)
        _say(f"resonance-free within bound {params['bound']}: no; "
             f"witness = {witness}", False)
    return 0


_EVOLVE_OPTS = (
    Opt("g", _floats, required=True, help="initial level weights"),
    Opt("lambda", _floats, required=True, help="level values"),
    Opt("beta", _float, 1.0),
    Opt("M", _int, required=True, help="ensemble size"),
    Opt("steps", _int, required=True, help="number of evolution steps"),
    Opt("out", _str, help="CSV path (default stdout)"),
    Opt("seed", _int, 0, help="reserved; outputs are deterministic"),
)


def _run_evolve(params: dict) -> int:
    g, lam = params["g"], params["lambda"]
    if len(g) != len(lam):
        raise InputError("--g and --lambda must have equal length")
    state = ensemble.init_product_state(g, params["M"])
    header = ["step", "norm", "F"] + [f"w_{i + 1}" for i in range(len(g))]
    rows = []
    for step in range(params["steps"] + 1):
        if step > 0:
            state = ensemble.evolve_step(state, lam, params["beta"])
        w = ensemble.marginals(state)
        rows.append([step, ensemble.state_norm(state),
                     ensemble.specific_free_energy(state, params["beta"]),
                     *w])
    on_stdout = _emit_csv(header, rows, params["out"])
    _say(f"evolve: {params['steps']} steps, final F = {_G % rows[-1][2]}",
         on_stdout)
    return 0


_LIMITS_OPTS = (
    Opt("g", _floats, required=True),
    Opt("lambda", _floats, required=True),
    Opt("beta", _float, 1.0),
    Opt("n", _ints, required=True, help="step indices, comma separated"),
    Opt("M", _ints, (50, 100, 200, 400), help="ensemble sizes"),
    Opt("out", _str, help="CSV path (default stdout)"),
    Opt("seed", _int, 0, help="reserved; outputs are deterministic"),
)


def _run_limits(params: dict) -> int:
    g, lam, beta = params["g"], params["lambda"], params["beta"]
    if len(g) != len(lam):
        raise InputError("--g and --lambda must have equal length")
    rows = []
    last_limit = None
    for n in params["n"]:
        f_limit = asymptotics.limit_F(g, lam, beta, n)
        last_limit = f_limit
        for M in params["M"]:
            state = ensemble.init_product_state(g, M)
            for _ in range(n):
                state = ensemble.evolve_step(state, lam, beta)
            f_exact = ensemble.specific_free_energy(state, beta)
            rows.append([n, M, f_exact, f_limit, abs(f_exact - f_limit)])
    on_stdout = _emit_csv(["n", "M", "F_exact", "F_limit", "abs_error"],
                          rows, params["out"])
    _say(f"limits: F_limit = {_G % last_limit} at n = {params['n'][-1]}",
         on_stdout)
    return 0


_BOSE_OPTS = (
    Opt("levels", _floats, required=True, help="level values, ground first"),
    Opt("V", _float, required=True, help="interaction strength"),
    Opt("g", _float, required=True, help="per-level degeneracy weight"),
    Opt("D", _float, help="interaction width (default half the smallest gap)"),
    Opt("seed_level", _int, help="condensate level of the swept branch "
                                 "(default: highest level)"),
    Opt("theta_points", _int, 48, help="points on the temperature grid"),
    Opt("out", _str, help="branch CSV path (default stdout)"),
    Opt("seed", _int, 0, help="reserved; outputs are deterministic"),
)


def _run_bose_sweep(params: dict) -> int:
    levels = bose_gas.LevelSet.from_values(params["levels"], params["g"],
                                           params["V"], params["D"])
    l = params["seed_level"]
    if l is None:
        l = levels.size - 1
    if params["theta_points"] < 8:
        raise InputError("--theta-points must be at least 8")
    hi = bose_gas.theta_upper_bound(levels)
    grid = np.geomspace(1e-3 * hi, hi, params["theta_points"])
    cert = bose_gas.zeroth_order_certificate(levels, l, theta_grid=grid)
    cont = bose_gas.continue_branch(levels, l, grid)
    header = (["theta"] + [f"m_{i}" for i in range(levels.size)]
              + ["mu", "f", "s", "margin"])
    rows = [[st.theta, *st.m, st.mu, st.f, st.s, st.margin]
            for st in cont.states]
    on_stdout = _emit_csv(header, rows, params["out"])
    line = (f"bose sweep: theta_c = {_G % cert.theta_c}, "
            f"jump = {_G % cert.jump}")
    deltas = np.geomspace(1e-6, 1e-4, 9)
    try:
        near = bose_gas.branch_points_near(levels, l, cert.theta_c, deltas)
        fit = bose_gas.singular_exponent_fit(levels, near, cert.theta_c)
        line += f", exponent_fit = {_G % fit.exponent}"
    except (SolverError, BranchTerminated, InputError):
        line += ", exponent_fit = unavailable"
    _say(line, on_stdout)
    return 0


_FLOW_OPTS = (
    Opt("grid", _floats, required=True, help="xmin,xmax,n for the 1-d grid"),
    Opt("h0_poly", _floats, required=True,
        help="initial field as polynomial coefficients c0,c1,c2,..."),
    Opt("t", _float, required=True, help="envelope time"),
    Opt("mode", _str, "max", help="max | min | smooth"),
    Opt("x0", _float, help="start an ascent trajectory here"),
    Opt("dt", _float, 1e-3, help="trajectory step"),
    Opt("flow_steps", _int, 100, help="trajectory step count"),
    Opt("out", _str, help="snapshot CSV path (default stdout)"),
    Opt("traj_out", _str, help="trajectory CSV path (default stdout)"),
    Opt("seed", _int, 0, help="reserved; outputs are deterministic"),
)


def _run_flow(params: dict) -> int:
    grid = params["grid"]
    if len(grid) != 3:
        raise InputError("--grid must be xmin,xmax,n")
    xmin, xmax, n = grid
    n = int(n)
    if n < 3 or xmax <= xmin:
        raise InputError("--grid needs xmax > xmin and n >= 3")
    spacing = (xmax - xmin) / (n - 1)
    coeffs = params["h0_poly"]

    def h0(x: np.ndarray) -> np.ndarray:
        return np.polynomial.polynomial.polyval(x, coeffs)

    field0 = entropy_flow.EntropyField.from_function(h0, (xmin,), (spacing,), (n,))
    mode = params["mode"]
    if mode in ("max", "min"):
        field_t = entropy_flow.hopf_lax(field0, params["t"], mode=mode)
    elif mode == "smooth":
        field_t = entropy_flow.log_gaussian_smoothing(field0, params["t"])
    else:
        raise InputError("mode must be max, min, or smooth")
    xs = field0.axes()[0]
    rows = [[x, h0v, htv] for x, h0v, htv in zip(xs, field0.H, field_t.H)]
    on_stdout = _emit_csv(["x", "H0", "Ht"], rows, params["out"])

    if params["x0"] is not None:
        config = entropy_flow.FlowConfig(dt=params["dt"],
                                         steps=params["flow_steps"])
        traj = entropy_flow.ascent_trajectory(field0, config, (params["x0"],))
        trows = [[i, pt[0], hv]
                 for i, (pt, hv) in enumerate(zip(traj.points, traj.H_values))]
        on_stdout |= _emit_csv(["step", "x", "H"], trows, params["traj_out"])
        _say(f"flow: H range [{_G % field_t.H.min()}, {_G % field_t.H.max()}], "
             f"trajectory exited = {str(traj.exited).lower()}", on_stdout)
    else:
        _say(f"flow: H range [{_G % field_t.H.min()}, {_G % field_t.H.max()}]",
             on_stdout)
    return 0


_DEBT_OPTS = (
    Opt("ledger", _str, required=True,
        help="tabular file: kind, principal, velocity-or-years per line"),
    Opt("sigma_avg", _float, required=True, help="average yearly turnover"),
    Opt("theta", _float, help="temperature for the condensation threshold"),
    Opt("gamma", _float, 1.5, help="Pareto exponent of the level weights"),
    Opt("k", _int, 50, help="number of levels in the threshold model"),
    Opt("alpha1", _float, 1.0),
    Opt("q", _float, 2.0, help="level-energy exponent"),
    Opt("out", _str, help="CSV path (default stdout)"),
    Opt("seed", _int, 0, help="reserved; outputs are deterministic"),
)


def read_ledger(path: str) -> condensation.DebtLedger:
    """Load `kind, principal, velocity-or-years` lines into a ledger."""
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise InputError(f"cannot read ledger file: {e}")
    positions = []
    long_term = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = [p.strip() for p in body.split(",")]
        if len(parts) != 3:
            raise InputError(
                f"{path}:{lineno}: expected `kind, principal, velocity-or-years`")
        kind, principal, rate = parts
        if kind == "position":
            positions.append(condensation.DebtPosition(_float(principal),
                                                       _float(rate)))
        elif kind == "long_term":
            long_term.append(condensation.LongTermDebt(_float(principal),
                                                       _float(rate)))
        else:
            raise InputError(f"{path}:{lineno}: unknown kind {kind!r} "
                             "(expected position or long_term)")
    return condensation.DebtLedger(tuple(positions), tuple(long_term))


def _run_debt(params: dict) -> int:
    ledger = read_ledger(params["ledger"])
    supply = condensation.debt_supply(ledger, params["sigma_avg"])
    if params["theta"] is not None:
        levels = condensation.ParetoLevels(gamma=params["gamma"], k=params["k"],
                                           alpha1=params["alpha1"], q=params["q"])
        n0 = condensation.critical_number(levels, params["theta"])
        report = condensation.condensate_excess(levels, params["theta"], supply.N)
        header = ["M", "N", "N0", "excess"]
        rows = [[supply.M, supply.N, n0, report.excess]]
        summary = (f"debt: M = {_G % supply.M}, N = {_G % supply.N}, "
                   f"excess = {_G % report.excess} -> {report.assigned_level}")
    else:
        header = ["M", "N"]
        rows = [[supply.M, supply.N]]
        summary = f"debt: M = {_G % supply.M}, N = {_G % supply.N}"
    on_stdout = _emit_csv(header, rows, params["out"])
    _say(summary, on_stdout)
    return 0


_SOCIAL_OPTS = (
    Opt("n1", _int, required=True, help="population of level 1"),
    Opt("n2", _int, required=True, help="population of level 2"),
    Opt("N", _int, required=True, help="total money units"),
    Opt("gamma", _float, required=True, help="interaction strength in (1,2)"),
    Opt("T_grid", _floats, (0.0, 10.0, 200),
        help="lo,hi,count for the temperature grid"),
    Opt("sign", _str, "minus", help="entropy sign convention: minus | plus"),
    Opt("out", _str, help="CSV path (default stdout)"),
    Opt("seed", _int, 0, help="reserved; outputs are deterministic"),
)


def _run_social(params: dict) -> int:
    tg = params["T_grid"]
    if len(tg) != 3:
        raise InputError("--T-grid must be lo,hi,count")
    lo, hi, count = tg
    count = int(count)
    if count < 2 or hi <= lo:
        raise InputError("--T-grid needs hi > lo and count >= 2")
    eco = condensation.TwoLevelEconomy(n1=params["n1"], n2=params["n2"],
                                       N=params["N"],
                                       gamma_int=params["gamma"],
                                       sign_convention=params["sign"])
    scan = condensation.social_explosion_scan(eco, np.linspace(lo, hi, count))
    rows = list(zip(scan.T, scan.argmin_N1, scan.E_parts))
    on_stdout = _emit_csv(["T", "argmin_N1", "E_part"], rows, params["out"])
    if scan.T_star is None:
        _say(f"social: no explosion on the grid "
             f"(largest one-step move = {scan.jump_size})", on_stdout)
    else:
        _say(f"social: T_star = {_G % scan.T_star}, jump = {scan.jump_size}, "
             f"kinetic outburst = {_G % scan.kinetic_outburst}", on_stdout)
    return 0


# ---------------------------------------------------------------------------
# parser assembly


_COMMANDS: dict[str, tuple] = {
    "avg": (_AVG_OPTS, _run_avg, "kernel average of a spectrum"),
    "spectrum.check": (_SPECTRUM_OPTS, _run_spectrum_check,
                       "integer-relation check of the level values"),
    "evolve": (_EVOLVE_OPTS, _run_evolve, "class-basis evolution trace"),
    "limits": (_LIMITS_OPTS, _run_limits,
               "exact vs limiting free energy over ensemble sizes"),
    "bose.sweep": (_BOSE_OPTS, _run_bose_sweep,
                   "metastable branch sweep with transition summary"),
    "flow": (_FLOW_OPTS, _run_flow,
             "entropy-field envelopes and ascent trajectories"),
    "debt": (_DEBT_OPTS, _run_debt,
             "ledger aggregation and condensation threshold"),
    "social": (_SOCIAL_OPTS, _run_social,
               "two-level explosion scan over a temperature grid"),
}


def _add_opts(parser: argparse.ArgumentParser, opts: Sequence[Opt]) -> None:
    parser.add_argument("--config", default=None, metavar="FILE",
                        help="key = value file; flags override it")
    for o in opts:
        parser.add_argument(o.flag, dest=o.name, default=None, metavar="V",
                            help=o.help or None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zerophase",
        description="scenario runner for the zerophase library")
    sub = parser.add_subparsers(dest="command", required=True)
    nested: dict[str, Any] = {}
    for key, (opts, _fn, blurb) in _COMMANDS.items():
        if "." in key:
            group, action = key.split(".")
            if group not in nested:
                gp = sub.add_parser(group, help=f"{group} actions")
                nested[group] = gp.add_subparsers(dest="action", required=True)
            p = nested[group].add_parser(action, help=blurb)
        else:
            p = sub.add_parser(key, help=blurb)
        _add_opts(p, opts)
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    ns = vars(build_parser().parse_args(argv))
    key = ns["command"]
    if "action" in ns:
        key = f"{key}.{ns['action']}"
    opts, fn, _ = _COMMANDS[key]
    return fn(_resolve(opts, ns))


def main(argv: Sequence[str] | None = None) -> int:
    try:
        return run(argv)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (SolverError, GuardExceeded, BranchNotFound, BranchTerminated) as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
