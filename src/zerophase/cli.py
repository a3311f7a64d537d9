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
  * output is written once the subcommand has finished: one that fails
    while computing (exit 2 or 3) writes no CSV to stdout or `--out`, and
    an output path that cannot be written is exit 2 with stdout empty; one
    that is a directory or is in a missing directory leaves every output
    file as it was.
  * outputs depend only on the scenario; reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from . import asymptotics, averaging, bose_gas, condensation, ensemble, entropy_flow
from ._numeric import check_count, check_real
from .errors import GuardExceeded, InputError, SolverError


# ---------------------------------------------------------------------------
# option plumbing


def _float(s: str) -> float:
    try:
        v = float(s)
    except ValueError:
        raise InputError(f"expected a number, got {s!r}")
    return check_real(v, f"number {s!r}")


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


def _grid_spec(values: tuple, flag: str, min_count: int) -> tuple:
    """Check a `lo,hi,count` triple; returns (lo, hi, count) with an int count."""
    if len(values) != 3:
        raise InputError(f"{flag} must be lo,hi,count")
    lo, hi, count = values
    if not hi > lo:
        raise InputError(f"{flag} needs hi > lo")
    return lo, hi, check_count(count, f"{flag} count", min_count)


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


def _lines(path: str, what: str) -> Iterator[tuple[int, str]]:
    """(line number, text) of the lines left nonblank by cutting `#` comments."""
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise InputError(f"cannot read {what} file: {e}")
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if body:
            yield lineno, body


def load_config(path: str) -> dict:
    """Parse a `key = value` file into a raw-string map; flags override it."""
    out: dict[str, str] = {}
    for lineno, body in _lines(path, "config"):
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


def _write(tables: Sequence[tuple], summary: str) -> None:
    """Emit a finished command's (header, rows, path) tables and summary.

    A CSV goes to its path, or to stdout when the path is unset.  Every path
    is checked before any file is written, and stdout is written last, so a
    path that is a directory or is in a missing directory changes no file
    and leaves stdout empty.  The summary goes to stderr once a CSV occupies stdout.
    """
    on_stdout, files = [], []
    for header, rows, path in tables:
        text = "".join(",".join(map(_cell, row)) + "\n"
                       for row in [header, *rows])
        if path:
            files.append((path, text))
        else:
            on_stdout.append(text)
    for path, _ in files:
        if Path(path).is_dir() or not Path(path).parent.is_dir():
            raise InputError(f"cannot write output file: {path!r} is a "
                             "directory or is in a missing directory")
    try:
        for path, text in files:
            Path(path).write_text(text)
    except OSError as e:
        raise InputError(f"cannot write output file: {e}")
    sys.stdout.write("".join(on_stdout))
    print(summary, file=sys.stderr if on_stdout else sys.stdout)


_G = "%.12g"


# ---------------------------------------------------------------------------
# subcommands: each runner returns ([(header, rows, out path), ...], summary)
# and writes nothing; run hands both to _write


_AVG_OPTS = (
    Opt("lambda", _floats, required=True, help="level values, comma separated"),
    Opt("p", _floats, help="weights (default uniform)"),
    Opt("beta", _float, 1.0, help="inverse temperature for the exponential kernel"),
    Opt("kernel", _str, "exponential", help="exponential | linear"),
)


def _run_avg(params: dict) -> tuple:
    lam = params["lambda"]
    p = params["p"] if params["p"] is not None else tuple(1.0 / len(lam) for _ in lam)
    if params["kernel"] == "exponential":
        kernel = averaging.AveragingKernel.exponential(params["beta"])
    elif params["kernel"] == "linear":
        kernel = averaging.AveragingKernel.linear()
    else:
        raise InputError("kernel must be exponential or linear")
    value = averaging.financial_average(kernel, lam, p)
    return [], f"avg = {_G % value}"


_SPECTRUM_OPTS = (
    Opt("lambda", _floats, required=True, help="level values"),
    Opt("bound", _int, 2, help="max |k_i| searched for integer relations"),
)


def _run_spectrum_check(params: dict) -> tuple:
    report = averaging.check_resonance_free(params["lambda"], params["bound"])
    line = f"resonance-free within bound {params['bound']}: "
    if report.holds:
        return [], line + "yes"
    witness = ",".join(str(k) for k in report.witness)
    return [], line + f"no; witness = {witness}"


_EVOLVE_OPTS = (
    Opt("g", _floats, required=True, help="initial level weights"),
    Opt("lambda", _floats, required=True, help="level values"),
    Opt("beta", _float, 1.0),
    Opt("M", _int, required=True, help="ensemble size"),
    Opt("steps", _int, required=True, help="number of evolution steps"),
    Opt("out", _str, help="CSV path (default stdout)"),
)


def _run_evolve(params: dict) -> tuple:
    g, lam = params["g"], params["lambda"]
    if len(g) != len(lam):
        raise InputError("--g and --lambda must have equal length")
    check_count(params["steps"], "--steps")
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
    return ([(header, rows, params["out"])],
            f"evolve: {params['steps']} steps, final F = {_G % rows[-1][2]}")


_LIMITS_OPTS = (
    Opt("g", _floats, required=True),
    Opt("lambda", _floats, required=True),
    Opt("beta", _float, 1.0),
    Opt("n", _ints, required=True, help="step indices, comma separated"),
    Opt("M", _ints, (50, 100, 200, 400), help="ensemble sizes"),
    Opt("out", _str, help="CSV path (default stdout)"),
)


def _run_limits(params: dict) -> tuple:
    rows = []
    for n in params["n"]:
        rep = asymptotics.convergence_scan(params["g"], params["lambda"],
                                           params["beta"], n, params["M"])
        rows += [[n, M, f, rep.F_limit, err]
                 for M, f, err in zip(rep.M_values, rep.F_exact, rep.errors)]
    header = ["n", "M", "F_exact", "F_limit", "abs_error"]
    return ([(header, rows, params["out"])],
            f"limits: F_limit = {_G % rep.F_limit} at n = {params['n'][-1]}")


_BOSE_OPTS = (
    Opt("levels", _floats, required=True, help="level values, ground first"),
    Opt("V", _float, required=True, help="interaction strength"),
    Opt("g", _float, required=True, help="per-level degeneracy weight"),
    Opt("D", _float, help="interaction width (default half the smallest gap)"),
    Opt("seed_level", _int, help="condensate level of the swept branch "
                                 "(default: highest level)"),
    Opt("theta_points", _int, 48, help="points on the temperature grid"),
    Opt("out", _str, help="branch CSV path (default stdout)"),
)


def _run_bose_sweep(params: dict) -> tuple:
    levels = bose_gas.LevelSet.from_values(params["levels"], params["g"],
                                           params["V"], params["D"])
    l = params["seed_level"]
    if l is None:
        l = levels.size - 1
    if params["theta_points"] < 8:
        raise InputError("--theta-points must be at least 8")
    cont, cert = bose_gas._continuation_and_certificate(levels, l,
                                                        params["theta_points"])
    header = (["theta"] + [f"m_{i}" for i in range(levels.size)]
              + ["mu", "f", "s", "margin"])
    rows = [[st.theta, *st.m, st.mu, st.f, st.s, st.margin]
            for st in cont.states]
    line = (f"bose sweep: theta_c = {_G % cert.theta_c}, "
            f"jump = {_G % cert.jump}")
    deltas = np.geomspace(1e-6, 1e-4, 9)
    try:
        near = bose_gas.branch_points_near(levels, l, cert.theta_c, deltas)
        fit = bose_gas.singular_exponent_fit(levels, near, cert.theta_c)
        line += f", exponent_fit = {_G % fit.exponent}"
    except (SolverError, InputError):
        line += ", exponent_fit = unavailable"
    return [(header, rows, params["out"])], line


_FLOW_OPTS = (
    Opt("grid", _floats, required=True, help="lo,hi,count for the 1-d grid"),
    Opt("h0_poly", _floats, required=True,
        help="initial field as polynomial coefficients c0,c1,c2,..."),
    Opt("t", _float, required=True, help="envelope time"),
    Opt("mode", _str, "max", help="max | min | smooth"),
    Opt("x0", _float, help="start an ascent trajectory here"),
    Opt("dt", _float, 1e-3, help="trajectory step"),
    Opt("flow_steps", _int, 100, help="trajectory step count"),
    Opt("out", _str, help="snapshot CSV path (default stdout)"),
    Opt("traj_out", _str, help="trajectory CSV path (default stdout)"),
)


def _run_flow(params: dict) -> tuple:
    xmin, xmax, n = _grid_spec(params["grid"], "--grid", 3)
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
    tables = [(["x", "H0", "Ht"], rows, params["out"])]
    line = f"flow: H range [{_G % field_t.H.min()}, {_G % field_t.H.max()}]"
    if params["x0"] is not None:
        config = entropy_flow.FlowConfig(dt=params["dt"],
                                         steps=params["flow_steps"])
        traj = entropy_flow.ascent_trajectory(field0, config, (params["x0"],))
        trows = [[i, pt[0], hv]
                 for i, (pt, hv) in enumerate(zip(traj.points, traj.H_values))]
        tables.append((["step", "x", "H"], trows, params["traj_out"]))
        line += f", trajectory exited = {_cell(traj.exited)}"
    return tables, line


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
)


def read_ledger(path: str) -> condensation.DebtLedger:
    """Load `kind, principal, velocity-or-years` lines into a ledger."""
    positions, long_term = [], []
    for lineno, body in _lines(path, "ledger"):
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


def _run_debt(params: dict) -> tuple:
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
    return [(header, rows, params["out"])], summary


_SOCIAL_OPTS = (
    Opt("n1", _int, required=True, help="population of level 1"),
    Opt("n2", _int, required=True, help="population of level 2"),
    Opt("N", _int, required=True, help="total money units"),
    Opt("gamma", _float, required=True, help="interaction strength in (1,2)"),
    Opt("T_grid", _floats, (0.0, 10.0, 200),
        help="lo,hi,count for the temperature grid"),
    Opt("sign", _str, "minus", help="entropy sign convention: minus | plus"),
    Opt("out", _str, help="CSV path (default stdout)"),
)


def _run_social(params: dict) -> tuple:
    lo, hi, count = _grid_spec(params["T_grid"], "--T-grid", 2)
    eco = condensation.TwoLevelEconomy(n1=params["n1"], n2=params["n2"],
                                       N=params["N"],
                                       gamma_int=params["gamma"],
                                       sign_convention=params["sign"])
    scan = condensation.social_explosion_scan(eco, np.linspace(lo, hi, count))
    rows = list(zip(scan.T, scan.argmin_N1, scan.E_parts))
    tables = [(["T", "argmin_N1", "E_part"], rows, params["out"])]
    if scan.T_star is None:
        return tables, (f"social: no explosion on the grid "
                        f"(largest one-step move = {scan.jump_size})")
    return tables, (f"social: T_star = {_G % scan.T_star}, "
                    f"jump = {scan.jump_size}, "
                    f"kinetic outburst = {_G % scan.kinetic_outburst}")


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


# accepted by every subcommand, after its own options
_SEED = Opt("seed", _int, 0, help="reserved; outputs are deterministic")


def _add_opts(parser: argparse.ArgumentParser, opts: Sequence[Opt]) -> None:
    parser.add_argument("--config", default=None, metavar="FILE",
                        help="key = value file; flags override it")
    for o in (*opts, _SEED):
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
    _write(*fn(_resolve((*opts, _SEED), ns)))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    try:
        return run(argv)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (SolverError, GuardExceeded) as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
