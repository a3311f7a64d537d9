"""End-to-end CLI behavior: parsing, config, outputs, exit codes."""

import importlib.util
import json
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from zerophase.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_avg_summary_line(capsys):
    code, out, err = run_cli(capsys, "avg", "--lambda", "0,1", "--p", "0.5,0.5")
    assert code == 0
    assert out.strip() == "avg = 0.379885493042"


def test_spectrum_check_reports_witness(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "check", "--lambda", "1,2,3",
                           "--bound", "2")
    assert code == 0
    assert "witness = 1,-2,1" in out


def test_spectrum_check_without_relation_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "check", "--lambda", "0,1,3.7",
                           "--bound", "2")
    assert code == 0
    assert out.strip() == "resonance-free within bound 2: yes"


def test_evolve_worked_example(capsys):
    code, out, err = run_cli(capsys, "evolve", "--g", "1,1",
                             "--lambda", "0,0.6931", "--beta", "1",
                             "--M", "2", "--steps", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "step,norm,F,w_1,w_2"
    norm = float(lines[2].split(",")[1])
    np.testing.assert_allclose(norm, 3.25, atol=2e-3)
    # CSV on stdout pushes the summary to stderr
    assert "final F" in err


def test_evolve_overflowing_norm_prints_inf_without_warning(capsys):
    # ln(norm) ~ 832 at M = 1200: the linear norm column is inf by design
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "evolve", "--g", "1,1",
                                 "--lambda", "0,1", "--beta", "0.7",
                                 "--M", "1200", "--steps", "2")
    assert code == 0
    assert out == ("step,norm,F,w_1,w_2\n"
                   "0,inf,-0.990210257943,0.5,0.5\n"
                   "1,inf,-0.759532682679,0.586653685086,0.413346314915\n"
                   "2,inf,-0.692228581874,0.614658186766,0.385341813234\n")
    assert err == "evolve: 2 steps, final F = -0.692228581874\n"


def test_limits_worked_example(capsys):
    code, out, err = run_cli(capsys, "limits", "--g", "1,1",
                             "--lambda", "0,0.6931", "--beta", "1",
                             "--n", "0", "--M", "50")
    assert code == 0
    assert out.splitlines()[0] == "n,M,F_exact,F_limit,abs_error"
    assert "-0.69314718056" in err  # F_limit in the summary


def test_bose_sweep_summary(tmp_path, capsys):
    out_path = tmp_path / "branch.csv"
    code, out, _ = run_cli(capsys, "bose", "sweep", "--levels", "0,1",
                           "--V", "2", "--g", "1", "--out", str(out_path))
    assert code == 0
    assert "theta_c = 0.365177783898" in out
    assert "jump = 0.983963011078" in out
    header = out_path.read_text().splitlines()[0]
    assert header == "theta,m_0,m_1,mu,f,s,margin"


def test_flow_closed_form_boundary(tmp_path, capsys):
    snap = tmp_path / "snap.csv"
    code, out, _ = run_cli(capsys, "flow", "--grid=-1,1,101",
                           "--h0-poly", "0,0,-1", "--t", "0.5",
                           "--mode", "max", "--out", str(snap))
    assert code == 0
    first = snap.read_text().splitlines()[1].split(",")
    # H_t(-1) = -1/(1+2t) = -0.5 for the parabola
    np.testing.assert_allclose(float(first[2]), -0.5, atol=1e-3)


def test_debt_ledger_file(tmp_path, capsys):
    ledger = tmp_path / "ledger.txt"
    ledger.write_text("# demo ledger\n"
                      "position, 100, 2.5\n"
                      "long_term, 1000, 20\n")
    code, out, err = run_cli(capsys, "debt", "--ledger", str(ledger),
                             "--sigma-avg", "2")
    assert code == 0
    assert out.splitlines()[0] == "M,N"
    assert out.splitlines()[1] == "300,150"


def test_debt_rejects_malformed_ledger_line(tmp_path, capsys):
    ledger = tmp_path / "ledger.txt"
    ledger.write_text("position, 100\n")
    code, _, err = run_cli(capsys, "debt", "--ledger", str(ledger),
                           "--sigma-avg", "2")
    assert code == 2
    assert ":1:" in err


def test_social_summary_without_jump(capsys):
    code, out, err = run_cli(capsys, "social", "--n1", "50", "--n2", "50",
                             "--N", "100", "--gamma", "1.5",
                             "--T-grid", "0,10,50")
    assert code == 0
    assert "no explosion" in err


def test_social_guard_exit_code(capsys):
    code, _, err = run_cli(capsys, "social", "--n1", "2", "--n2", "2",
                           "--N", "5001", "--gamma", "1.5")
    assert code == 3
    assert "guarded" in err


def test_config_file_supplies_all_options(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# scenario\n"
                   "lambda = 0,0.6931\n"
                   "g = 1,1\n"
                   "beta = 1\n"
                   "M = 2\n"
                   "steps = 1\n")
    code, out, _ = run_cli(capsys, "evolve", "--config", str(cfg))
    assert code == 0
    assert out.splitlines()[0] == "step,norm,F,w_1,w_2"


def test_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beta = 1\n")
    code, out, _ = run_cli(capsys, "avg", "--config", str(cfg),
                           "--lambda", "0,1", "--beta", "2")
    assert code == 0
    assert out.strip() == "avg = 0.283109584758"  # the beta=2 value


def test_duplicate_config_key_warns_last_wins(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beta = 7\nbeta = 1\n")
    code, out, err = run_cli(capsys, "avg", "--config", str(cfg),
                             "--lambda", "0,1")
    assert code == 0
    assert "duplicate key 'beta'" in err
    assert out.strip() == "avg = 0.379885493042"


def test_malformed_config_line_reports_line_number(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = 0,1\nnot a valid line\n")
    code, _, err = run_cli(capsys, "avg", "--config", str(cfg))
    assert code == 2
    assert ":2:" in err


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("typo_key = 3\n")
    code, _, err = run_cli(capsys, "avg", "--config", str(cfg),
                           "--lambda", "0,1")
    assert code == 2
    assert "typo_key" in err


def test_missing_required_option(capsys):
    code, _, err = run_cli(capsys, "avg")
    assert code == 2
    assert "--lambda" in err


def test_bad_numeric_value(capsys):
    code, _, err = run_cli(capsys, "avg", "--lambda", "0,said")
    assert code == 2


def test_unknown_flag_exits_two():
    proc = subprocess.run([sys.executable, "-m", "zerophase.cli", "avg",
                           "--lambda", "0,1", "--frobnicate", "3"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower()


def test_reruns_are_byte_identical(tmp_path):
    argv = [sys.executable, "-m", "zerophase.cli", "social", "--n1", "5",
            "--n2", "95", "--N", "100", "--gamma", "1.5"]
    a = subprocess.run(argv, capture_output=True, check=True)
    b = subprocess.run(argv, capture_output=True, check=True)
    assert a.stdout == b.stdout
    assert a.stderr == b.stderr


def test_csv_floats_use_twelve_significant_digits(capsys):
    code, out, _ = run_cli(capsys, "limits", "--g", "1,1", "--lambda", "0,1",
                           "--n", "1", "--M", "50")
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[3] == "-0.47407698418"  # %.12g rendering of F_limit


def test_inadmissible_branch_names_its_cause(capsys):
    code, out, err = run_cli(capsys, "bose", "sweep", "--levels", "0,1",
                             "--V", "1", "--g", "1", "--theta-points", "48")
    assert code == 3
    assert out == ""
    assert "lambda_0 - lambda_1 + V = 0 <= 0" in err


def _readme_blocks() -> list:
    """(language, text) of each fenced block in README.md's CLI section."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    cli_section = readme.split("\n## CLI\n", 1)[1]
    return re.findall(r"^```(\w+)\n(.*?)^```", cli_section, re.M | re.S)


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    blocks = _readme_blocks()
    files = {"ini": "sweep.cfg", "text": "positions.txt"}
    for lang, text in blocks:
        if lang in files:
            (tmp_path / files[lang]).write_text(text)
    commands = [shlex.split(line)[1:] for lang, text in blocks if lang == "sh"
                for line in text.splitlines() if line.startswith("zerophase ")]
    assert len(commands) == 9
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)


def _bench_workloads(monkeypatch):
    """bench/workloads.py, loaded by path; nothing under bench/ is written."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(module)
    return module


def test_bench_cli_outputs_match_reference(tmp_path, monkeypatch):
    # the benchmark's own comparison: exit codes, and numbers to 1e-9
    workloads = _bench_workloads(monkeypatch)
    reference = workloads.load_reference()["cli"]
    monkeypatch.chdir(tmp_path)
    for name, argv in workloads.README_COMMANDS.items():
        ref = reference[name]
        res = workloads.inprocess_cli(argv)
        assert res.code == ref["code"], name
        workloads.compare_output(ref["stdout"], res.stdout, ref["csv"])


# Child interpreter for the scipy-loading checks: imports the package, runs
# each argv list given as JSON through cli.main with output captured, and
# prints the loaded scipy modules after the import and after every command.
_SCIPY_PROBE = """
import contextlib, io, json, sys
import zerophase, zerophase.cli

def loaded():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

report = {"import": loaded(), "runs": []}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        code = zerophase.cli.main(argv)
    report["runs"].append([code, loaded()])
print(json.dumps(report))
"""


def _scipy_probe(tmp_path, commands):
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE,
                           json.dumps(commands)],
                          capture_output=True, text=True, check=True,
                          cwd=tmp_path)
    return json.loads(proc.stdout)


def test_import_and_numpy_only_commands_load_no_scipy(tmp_path):
    (tmp_path / "ledger.txt").write_text("position, 100, 2.0\n"
                                         "long_term, 300, 10\n")
    commands = [
        ["spectrum", "check", "--lambda", "1,2,3", "--bound", "2"],
        ["flow", "--grid=-1,1,101", "--h0-poly", "0,0,-1", "--t", "0.5",
         "--mode", "max"],
        ["debt", "--ledger", "ledger.txt", "--sigma-avg", "2"],
        # rejected before any solve: exit 3, and no solver is loaded
        ["bose", "sweep", "--levels", "0,1", "--V", "1", "--g", "1",
         "--theta-points", "48"],
    ]
    report = _scipy_probe(tmp_path, commands)
    assert report["import"] == []
    assert [code for code, _ in report["runs"]] == [0, 0, 0, 3]
    for argv, (_, modules) in zip(commands, report["runs"]):
        assert modules == [], argv


def test_solver_commands_load_no_scipy(tmp_path):
    commands = [
        ["avg", "--lambda", "0,0.5,1.3", "--p", "0.2,0.5,0.3", "--beta", "1"],
        ["bose", "sweep", "--levels", "0,1", "--V", "2", "--g", "1",
         "--theta-points", "16"],
        ["flow", "--grid=-1,1,101", "--h0-poly", "0,0,-1", "--t", "0.5",
         "--mode", "smooth", "--x0", "0.2"],
        # the log-factorial users
        ["evolve", "--g", "1,1", "--lambda", "0,1", "--beta", "0.7",
         "--M", "4", "--steps", "3"],
        ["limits", "--g", "1,1", "--lambda", "0,1", "--beta", "1",
         "--n", "0,1", "--M", "50,100"],
        ["social", "--n1", "5", "--n2", "95", "--N", "100", "--gamma", "1.5",
         "--T-grid", "0,2,20"],
    ]
    report = _scipy_probe(tmp_path, commands)
    assert report["import"] == []
    assert [code for code, _ in report["runs"]] == [0] * len(commands)
    for argv, (_, modules) in zip(commands, report["runs"]):
        assert modules == [], argv


def test_source_imports_no_scipy():
    src = Path(__file__).resolve().parent.parent / "src" / "zerophase"
    files = sorted(src.glob("*.py"))
    assert files
    # catches lazy and importlib loads too, not only import lines
    for path in files:
        assert "scipy" not in path.read_text(), path.name


def test_bose_sweep_continues_the_branch_once(monkeypatch, capsys):
    from zerophase import bose_gas
    calls = []
    continue_branch = bose_gas.continue_branch

    def counted(*args, **kwargs):
        calls.append(args)
        return continue_branch(*args, **kwargs)

    monkeypatch.setattr(bose_gas, "continue_branch", counted)
    code, out, err = run_cli(capsys, "bose", "sweep", "--levels", "0,1",
                             "--V", "2", "--g", "1", "--theta-points", "16")
    assert code == 0
    assert out.startswith("theta,m_0,m_1,")
    assert "theta_c = " in err
    assert len(calls) == 1
