"""End-to-end CLI behavior: parsing, config, outputs, exit codes."""

import re
import shlex
import subprocess
import sys
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
