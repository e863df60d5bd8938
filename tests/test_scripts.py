"""Smoke tests: the walkthrough script still runs against the package."""

import importlib.util
import re
import runpy
import sys
from pathlib import Path

import pytest

from gatecalc.cli import main
from gatecalc.gates import GateParams

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    with pytest.raises(SystemExit) as info:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return info.value.code


def test_train_gates_demo_runs(monkeypatch, capsys, tmp_path):
    assert run_script(monkeypatch, "train_gates_demo.py", "--seed", "0") == 0
    out = capsys.readouterr().out
    assert "agreement after stage 2: 36/36" in out
    assert "0 mismatching conversions" in out
    assert " -> " not in out
    # Its first two stages are train-gates' stages over the same corpora,
    # and both print the stop lines of gates.stop_report.
    monkeypatch.chdir(tmp_path)
    main(["gen", "dot-place", "--out", "dot.txt"])
    main(["gen", "numbers-ops", "--out", "ops.txt"])
    capsys.readouterr()
    assert main(["train-gates", "--data", "dot.txt", "ops.txt", "--out", "g.json"]) == 0
    stop = re.compile(r"(agreement \d+/\d+ cases at step|heads stopped at step:) .*")
    cli_stops = [line for line in capsys.readouterr().out.splitlines() if stop.fullmatch(line)]
    assert [line.strip() for line in out.splitlines() if stop.fullmatch(line.strip())] == cli_stops
    assert len(cli_stops) == 4


def test_train_gates_demo_imports():
    # Importing binds every name the script takes from the package;
    # main() itself trains for seconds, so only the summary helper runs.
    spec = importlib.util.spec_from_file_location("train_gates_demo", SCRIPTS / "train_gates_demo.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
    assert "/36 (first misses: " in module.agreement_summary(GateParams.zeros())
