"""The two solve workloads of perfbench, run in-process: their reports
must equal the frozen references in perfbench/data byte for byte, as
the benchmark demands of every run.  The files are only read."""

import os

import pytest

from jetlaw.cli import main

DATA = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "data")
ANSATZ = "--order {} --jet-degree 3 --t-degree 1 --x-degree 1"

# (session, command, order, reference), as perfbench/run.py runs them
SOLVES = [
    ("kdv.session", "symmetries", 2, "symmetries-kdv.txt"),
    ("kdv5.session", "multipliers", 4, "multipliers-kdv5.txt"),
]


@pytest.mark.parametrize("session, command, order, reference", SOLVES)
def test_solve_report_matches_benchmark_reference(capsys, session, command, order, reference):
    argv = ["-s", os.path.join(DATA, session), command, *ANSATZ.format(order).split()]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    with open(os.path.join(DATA, reference), encoding="utf-8") as fh:
        assert captured.out == fh.read()
