"""The workloads of perfbench, run in-process: the two solves' reports
must equal the frozen references in perfbench/data byte for byte, and
the first answers of the query mix's default seed its frozen digests,
as the benchmark demands of every run.  The files are only read.  Two
larger solves of the same equations, and the KdV5 symmetry solve, are
pinned by digest."""

import hashlib
import importlib.util
import itertools
import json
import os

import pytest

from jetlaw import format_expr, parse_expr
from jetlaw.cli import main
from jetlaw.conslaw import Ansatz, solve_multipliers
from jetlaw.soln import make_pde
from jetlaw.symmetry import solve_symmetries

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


def _load_mix():
    """perfbench/mix.py, which is not a package module."""
    path = os.path.join(DATA, os.pardir, "mix.py")
    spec = importlib.util.spec_from_file_location("perfbench_mix", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_query_mix_answers_match_benchmark_digests():
    # the first 1,000 queries of the default seed, each answered from
    # the text the benchmark's worker receives, as perfbench/freeze.py
    # answered them when it wrote the digests
    mix = _load_mix()
    frozen = mix.load_frozen()
    pdes = mix.build_pdes(frozen)
    records = itertools.islice(mix.generate(mix.DEFAULT_SEED, frozen), 1000)
    got = [mix.digest(mix.render_lines(mix.execute(json.loads(mix.program_input(r)), pdes))) for r in records]
    assert len(got) == 1000
    assert got == mix.load_digests()[:1000]


# larger solves than the benchmark's, pinned by the sha256 of their
# printed bases, "\n".join(map(format_expr, basis))
PINNED = [
    (
        "symmetries",
        "-u*u_x - u_xxx",
        Ansatz(2, 4, 2, 2),
        "273deda19b16135aa6d55f7dad09b9b3a1a39fddfa10f4bb9a72f9e0b561b149",
    ),
    (
        "multipliers",
        "-u_xxxxx - 10*u*u_xxx - 25*u_x*u_xx - 20*u^2*u_x",
        Ansatz(4, 4, 2, 2),
        "1d916d0dc553bf00f027f7c09377114c557fcfc134cfde27bedaed43a5a05d08",
    ),
]


@pytest.mark.parametrize("command, rhs, ansatz, digest", PINNED, ids=["kdv-symmetries", "kdv5-multipliers"])
def test_large_basis_matches_pinned_digest(command, rhs, ansatz, digest):
    solve = solve_symmetries if command == "symmetries" else solve_multipliers
    basis = solve(make_pde((1, 0), parse_expr(rhs)), ansatz)
    assert len(basis) == 4
    printed = "\n".join(map(format_expr, basis))
    assert hashlib.sha256(printed.encode()).hexdigest() == digest


def test_kdv5_symmetry_report_matches_pinned_digest(capsys):
    # the heaviest solve in the tests: restrict rewrites the Leibniz
    # pieces of KdV5 for 84 jet parts.  The report is pinned by its
    # sha256
    argv = ["-s", os.path.join(DATA, "kdv5.session"), "symmetries", *ANSATZ.format(2).split()]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "dimension = 3" in out.splitlines()
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "acd32fdbed1823cdb760fce376f7bd42638a1a77ca198e4fac63cb94532c3f55"
    )
