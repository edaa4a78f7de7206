import collections
import contextlib
import io
import os
import random
import time

from helpers import forbid_huge_powers_and_jets
from jetlaw import cli
from jetlaw.cli import load_session, main

DATA = os.path.join(os.path.dirname(__file__), "data")
KDV_SESSION = os.path.join(DATA, "kdv.session")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_session(tmp_path, text):
    path = tmp_path / "eq.session"
    path.write_text(text)
    return str(path)


def test_load_session_names_and_ansatz():
    session = load_session(KDV_SESSION)
    assert str(session.pde) == "u_t = -u_xxx - u*u_x"
    assert set(session.names) == {"mass", "energy", "galilean"}
    assert session.ansatz.max_order == 2
    assert session.ansatz.max_jet_degree == 2


def test_session_errors(tmp_path, capsys):
    # missing rhs
    path = write_session(tmp_path, "lead = u_t\n")
    code, _, err = run(capsys, "-s", path, "multipliers")
    assert code == 2 and "SessionError" in err

    # unknown key
    path = write_session(tmp_path, "lead = u_t\nrhs = u_xx\nfoo = 1\n")
    code, _, err = run(capsys, "-s", path, "multipliers")
    assert code == 2 and "foo" in err

    # lead must be a single jet
    path = write_session(tmp_path, "lead = 2*u_t\nrhs = u_xx\n")
    code, _, err = run(capsys, "-s", path, "multipliers")
    assert code == 2

    # lead must be solved for a t-derivative
    path = write_session(tmp_path, "lead = u_x\nrhs = u\n")
    code, _, err = run(capsys, "-s", path, "multipliers")
    assert code == 2 and "NotNormal" in err

    # names must not shadow the built-in variables
    path = write_session(tmp_path, "lead = u_t\nrhs = u_xx\nname u = t\n")
    code, _, err = run(capsys, "-s", path, "multipliers")
    assert code == 2

    # nor a jet: `--Q u_xx` would answer for the name, `--Q "u_xx + 0"`
    # for the jet
    for name in ("u_xx", "u_t", "u_txt"):
        path = write_session(tmp_path, f"lead = u_t\nrhs = u_xx\nname {name} = u\n")
        code, out, err = run(capsys, "-s", path, "current", "--Q", name)
        assert (code, out) == (2, "")
        assert err == f"error: SessionError: line 3: name {name!r} shadows a variable\n"
    path = write_session(tmp_path, "lead = u_t\nrhs = u_xx\nname u_xy = u\nname ux = u\n")
    assert set(load_session(path).names) == {"u_xy", "ux"}

    # missing file
    code, _, err = run(capsys, "-s", str(tmp_path / "nope"), "multipliers")
    assert code == 2

    # a file that is not UTF-8
    path = tmp_path / "latin.session"
    path.write_bytes(b"lead = u_t\nrhs = u_xx\n# \xff\n")
    code, out, err = run(capsys, "-s", str(path), "multipliers")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: SessionError: cannot read session file {path}: 'utf-8' codec")


def test_check_conslaw_exit_codes(capsys):
    code, out, _ = run(
        capsys, "-s", KDV_SESSION, "check-conslaw", "--T", "u", "--X", "u_xx + u^2/2"
    )
    assert code == 0
    assert "verdict = true" in out

    code, out, _ = run(capsys, "-s", KDV_SESSION, "check-conslaw", "--T", "u", "--X", "u")
    assert code == 1
    assert "verdict = false" in out


def test_multiplier_of(capsys):
    code, out, _ = run(
        capsys, "-s", KDV_SESSION, "multiplier-of", "--T", "u", "--X", "energy"
    )
    assert code == 0
    assert "Q = 1" in out
    assert "trivial = false" in out

    # a curl current has the zero multiplier
    code, out, _ = run(
        capsys, "-s", KDV_SESSION, "multiplier-of", "--T", "u_x", "--X", "-u_t"
    )
    assert code == 0
    assert "Q = 0" in out
    assert "trivial = true" in out

    code, _, err = run(capsys, "-s", KDV_SESSION, "multiplier-of", "--T", "u", "--X", "u")
    assert code == 2
    assert "NotConserved" in err


def test_multipliers_report_matches_fixture(capsys):
    code, out, _ = run(
        capsys,
        "-s",
        KDV_SESSION,
        "multipliers",
        "--order",
        "2",
        "--jet-degree",
        "2",
        "--t-degree",
        "1",
        "--x-degree",
        "1",
    )
    assert code == 0
    with open(os.path.join(DATA, "report_multipliers.txt")) as fh:
        assert out == fh.read()


def test_session_ansatz_defaults_are_used(capsys):
    # the session file already carries the same ansatz bounds
    code, out, _ = run(capsys, "-s", KDV_SESSION, "multipliers")
    assert code == 0
    assert "dimension = 4" in out
    assert "basis[3] = t*u - x" in out


def test_symmetries_command(capsys):
    code, out, _ = run(
        capsys, "-s", KDV_SESSION, "symmetries", "--order", "1", "--jet-degree", "1"
    )
    assert code == 0
    assert "dimension = 4" in out
    assert "basis[0] = u_x" in out


def test_current_command_resolves_names(capsys):
    code, out, _ = run(capsys, "-s", KDV_SESSION, "current", "--Q", "mass")
    assert code == 0
    assert "T = 1/2*u^2" in out

    code, _, err = run(capsys, "-s", KDV_SESSION, "current", "--Q", "u_x")
    assert code == 2
    assert "NotAMultiplier" in err


def test_act_command_multiplier_and_current(capsys):
    code, out, _ = run(capsys, "-s", KDV_SESSION, "act", "--P", "galilean", "--Q", "mass")
    assert code == 0
    assert "Q = 1" in out

    code, out, _ = run(
        capsys, "-s", KDV_SESSION, "act", "--P", "-u_x", "--T", "u", "--X", "energy"
    )
    assert code == 0
    assert "T = -u_x" in out

    # u_xx is not a symmetry, and (u, u) is not a conserved current
    code, out, err = run(
        capsys, "-s", KDV_SESSION, "act", "--P", "u_xx", "--T", "u", "--X", "u^2/2 + u_xx"
    )
    assert (code, out) == (2, "")
    assert "NotASymmetry: determining equation fails for P = u_xx" in err
    code, out, err = run(capsys, "-s", KDV_SESSION, "act", "--P", "-u_x", "--T", "u", "--X", "u")
    assert (code, out) == (2, "")
    assert "NotConserved: not conserved: D_t T + D_x X = u_t + u_x off" in err

    code, _, err = run(capsys, "-s", KDV_SESSION, "act", "--P", "-u_x")
    assert code == 2
    code, _, err = run(
        capsys, "-s", KDV_SESSION, "act", "--P", "-u_x", "--Q", "u", "--T", "u", "--X", "u"
    )
    assert code == 2


def test_psi_command(capsys):
    code, out, _ = run(capsys, "-s", KDV_SESSION, "psi", "--P", "-u_x", "--Q", "mass")
    assert code == 0
    assert "trivial = true" in out

    code, out, _ = run(capsys, "-s", KDV_SESSION, "psi", "--P", "galilean", "--Q", "mass")
    assert code == 0
    assert "trivial = false" in out


def test_classify_command(capsys):
    code, out, _ = run(capsys, "-s", KDV_SESSION, "classify", "--P", "-u_x", "--Q", "u")
    assert code == 0
    with open(os.path.join(DATA, "report_classify_translation.txt")) as fh:
        assert out == fh.read()

    scaling = "-2*u - 3*t*u_t - x*u_x"
    code, out, _ = run(capsys, "-s", KDV_SESSION, "classify", "--P", scaling, "--Q", "energy")
    assert code == 0
    assert "verdict = Homogeneous" in out
    assert "lambda = -5" in out

    code, out, _ = run(capsys, "-s", KDV_SESSION, "classify", "--P", "galilean", "--Q", "u")
    assert code == 1
    assert "verdict = NotHomogeneous" in out

    code, out, _ = run(
        capsys, "-s", KDV_SESSION, "classify", "--P", scaling, "--Q", "energy",
        "--strict-off-e",
    )
    assert code == 0
    assert "lambda = -5" in out


def test_action_matrix_with_explicit_basis(capsys):
    code, out, _ = run(
        capsys,
        "-s",
        KDV_SESSION,
        "action-matrix",
        "--P",
        "galilean",
        "--basis",
        "1;u;t*u - x",
    )
    assert code == 0
    assert "dimension = 3" in out
    assert "matrix[0][1] = 1" in out
    assert "matrix[1][1] = 0" in out
    assert "eigenvalue[0] = 0" in out

    code, _, err = run(
        capsys, "-s", KDV_SESSION, "action-matrix", "--P", "galilean", "--basis", "u"
    )
    assert code == 2
    assert "NotClosed" in err


def test_dash_values_are_accepted(capsys):
    # leading-minus expression values work in both flag spellings
    for argv in (
        ["-s", KDV_SESSION, "classify", "--P", "-u_x", "--Q", "u"],
        ["-s", KDV_SESSION, "classify", "--P=-u_x", "--Q", "u"],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "verdict = Invariant" in out


def test_parse_errors_exit_2(capsys):
    code, _, err = run(capsys, "-s", KDV_SESSION, "current", "--Q", "u +")
    assert code == 2
    assert "error:" in err

    code, _, err = run(capsys, "-s", KDV_SESSION, "current", "--Q", "1/u")
    assert code == 2
    assert "NonPolynomial" in err

    # deep nesting is a syntax error, not a RecursionError traceback
    for deep in ("(" * 3000 + "u" + ")" * 3000, "-" * 5000 + "u"):
        code, out, err = run(capsys, "-s", KDV_SESSION, "current", "--Q", deep)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ExprSyntaxError: expression nested too deeply")
        assert err.count("\n") == 1


def test_huge_exponents_and_jet_orders_exit_2(capsys, monkeypatch):
    # rejected by the parser before the power or the jet is built
    forbid_huge_powers_and_jets(monkeypatch)
    for q in ("(u+u_x)^5000", "u[999999999,0]", "u_" + "x" * 100000):
        code, out, err = run(capsys, "-s", KDV_SESSION, "current", "--Q", q)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ExprSyntaxError: ")
        assert "exceeds" in err and err.count("\n") == 1


def test_huge_literals_and_expansions_exit_2(capsys):
    # an over-long literal is a syntax error, not an internal ValueError;
    # an expansion too large to build is rejected by the parser, with
    # its position, before the kernel would refuse it
    for q, msg in (
        ("9" * 5000 + "*u", "integer literal exceeds 4300 digits"),
        ("(u+u_x+u_xx+u_t+t+x)^40", "expansion exceeds 250000 term products"),
    ):
        code, out, err = run(capsys, "-s", KDV_SESSION, "current", "--Q", q)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ExprSyntaxError: " + msg)
        assert err.count("\n") == 1


def test_oversized_ansatz_exits_2_quickly(capsys):
    # the ansatz is counted before any monomial is built
    for argv in (
        ("multipliers", "--t-degree", "100000"),
        ("multipliers", "--jet-degree", "400"),
        ("symmetries", "--order", "2", "--jet-degree", "60"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, "-s", KDV_SESSION, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert err == "error: AnsatzError: the ansatz has more than 10000 monomials\n"


def test_high_order_jet_powers_exit_2_quickly(capsys):
    # D_t^64 of a power of u[64,0] builds terms without end; the total
    # derivatives price what they build and stop at the kernel's bound,
    # and so does the rewrite of the power onto the solution space
    for argv in (
        ("current", "--Q", "u[64,0]^6"),
        ("act", "--P", "-u_x", "--Q", "u[64,0]^6"),
        ("psi", "--P", "u[64,0]^6", "--Q", "u"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, "-s", KDV_SESSION, *argv)
        assert time.perf_counter() - start < 2
        assert code == 2
        assert out == ""
        assert err == "error: JetLawError: work exceeds 250000 terms\n"


def test_runaway_derivative_chains_exit_2_quickly(tmp_path, capsys):
    # on u_tx = u[0,64] + u_t, each consequence of u[32,32] needs ever
    # higher x-derivatives of the right-hand side; the kernel refuses a
    # step past its jet order bound instead of recursing until the
    # interpreter gives up
    path = write_session(tmp_path, "lead = u_tx\nrhs = u[0,64] + u_t\n")
    for argv in (
        ("check-conslaw", "--T", "u[32,32]", "--X", "0"),
        ("multiplier-of", "--T", "u[32,32]", "--X", "0"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, "-s", path, *argv)
        assert time.perf_counter() - start < 2, argv
        assert code == 2
        assert out == ""
        assert err.startswith("error: JetLawError: ") and err.count("\n") == 1, err
        assert "internal:" not in err


# sums of 300 monomials, whose product of 90,000 terms the parser
# accepts; any product with a PDE of three terms is past the bound
SUM_A = "+".join(f"t^{i}*x^{j}" for i in range(20) for j in range(15))
SUM_B = "+".join(f"u^{i + 1}*u_x^{j}" for i in range(20) for j in range(15))


def test_large_products_exit_2_quickly(capsys):
    # the kernel prices q*G before building it, with the message of the
    # total derivatives and the rewrite above
    for cmd in (["current"], ["act", "--P", "-u_x"], ["classify", "--P", "-u_x"]):
        start = time.perf_counter()
        code, out, err = run(capsys, "-s", KDV_SESSION, *cmd, "--Q", f"({SUM_A})*({SUM_B})")
        assert time.perf_counter() - start < 2, cmd
        assert code == 2
        assert out == ""
        assert err == "error: JetLawError: work exceeds 250000 terms\n", cmd


def test_oversized_coefficients_exit_2(capsys):
    # a result coefficient too long to print is reported on one line,
    # not as an internal ValueError
    q = "(" + "9" * 3000 + ")^2*u"
    code, out, err = run(capsys, "-s", KDV_SESSION, "current", "--Q", q)
    assert code == 2
    assert out == ""
    assert err == "error: JetLawError: coefficient exceeds 4300 digits\n"


def test_internal_errors_exit_2(capsys, monkeypatch):
    # exit 1 means only "the answer is no"; a defect is reported on one line
    def broken(*args):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr("jetlaw.cli.current_from_multiplier", broken)
    code, out, err = run(capsys, "-s", KDV_SESSION, "current", "--Q", "u")
    assert code == 2
    assert out == ""
    assert err == "error: internal: ZeroDivisionError: boom\n"


def test_usage_errors_exit_2(capsys):
    # usage errors exit 2 with one line, not SystemExit
    code, _, err = run(capsys, "-s", KDV_SESSION, "frobnicate")
    assert code == 2
    assert "invalid choice" in err

    for argv in (
        ["-s", KDV_SESSION, "check-conslaw", "--T", "u"],
        ["multipliers"],
        ["-s", KDV_SESSION],
        ["-s"],
        ["-s", KDV_SESSION, "multipliers", "--order", "x"],
        ["-s", KDV_SESSION, "multipliers", "--order"],
        ["-s", KDV_SESSION, "multipliers", "--bogus", "stray"],
        ["-s", KDV_SESSION, "multipliers", "--", "--help"],
        ["-s", KDV_SESSION, "multipliers", "--=1"],
        ["-s", KDV_SESSION, "classify", "--P", "u", "--Q", "u", "--strict=x"],
        # an abbreviated flag takes no value that looks like a flag
        ["-s", KDV_SESSION, "action-matrix", "--P", "u_x", "--bas", "-u"],
        ["--help=x"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: usage: ") and err.count("\n") == 1, argv


def test_bare_double_dash_values_exit_2(capsys):
    # a value of "--" is taken as it stands, as Python 3.13's argparse
    # takes it; earlier argparse turned it into an empty list
    for argv in (
        ("current", "--Q", "--"),
        ("act", "--P", "--", "--Q", "u"),
        ("check-conslaw", "--T", "--", "--X", "u"),
        ("symmetries", "--order", "--"),
        ("action-matrix", "--P", "u_x", "--basis", "--"),
    ):
        code, out, err = run(capsys, "-s", KDV_SESSION, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv
        assert "internal" not in err, argv


def test_help_lists_every_command_and_flag(capsys):
    for argv in (["--help"], ["-h"], ["-s", KDV_SESSION, "act", "--he"], ["multipliers", "-h", "--bogus"]):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        for name, (_, _, flags) in cli._COMMANDS.items():
            assert f"  {name} " in out
            assert all(f"    {flag} " in out for flag in flags)
        assert "-s, --session" in out and "-h, --help" in out


def test_flag_spellings(capsys):
    # prefixes of long flags, = forms, -sPATH, repeated flags (the last
    # wins) and values that start with a minus sign
    for argv in (
        ["--sess", KDV_SESSION, "symmetries", "--ord", "1", "--jet=1"],
        [f"--session={KDV_SESSION}", "symmetries", "--order=0", "--order", "1", "--jet-degree", "1"],
        [f"-s{KDV_SESSION}", "symmetries", "--o", "1", "--j", "1"],
        ["-s", "nope", f"-s={KDV_SESSION}", "symmetries", "--order", "1", "--jet-degree", "-1", "--jet-degree=1"],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        assert "dimension = 4" in out and "basis[0] = u_x" in out, argv
    code, out, _ = run(capsys, "-s", KDV_SESSION, "classify", "--P", "-u_x", "--Q=u", "--strict")
    assert code == 0 and "verdict = Invariant" in out


def _reference_parser():
    """The argparse parser that the command table replaced, kept as the
    reference that the table parser must agree with, argv by argv."""
    import argparse

    parser = argparse.ArgumentParser(prog="jetlaw")
    parser.add_argument("-s", "--session", required=True)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add(name, func, *flags, required=(), ansatz=False):
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(flag, required=flag in required)
        if ansatz:
            for flag in ("--order", "--jet-degree", "--t-degree", "--x-degree"):
                p.add_argument(flag, type=int)
        p.set_defaults(func=func)
        return p

    add("check-conslaw", cli._cmd_check_conslaw, "--T", "--X", required=("--T", "--X"))
    add("multiplier-of", cli._cmd_multiplier_of, "--T", "--X", required=("--T", "--X"))
    add("multipliers", cli._cmd_solve, ansatz=True)
    add("symmetries", cli._cmd_solve, ansatz=True)
    add("current", cli._cmd_current, "--Q", required=("--Q",))
    add("act", cli._cmd_act, "--P", "--Q", "--T", "--X", required=("--P",))
    add("psi", cli._cmd_psi, "--P", "--Q", required=("--P", "--Q"))
    p = add("classify", cli._cmd_classify, "--P", "--Q", required=("--P", "--Q"))
    p.add_argument("--strict-off-e", dest="strict_off_e", action="store_true")
    add("action-matrix", cli._cmd_action_matrix, "--P", "--basis", required=("--P",), ansatz=True)
    return parser


def _reference_join(argv):
    """The step before argparse: ['--Q', '-u_x'] -> ['--Q=-u_x']."""
    value_flags = {"--P", "--Q", "--T", "--X", "--basis", "--order", "--jet-degree", "--t-degree", "--x-degree"}
    out = []
    i = 0
    while i < len(argv):
        if argv[i] in value_flags and i + 1 < len(argv) and argv[i + 1].startswith("-") and len(argv[i + 1]) > 1:
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def _outcome(parse, argv):
    """The attributes parse gives argv, or the exit code it raises, and
    the number of lines it wrote to stderr."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            return vars(parse(argv)), 0
    except SystemExit as ex:
        return ex.code, err.getvalue().count("\n")


VALUES = ["u", "u_x + 1", "mass", "1;u", "x y", "", "-", "-u_x", "-u + t", "-1", "-2.5", "-s x"]
INTS = ["0", "1", "2", "-1", " 3", "1_0", "x", "-u"]
STRAYS = ["stray", "-1", "-x", "--bogus", "--bogus=1", "-h=x", "--strict-off-e=", "--help=", "-s x", "-"]
FLAGS = ["--P", "--Q", "--T", "--X", "--basis", "--order", "--jet-degree", "--t-degree", "--x-degree",
         "--strict-off-e", "--session"]


def _spell(rng, flag, scope):
    """flag, or now and then a prefix of it that no other flag of scope
    shares."""
    cuts = [n for n in range(3, len(flag)) if [f for f in scope if f.startswith(flag[:n])] == [flag]]
    return flag[: rng.choice(cuts)] if cuts and rng.random() < 0.3 else flag


def _draw_argv(rng):
    """An argv of commands, flags in every spelling, values that start
    with a minus sign, repeated and missing flags, flags of other
    commands, unknown flags and stray tokens, none of them a bare --."""
    name = rng.choice([*cli._COMMANDS]) if rng.random() < 0.95 else rng.choice(["frobnicate", "1", "-"])
    table = cli._COMMANDS.get(name, (None, None, {}))[2]
    scope = [*table, "--help"]
    path = rng.choice(["foo.session"] * 6 + ["-1", "-x", "-u + t"])
    parts = [rng.choice([
        ["-s", path], [_spell(rng, "--session", ["--session", "--help"]), path],
        [f"--session={path}"], [f"-s{path}"], [f"-s={path}"],
    ]), [name]]
    flags = [f for f, kind in table.items() if kind == "required" and rng.random() < 0.95]
    flags += rng.choices(scope * 3 + FLAGS, k=rng.randint(0, 3))
    for flag in flags:
        kind = table.get(flag, "optional")
        if flag == "--help" and rng.random() < 0.7:
            continue
        spelled = _spell(rng, flag, scope)
        values = INTS if kind == "int" else VALUES
        if kind == "bool" or flag == "--help" or rng.random() < 0.05:
            parts.append([spelled])
        elif rng.random() < 0.25:
            parts.append([f"{spelled}={rng.choice(values)}"])
        else:
            parts.append([spelled, rng.choice(values)])
    if rng.random() < 0.1:
        parts.insert(rng.randint(0, len(parts)), [rng.choice(STRAYS)])
    if rng.random() < 0.05:
        rng.shuffle(parts)
    if rng.random() < 0.05:
        parts.pop(rng.randrange(len(parts)))
    return [tok for part in parts for tok in part]


def test_parser_agrees_with_argparse():
    # each drawn argv is parsed to the same attributes by both, or sent
    # to help (exit 0) or refused (exit 2) by both; the table parser
    # reports a refusal on one line of stderr and help on none
    rng = random.Random(28)
    reference = _reference_parser()
    counts = collections.Counter()
    for _ in range(2000):
        argv = _draw_argv(rng)
        assert "--" not in argv
        old, _ = _outcome(lambda a: reference.parse_args(_reference_join(a)), argv)
        new, lines = _outcome(lambda a: cli.build_parser().parse_args(cli._join_dash_values(a)), argv)
        assert new == old, argv
        assert lines == (1 if new == 2 else 0), argv
        counts["parsed" if isinstance(old, dict) else old] += 1
    # the draw reaches each outcome often
    assert min(counts[k] for k in ("parsed", 0, 2)) > 50, counts
