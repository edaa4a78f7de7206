"""Command line driver.

A session file declares the PDE and optional defaults:

    # KdV
    lead = u_t
    rhs = -u*u_x - u_xxx
    name energy = u^2/2 + u_xx
    order = 2
    jet-degree = 2

Recognized keys: lead, rhs (required), order, jet-degree, t-degree,
x-degree (ansatz bounds, default 1), and name <id> = <expr> for named
expressions.  Anywhere a subcommand takes an expression, a session name
may be given instead.

Reports are printed as 'key = value' lines, one per field, expressions
in the canonical grammar; every report begins with the command, lead
and rhs lines.  Exit status: 0 when the command computed a result (or
answered yes), 1 when the mathematical answer is no (check-conslaw
fails, classify finds no homogeneity), 2 for usage, parse, or
precondition errors, each reported on one 'error:' line.  -h or --help,
before or after the command, lists every command and flag.
"""

from __future__ import annotations

import re
import sys
from types import SimpleNamespace
from typing import NamedTuple, NoReturn

from .conslaw import (
    Ansatz,
    current_from_multiplier,
    is_trivial_current,
    multiplier_from_current,
    solve_multipliers,
    verify_conservation_law,
)
from .errors import JetLawError, SessionError
from .expr import DiffExpr, JetIndex
from .grammar import format_expr, parse_expr
from .soln import NormalPDE, make_pde, restrict
from .symmetry import (
    act_on_current,
    act_on_multiplier,
    action_matrix,
    classify,
    psi_current,
    solve_symmetries,
)

_NAME_LINE = re.compile(r"^name\s+([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.*)$")
# (Ansatz field, session key and flag, help) of each ansatz bound
_ANSATZ_FIELDS = (
    ("max_order", "order", "max differential order of the ansatz"),
    ("max_jet_degree", "jet-degree", "max total degree in the jets"),
    ("max_t_degree", "t-degree", "max degree in t"),
    ("max_x_degree", "x-degree", "max degree in x"),
)
_ANSATZ_KEYS = {key: field for field, key, _ in _ANSATZ_FIELDS}
# the variables t, x, u and the jets u_t, u_xx, ... that a name would shadow
_RESERVED = re.compile(r"[txu]|u_[tx]+")


class Session(NamedTuple):
    pde: NormalPDE
    names: dict[str, DiffExpr]
    ansatz: Ansatz


def _parse_lead(text: str) -> JetIndex:
    terms = parse_expr(text).sorted_terms()
    if len(terms) == 1 and terms[0][1] == 1:
        t_deg, x_deg, jets = terms[0][0].key
        if t_deg == x_deg == 0 and len(jets) == 1 and jets[0][2] == 1:
            return JetIndex(*jets[0][:2])
    raise SessionError(f"lead must be a single jet variable, got {text!r}")


def load_session(path: str) -> Session:
    try:
        with open(path, encoding="utf-8") as fh:
            raw_lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as ex:
        raise SessionError(f"cannot read session file {path}: {ex}") from ex
    lead = rhs = None
    names: dict[str, DiffExpr] = {}
    ansatz_kw: dict[str, int] = {}
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _NAME_LINE.match(line)
        if m:
            ident, value = m.group(1), m.group(2)
            if _RESERVED.fullmatch(ident):
                raise SessionError(
                    f"line {lineno}: name {ident!r} shadows a variable"
                )
            names[ident] = parse_expr(value)
            continue
        if "=" not in line:
            raise SessionError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "lead":
            lead = _parse_lead(value)
        elif key == "rhs":
            rhs = parse_expr(value)
        elif key in _ANSATZ_KEYS:
            try:
                ansatz_kw[_ANSATZ_KEYS[key]] = int(value)
            except ValueError:
                raise SessionError(f"line {lineno}: {key} must be an integer")
        else:
            raise SessionError(f"line {lineno}: unknown key {key!r}")
    if lead is None or rhs is None:
        raise SessionError("session must define both 'lead' and 'rhs'")
    return Session(pde=make_pde(lead, rhs), names=names, ansatz=Ansatz(**ansatz_kw))


def _resolve(text: str, session: Session) -> DiffExpr:
    s = text.strip()
    if s in session.names:
        return session.names[s]
    return parse_expr(s)


def _ansatz_from_args(args, session: Session) -> Ansatz:
    kw = {}
    for field, key, _ in _ANSATZ_FIELDS:
        v = getattr(args, key.replace("-", "_"))
        kw[field] = v if v is not None else getattr(session.ansatz, field)
    return Ansatz(**kw)


def _header(cmd: str, session: Session) -> list[tuple[str, str]]:
    return [("command", cmd), ("lead", str(session.pde.lead)), ("rhs", format_expr(session.pde.rhs))]


def _ansatz_lines(ansatz: Ansatz) -> list[tuple[str, str]]:
    return [(key, str(getattr(ansatz, field))) for field, key, _ in _ANSATZ_FIELDS]


def _current(args, session: Session) -> tuple[DiffExpr, DiffExpr]:
    """The current (T, X) that --T and --X name."""
    return _resolve(args.T, session), _resolve(args.X, session)


def _current_lines(cur) -> list[tuple[str, str]]:
    return [("T", format_expr(cur.T)), ("X", format_expr(cur.X))]


def _basis_lines(basis: list[DiffExpr]) -> list[tuple[str, str]]:
    return [("dimension", str(len(basis)))] + [
        (f"basis[{i}]", format_expr(b)) for i, b in enumerate(basis)
    ]


def _truth(flag: bool) -> str:
    return "true" if flag else "false"


# each handler returns its exit code and its report lines, after the header
def _cmd_check_conslaw(args, session: Session):
    ok = verify_conservation_law(_current(args, session), session.pde)
    return (0 if ok else 1), [("verdict", _truth(ok))]


def _cmd_multiplier_of(args, session: Session):
    q = multiplier_from_current(_current(args, session), session.pde)
    return 0, [("Q", format_expr(q)), ("trivial", _truth(restrict(q, session.pde).is_zero))]


def _cmd_solve(args, session: Session):
    """The multipliers or symmetries command, as args.cmd names."""
    solve = solve_multipliers if args.cmd == "multipliers" else solve_symmetries
    ansatz = _ansatz_from_args(args, session)
    return 0, _ansatz_lines(ansatz) + _basis_lines(solve(session.pde, ansatz))


def _cmd_current(args, session: Session):
    return 0, _current_lines(current_from_multiplier(_resolve(args.Q, session), session.pde))


def _cmd_act(args, session: Session):
    p = _resolve(args.P, session)
    if args.Q is not None:
        if args.T is not None or args.X is not None:
            raise SessionError("give either --Q or both --T and --X, not both")
        q = act_on_multiplier(p, _resolve(args.Q, session), session.pde)
        return 0, [("Q", format_expr(q))]
    if args.T is None or args.X is None:
        raise SessionError("act needs --Q, or both --T and --X")
    return 0, _current_lines(act_on_current(p, _current(args, session), session.pde))


def _cmd_psi(args, session: Session):
    cur = psi_current(_resolve(args.P, session), _resolve(args.Q, session), session.pde)
    return 0, _current_lines(cur) + [("trivial", _truth(is_trivial_current(cur, session.pde)))]


def _cmd_classify(args, session: Session):
    p, q = _resolve(args.P, session), _resolve(args.Q, session)
    res = classify(p, q, session.pde, strict_off_e=args.strict_off_e)
    lines = [("verdict", res.verdict)]
    if res.lam is not None:
        lines.append(("lambda", str(res.lam)))
    lines.append(("action", format_expr(res.action)))
    return (0 if res.verdict != "NotHomogeneous" else 1), lines


def _cmd_action_matrix(args, session: Session):
    p = _resolve(args.P, session)
    if args.basis:
        basis = [_resolve(s, session) for s in args.basis.split(";")]
        lines = []
    else:
        ansatz = _ansatz_from_args(args, session)
        basis = solve_multipliers(session.pde, ansatz)
        lines = _ansatz_lines(ansatz)
    result = action_matrix(p, basis, session.pde)
    n = len(basis)
    lines += _basis_lines(basis)
    lines += [(f"matrix[{i}][{j}]", str(result.matrix[i, j])) for i in range(n) for j in range(n)]
    pairs = [(lam, vec) for lam, vectors in result.eigenpairs for vec in vectors]
    for e, (lam, vec) in enumerate(pairs):
        lines.append((f"eigenvalue[{e}]", str(lam)))
        lines.append((f"eigenvector[{e}]", ", ".join(str(c) for c in vec)))
        combo = sum((c * b for c, b in zip(vec, basis)), DiffExpr())
        lines.append((f"eigenmultiplier[{e}]", format_expr(combo)))
    return 0, lines


# The command table: each command's handler, help line and flags, each
# flag "required" or "optional" (an expression), "int" (an ansatz bound)
# or "bool".  Every command, and jetlaw itself, also takes -h/--help.
_ANSATZ_FLAGS = {f"--{key}": "int" for _, key, _ in _ANSATZ_FIELDS}
_CURRENT_FLAGS = {"--T": "required", "--X": "required"}
_COMMANDS = {
    "check-conslaw": (_cmd_check_conslaw, "verify a conserved current", _CURRENT_FLAGS),
    "multiplier-of": (_cmd_multiplier_of, "multiplier of a conserved current", _CURRENT_FLAGS),
    "multipliers": (_cmd_solve, "solve for all multipliers in an ansatz", _ANSATZ_FLAGS),
    "symmetries": (_cmd_solve, "solve for all symmetry characteristics in an ansatz", _ANSATZ_FLAGS),
    "current": (_cmd_current, "conserved current of a multiplier", {"--Q": "required"}),
    "act": (_cmd_act, "apply a symmetry to a multiplier or a current",
            {"--P": "required", "--Q": "optional", "--T": "optional", "--X": "optional"}),
    "psi": (_cmd_psi, "boundary current of a symmetry and an adjoint-symmetry",
            {"--P": "required", "--Q": "required"}),
    "classify": (_cmd_classify, "classify a multiplier under a symmetry",
                 {"--P": "required", "--Q": "required", "--strict-off-e": "bool"}),
    "action-matrix": (_cmd_action_matrix, "matrix of a symmetry action on a multiplier space",
                      {"--P": "required", "--basis": "optional", **_ANSATZ_FLAGS}),
}
_TOP_FLAGS = {"--session": "required"}
_NOTES = {"--P": "symmetry characteristic", "--Q": "multiplier or adjoint-symmetry",
          "--T": "density of the current", "--X": "flux of the current",
          "--basis": "semicolon-separated multipliers (default: solve the ansatz)",
          "--strict-off-e": "compare off the solution space",
          **{f"--{key}": text for _, key, text in _ANSATZ_FIELDS}}
# the exact spellings that take the next token as their value, whatever it is
_VALUE_FLAGS = {f for _, _, flags in _COMMANDS.values() for f, kind in flags.items() if kind != "bool"}
# tokens that argparse reads as negative numbers, values rather than flags
_NEGATIVE = re.compile(r"-\d+|-\d*\.\d+")


def _help() -> str:
    lines = ["usage: jetlaw -s PATH COMMAND [FLAG ...]", "",
             "conservation laws of scalar PDEs by the multiplier method", "",
             f"  {'-s, --session PATH':<20}session file defining the PDE (required)",
             f"  {'-h, --help':<20}show this help and exit", "", "commands:"]
    for name, (_, text, flags) in _COMMANDS.items():
        lines.append(f"  {name:<20}{text}")
        for flag, kind in flags.items():
            spelled = flag + {"bool": "", "int": " N"}.get(kind, " EXPR")
            lines.append(f"    {spelled:<18}{_NOTES[flag]}{' (required)' if kind == 'required' else ''}")
    return "\n".join(lines)


def _usage_error(msg: str) -> NoReturn:
    print(f"error: usage: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _match(tok: str, flags: dict):
    """How argparse reads tok among flags and --help: None for a value or
    a command, else (flag, the value attached to it or None), with flag
    None for an unknown flag.  A long flag may be abbreviated."""
    if tok[:1] != "-" or tok == "-":
        return None
    if tok[1] != "-":  # -s PATH, -sPATH, -s=PATH
        flag = {"-h": "--help", "-s": "--session"}.get(tok[:2])
        if flag == "--help" or flag in flags:
            rest = tok[2:]
            return flag, rest[1:] if rest[:1] == "=" else rest or None
    else:
        head, eq, value = tok.partition("=")
        names = [*flags, "--help"]
        found = [f for f in names if f == head] or [f for f in names if f.startswith(head)]
        if len(found) > 1:
            _usage_error(f"ambiguous option: {tok}")
        if found:
            return found[0], value if eq else None
    return None if _NEGATIVE.fullmatch(tok) or " " in tok else (None, None)


def _join_dash_values(argv: list[str]) -> list[str]:
    """Turn ['--Q', '-u_x'] into ['--Q=-u_x'], so that a value starting
    with a minus sign is not read as a flag."""
    out = []
    for tok in argv:
        if out and out[-1] in _VALUE_FLAGS and tok[:1] == "-" and tok != "-":
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """Read argv, after _join_dash_values, against the command table as
    argparse read it: the last of a repeated flag wins, --help answers
    when it is reached, and a usage error exits 2 with one line."""
    args = SimpleNamespace(session=None)
    flags, seen, strays, i = _TOP_FLAGS, set(), [], 0
    while i < len(argv):
        tok = argv[i]
        i += 1
        if tok == "--":  # every token after it is a positional
            strays += argv[i - 1:]
            break
        m = _match(tok, flags)
        if m is None and flags is _TOP_FLAGS:
            if tok not in _COMMANDS:
                _usage_error(f"invalid choice: {tok!r} (choose from {', '.join(_COMMANDS)})")
            args.cmd, (args.func, _, flags) = tok, _COMMANDS[tok]
            for flag, kind in flags.items():
                setattr(args, flag[2:].replace("-", "_"), False if kind == "bool" else None)
        elif m is None or m[0] is None:
            strays.append(tok)
        else:
            flag, value = m
            kind = "bool" if flag == "--help" else flags[flag]
            if kind == "bool":
                if value is not None:
                    _usage_error(f"argument {flag}: ignored explicit argument {value!r}")
                if flag == "--help":
                    print(_help())
                    raise SystemExit(0)
                value = True
            elif value is None:
                if i == len(argv) or argv[i] == "--" or _match(argv[i], flags) is not None:
                    _usage_error(f"argument {flag}: expected one argument")
                value, i = argv[i], i + 1
            if kind == "int":
                try:
                    value = int(value)
                except ValueError:
                    _usage_error(f"argument {flag}: invalid int value: {value!r}")
            setattr(args, flag[2:].replace("-", "_"), value)
            seen.add(flag)
    missing = [f for f, kind in {**_TOP_FLAGS, **flags}.items() if kind == "required" and f not in seen]
    missing += [] if hasattr(args, "cmd") else ["COMMAND"]
    if missing:
        _usage_error(f"the following arguments are required: {', '.join(missing)}")
    if strays:
        _usage_error(f"unrecognized arguments: {' '.join(strays)}")
    return args


def build_parser() -> SimpleNamespace:
    """The parser: parse_args(argv), as argparse's parser has it."""
    return SimpleNamespace(parse_args=_parse_args)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(_join_dash_values(list(argv)))
    except SystemExit as ex:
        return ex.code
    try:
        session = load_session(args.session)
        header = _header(args.cmd, session)
        code, lines = args.func(args, session)
    except JetLawError as ex:
        print(f"error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return 2
    except Exception as ex:  # exit 1 is reserved for "the answer is no"
        print(f"error: internal: {type(ex).__name__}: {ex}", file=sys.stderr)
        return 2
    for key, value in header + lines:
        print(f"{key} = {value}")
    return code


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
