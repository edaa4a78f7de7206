"""Seeded fuzzing of the command line.  Session files and expressions
are mutated token by token (literal sizes, exponents, jet orders,
nesting, chains of products, powers of high jets, nested powers past
the kernel's exponent cap, products of large sums), a quarter of the
command lines too (dropped, repeated and abbreviated flags, = forms,
-- and stray tokens), and every command must end with exit code 0, 1
or 2 and never report an internal error, all within a wall-clock
budget."""

import random
import re
import signal
import time

from jetlaw.cli import main

SEED = 2026
CASES = 150
BUDGET_S = 2.0

SESSION = """# KdV
lead = u_t
rhs = -u*u_x - u_xxx
name mass = u
name energy = u_xx + u^2/2
name galilean = 1 - t*u_x
order = 2
jet-degree = 2
t-degree = 1
x-degree = 1
"""

TOKENS = [
    "0", "1", "2", "3", "64", "65", "255", "256", "257", "9" * 60, "9" * 5000,
    "u", "u_t", "u_x", "u_xx", "u_txt", "u_" + "x" * 64, "u_" + "x" * 65,
    "u[0,0]", "u[1,2]", "u[64,0]", "u[65,0]", "u[", "]", ",",
    "t", "x", "mass", "energy", "galilean",
    "+", "-", "*", "/", "^", "(", ")", "@", "u_", "1.5", "uu",
    "3/7", "5/11", "1/1024",
]
# the second row holds fractional expressions with coprime denominators,
# valid and not, so that the queries meet inputs with a common
# denominator d > 1 on their valid and their error paths
EXPRESSIONS = [
    "u", "u_x", "u^2/2 + u_xx", "1 - t*u_x", "x - t*u", "3*t*u_t + x*u_x + 2*u", "mass", "energy",
    "u/9 + u_xx/13", "3/7*u_xx + 3/14*u^2", "1/1024 - t*u_x/1024", "5/11*u_x", "x/3 - t*u/3",
]
LEADS = ["u_t", "u_tt", "u_tx", "u_x", "u", "2*u_t", "u_t^2", "u[1,0]", "u_t + u", "t", "0"]
ANSATZ_VALUES = ["0", "1", "2", "-1", "x", "", "99999", "1" * 50]
# jets at or near the order cap, whose powers make total derivatives
# build terms without end
HIGH_JETS = ["u[64,0]", "u[0,64]", "u[60,4]", "u_" + "x" * 60]
# nested powers of one factor, which the grammar prices as one product
# each; exponents and degrees above 2^15 - 1 overflow the kernel's
# monomial fields, and the last two stay just below that cap
NESTED = ["(u^256)^256", "(t^256)^256*u", "((u_x^16)^16)^128", "(u^128)^255", "(x^255)^128*u_x"]
# a product of two sums of 300 monomials: the parser accepts its 90,000
# terms; current refuses the product Q G, and act the products c_K Q
# of G'*(Q), priced together, before building any of them
LARGE_PRODUCT = "({})*({})".format(
    "+".join(f"t^{i}*x^{j}" for i in range(20) for j in range(15)),
    "+".join(f"u^{i + 1}*u_x^{j}" for i in range(20) for j in range(15)),
)


def _mutate_tokens(rng, text):
    toks = re.findall(r"\w+|\S", text)
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(4)
        i = rng.randrange(len(toks) + 1)
        if op == 0 and toks:
            toks[min(i, len(toks) - 1)] = rng.choice(TOKENS)
        elif op == 1:
            toks.insert(i, rng.choice(TOKENS))
        elif op == 2 and toks:
            del toks[min(i, len(toks) - 1)]
        else:
            toks[i:i] = [rng.choice(["^", "*"]), rng.choice(TOKENS)]
    return " ".join(toks)


def _expression(rng):
    """A valid expression, a token mutation of one, or one of the shapes
    the grammar or the kernel bounds: deep nesting, large exponents, long
    literals, chains of products each under the product bound and nested
    powers."""
    base = rng.choice(EXPRESSIONS)
    shape = rng.randrange(7)
    if shape == 0:
        return base
    if shape == 1:
        depth = rng.choice([5, 50, 400, 3000])
        return "(" * depth + base + ")" * depth
    if shape == 2:
        return f"({base})^{rng.choice([0, 1, 3, 64, 256, 257, 10**6])}"
    if shape == 3:
        return f"{rng.choice(['1', '3/7', '1/1024', '7' * 300, '9' * 4301])}*({base})"
    if shape == 4:
        factors = [f"({rng.choice(EXPRESSIONS)} + {rng.randint(1, 9)})" for _ in range(rng.randint(2, 6))]
        return "*".join(factors)
    if shape == 5:
        return rng.choice([rng.choice(NESTED), f"{rng.choice(NESTED)}*({base})"])
    return _mutate_tokens(rng, base)


def _multiplier(rng, large=False):
    """An expression for --Q: now and then a power, exponent 2 to 8, of
    a high jet.  Refusing one runs the total derivatives up to the
    product bound, which takes a good part of a second, so they are
    rare.  With large set, one in four is LARGE_PRODUCT."""
    if large and not rng.randrange(4):
        return LARGE_PRODUCT
    if rng.randrange(12):
        return _expression(rng)
    return f"{rng.choice(HIGH_JETS)}^{rng.randint(2, 8)}"


def _session(rng):
    lines = SESSION.splitlines()
    for _ in range(rng.choice([0, 0, 1, 2])):
        i = rng.randrange(len(lines))
        key, _, value = lines[i].partition("=")
        op = rng.randrange(6)
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[i])
        elif op == 2 and key.strip() == "lead":
            lines[i] = f"lead = {rng.choice(LEADS)}"
        elif op == 2 and key.strip() in ("rhs", "name mass", "name energy", "name galilean"):
            lines[i] = f"{key}= {_mutate_tokens(rng, value)}"
        elif op == 3 and key.strip() in ("order", "jet-degree", "t-degree", "x-degree"):
            lines[i] = f"{key}= {rng.choice(ANSATZ_VALUES)}"
        elif op == 4:
            lines[i] = rng.choice(["foo = 1", "name u = t", "name 1x = u", "lead", "= u", "rhs = "])
        else:
            lines[i] = _mutate_tokens(rng, lines[i])
    return "\n".join(lines) + "\n"


def _command(rng):
    e = lambda: _expression(rng)
    q = lambda: _multiplier(rng)
    large_q = lambda: _multiplier(rng, large=True)
    small = ["--order", str(rng.randint(0, 2)), "--jet-degree", str(rng.randint(0, 2)),
             "--t-degree", str(rng.randint(0, 1)), "--x-degree", str(rng.randint(0, 1))]
    return rng.choice([
        lambda: ["check-conslaw", "--T", e(), "--X", e()],
        lambda: ["multiplier-of", "--T", e(), "--X", e()],
        lambda: ["current", "--Q", large_q()],
        lambda: ["act", "--P", e(), "--Q", large_q()],
        lambda: ["act", "--P", e(), "--T", e(), "--X", e()],
        lambda: ["psi", "--P", e(), "--Q", q()],
        lambda: ["classify", "--P", e(), "--Q", e()] + rng.choice([[], ["--strict-off-e"]]),
        lambda: ["action-matrix", "--P", e(), "--basis", f"{e()};{e()}"],
        lambda: ["action-matrix", "--P", e()] + small,
        lambda: [rng.choice(["multipliers", "symmetries"])] + small,
    ])()


def _mutate_argv(rng, argv):
    """Drop a token, repeat or abbreviate a flag, join a flag to its
    value with =, or add -- or a stray token, once or twice."""
    argv = list(argv)
    for _ in range(rng.randint(1, 2)):
        flags = [i for i, tok in enumerate(argv) if tok.startswith("-") and len(tok) > 2]
        i = rng.choice(flags) if flags else 0
        op = rng.randrange(6)
        if op == 0 and argv:
            del argv[rng.randrange(len(argv))]
        elif op == 1 and flags:
            argv += argv[i : i + 2]
        elif op == 2 and flags:
            argv[i] = argv[i][: rng.randint(3, len(argv[i]))]
        elif op == 3 and flags and i + 1 < len(argv):
            argv[i : i + 2] = [f"{argv[i]}={argv[i + 1]}"]
        elif op == 4:
            argv.insert(rng.randint(0, len(argv)), "--")
        else:
            argv.insert(rng.randint(0, len(argv)), rng.choice(["stray", "-x", "--bogus", "-1", "-", "--help"]))
    return argv


class _OverBudget(BaseException):
    """Raised by the alarm; not an Exception, so that the CLI's handler
    for internal errors does not swallow it."""


def _alarm(signum, frame):
    raise _OverBudget


def test_fuzzed_commands_exit_cleanly(tmp_path, capsys):
    rng = random.Random(SEED)
    path = tmp_path / "fuzz.session"
    case = None
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    start = time.perf_counter()
    try:
        for i in range(CASES):
            path.write_text(_session(rng))
            argv = ["-s", str(path)] + _command(rng)
            if not rng.randrange(4):
                argv = _mutate_argv(rng, argv)
            case = (i, path.read_text(), argv)
            code = main(argv)
            err = capsys.readouterr().err
            assert code in (0, 1, 2), case
            assert "error: internal:" not in err, (case, err)
    except _OverBudget:
        raise AssertionError(f"over the {BUDGET_S} s budget at case {case}") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < BUDGET_S
