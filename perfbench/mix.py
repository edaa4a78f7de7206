"""The queries-mix workload: a seeded stream of library queries, the code
that answers one query, and the checks on each answer.

One client in one long-lived process sends its next query only after the
previous one is answered (a closed loop).  Every query names one of four
PDEs (KdV, fifth-order KdV, Burgers, the cubic wave equation), so it
reuses a PDE object and the derivatives that object memoizes, and no two
queries of a stream are equal.  Its inputs are random combinations, with
small rational coefficients, of frozen multipliers, currents and
symmetries from data/frozen.json.

The generator imports nothing from jetlaw: the program under test sees
only the query texts.  Answers are checked byte for byte against frozen
per-item results combined by linearity -- every query command is linear
in Q and in P (current, multiplier-of, act, psi) or is a fixed function
of a linear one (classify, action-matrix) -- so any seed is checked
without a frozen answer for the query itself.  An action-matrix answer
is checked for its matrix and for every eigenpair and eigenspace it
lists; that it lists every rational eigenvalue is checked only by the
digests of the default seed.  freeze.py writes the per-item tables and
validate.py proves them with the sympy oracle of tests/oracle.py.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
FROZEN_PATH = os.path.join(HERE, "data", "frozen.json")
DIGESTS_PATH = os.path.join(HERE, "data", "queries-seed7.txt")

DEFAULT_SEED = 7
COMMANDS = ("current", "multiplier-of", "act", "psi", "classify", "action-matrix")
# A draw that repeats an earlier query is redrawn; after this many tries in
# a row its (PDE, command) pair leaves the stream.  Burgers has a single
# multiplier, so its current and multiplier-of queries differ only in the
# coefficient: 1780 distinct values last for about 42k queries in all.
_MAX_REDRAWS = 1000


def load_frozen() -> dict:
    with open(FROZEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def load_digests() -> list[str]:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip()]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# -- generator (no jetlaw import) ------------------------------------------


def _combo(rng: random.Random, n: int, top: int, den: int) -> list[tuple[Fraction, int]]:
    """Nonzero coefficients p/q with |p| <= top and q <= den for a random
    nonempty subset of n items."""
    idx = sorted(rng.sample(range(n), rng.randint(1, n)))
    return [(Fraction(rng.randint(1, top) * rng.choice((-1, 1)), rng.randint(1, den)), i) for i in idx]


# Symmetry coefficients stay small: the constant term of an action
# matrix's characteristic polynomial grows with them, and with it the
# divisor search of ratlin.rational_roots.  Multiplier coefficients range
# wider, so that queries on the one-multiplier Burgers basis do not run
# out of distinct values.
def _p_combo(rng, n):
    return _combo(rng, n, 12, 8)


def _q_combo(rng, n):
    return _combo(rng, n, 60, 24)


def _render(combo, texts) -> str:
    return " + ".join(f"{c}*({texts[i]})" for c, i in combo)


def generate(seed: int, frozen: dict):
    """Yield query records; the stream ends only when every (PDE, command)
    pair has run out of distinct queries.  A record holds what the program
    receives ('pde', 'cmd', 'args') and the combinations it was built
    from ('P', 'Q'), which only the checker reads.

    The stream runs in blocks that hold each (PDE, command) pair once, in
    a shuffled order, so that runs of different seeds share one mix and
    differ only in the combinations drawn."""
    rng = random.Random(seed)
    pdes = frozen["pdes"]
    pairs = [(name, cmd) for name in sorted(pdes) for cmd in COMMANDS]
    seen: set[str] = set()
    while pairs:
        rng.shuffle(pairs)
        for pair in list(pairs):
            for _ in range(_MAX_REDRAWS):
                rec = _draw(rng, *pair, pdes[pair[0]])
                key = json.dumps([*pair, rec["args"]], sort_keys=True)
                if key not in seen:
                    seen.add(key)
                    yield rec
                    break
            else:
                pairs.remove(pair)


def _draw(rng: random.Random, name: str, cmd: str, item: dict) -> dict:
    mults, syms = item["multipliers"], item["symmetries"]
    rec = {"pde": name, "cmd": cmd, "args": {}, "P": None, "Q": None}
    if cmd in ("act", "psi", "classify", "action-matrix"):
        rec["P"] = _p_combo(rng, len(syms))
        rec["args"]["P"] = _render(rec["P"], syms)
    if cmd in ("current", "act", "psi", "classify"):
        rec["Q"] = _q_combo(rng, len(mults))
        rec["args"]["Q"] = _render(rec["Q"], mults)
    if cmd == "multiplier-of":
        rec["Q"] = _q_combo(rng, len(mults))
        rec["args"]["T"] = _render(rec["Q"], [c[0] for c in item["currents"]])
        rec["args"]["X"] = _render(rec["Q"], [c[1] for c in item["currents"]])
    if cmd == "action-matrix":
        rec["args"]["basis"] = ";".join(mults)
    return rec


def program_input(rec: dict) -> str:
    """The one-line text the worker receives for a query."""
    return json.dumps({"pde": rec["pde"], "cmd": rec["cmd"], "args": rec["args"]})


# -- executor (runs in the worker) -----------------------------------------


def build_pdes(frozen: dict) -> dict:
    from jetlaw import parse_expr
    from jetlaw.soln import make_pde

    return {
        name: make_pde(tuple(item["lead"]), parse_expr(item["rhs"]))
        for name, item in frozen["pdes"].items()
    }


def execute(query: dict, pdes: dict) -> list[tuple[str, str]]:
    """Answer one query through the public library API: parse the
    inputs, make one call, format the result as report lines."""
    from jetlaw import format_expr, parse_expr
    from jetlaw.conslaw import (
        current_from_multiplier,
        is_trivial_current,
        multiplier_from_current,
    )
    from jetlaw.soln import restrict
    from jetlaw.symmetry import act_on_multiplier, action_matrix, classify, psi_current

    pde = pdes[query["pde"]]
    cmd, a = query["cmd"], query["args"]
    if cmd == "current":
        cur = current_from_multiplier(parse_expr(a["Q"]), pde)
        return [("T", format_expr(cur.T)), ("X", format_expr(cur.X))]
    if cmd == "multiplier-of":
        q = multiplier_from_current((parse_expr(a["T"]), parse_expr(a["X"])), pde)
        trivial = restrict(q, pde).is_zero
        return [("Q", format_expr(q)), ("trivial", "true" if trivial else "false")]
    p = parse_expr(a["P"])
    if cmd == "act":
        return [("Q", format_expr(act_on_multiplier(p, parse_expr(a["Q"]), pde)))]
    if cmd == "psi":
        cur = psi_current(p, parse_expr(a["Q"]), pde)
        trivial = is_trivial_current(cur, pde)
        return [
            ("T", format_expr(cur.T)),
            ("X", format_expr(cur.X)),
            ("trivial", "true" if trivial else "false"),
        ]
    if cmd == "classify":
        res = classify(p, parse_expr(a["Q"]), pde)
        lines = [("verdict", res.verdict)]
        if res.lam is not None:
            lines.append(("lambda", str(res.lam)))
        lines.append(("action", format_expr(res.action)))
        return lines
    if cmd == "action-matrix":
        basis = [parse_expr(s) for s in a["basis"].split(";")]
        result = action_matrix(p, basis, pde)
        n = len(basis)
        lines = [("dimension", str(n))]
        lines += [(f"matrix[{i}][{j}]", str(result.matrix[i, j])) for i in range(n) for j in range(n)]
        e = 0
        for lam, vectors in result.eigenpairs:
            for vec in vectors:
                combo = sum((c * b for c, b in zip(vec, basis)), parse_expr("0"))
                lines.append((f"eigenvalue[{e}]", str(lam)))
                lines.append((f"eigenvector[{e}]", ", ".join(str(c) for c in vec)))
                lines.append((f"eigenmultiplier[{e}]", format_expr(combo)))
                e += 1
        return lines
    raise ValueError(f"unknown command {cmd!r}")


def render_lines(lines) -> str:
    return "\n".join(f"{k} = {v}" for k, v in lines)


# -- checker (runs in the benchmark process) --------------------------------


class Checker:
    """Checks answers against the frozen per-item tables.  check returns
    None for a correct answer and a short reason otherwise."""

    def __init__(self, frozen: dict):
        from jetlaw import format_expr, parse_expr

        self._parse = parse_expr
        self._format = format_expr
        self._tables = {}
        for name, item in frozen["pdes"].items():
            P = lambda texts: [parse_expr(s) for s in texts]
            self._tables[name] = {
                "currents": [tuple(P(c)) for c in item["currents"]],
                "mult_of_current": P(item["mult_of_current"]),
                "restricted": P(item["restricted"]),
                "act": [P(row) for row in item["act"]],
                "act_restricted": [P(row) for row in item["act_restricted"]],
                "psi": [[tuple(P(c)) for c in row] for row in item["psi"]],
                "matrices": [
                    [[Fraction(v) for v in row] for row in m]
                    for m in item["action_matrices"]
                ],
                "basis": P(item["multipliers"]),
            }

    def _lin(self, combo, items):
        acc = self._parse("0")
        for c, i in combo:
            acc = acc + items[i] * c
        return acc

    def _bilin(self, pc, qc, table):
        acc = self._parse("0")
        for a, i in pc:
            for b, j in qc:
                acc = acc + table[i][j] * (a * b)
        return acc

    def check(self, rec: dict, text: str | None) -> str | None:
        if text is None:
            return "no answer"
        try:
            return self._check(rec, text)
        except Exception as ex:  # a malformed answer is a failed query
            return f"{type(ex).__name__}: {ex}"

    def _check(self, rec, text):
        tab = self._tables[rec["pde"]]
        got = dict(line.split(" = ", 1) for line in text.split("\n"))
        P = [(Fraction(c), i) for c, i in rec["P"]] if rec["P"] else None
        Q = [(Fraction(c), i) for c, i in rec["Q"]] if rec["Q"] else None
        cmd = rec["cmd"]
        f = self._format
        if cmd == "current":
            T = self._lin(Q, [c[0] for c in tab["currents"]])
            X = self._lin(Q, [c[1] for c in tab["currents"]])
            return _differs(got, T=f(T), X=f(X))
        if cmd == "multiplier-of":
            trivial = self._lin(Q, tab["restricted"]).is_zero
            return _differs(got, Q=f(self._lin(Q, tab["mult_of_current"])), trivial=_bool(trivial))
        if cmd == "act":
            return _differs(got, Q=f(self._bilin(P, Q, tab["act"])))
        if cmd == "psi":
            psi = tab["psi"]
            T = self._bilin(P, Q, [[c[0] for c in r] for r in psi])
            X = self._bilin(P, Q, [[c[1] for c in r] for r in psi])
            trivial = self._bilin(P, Q, tab["act_restricted"]).is_zero
            return _differs(got, T=f(T), X=f(X), trivial=_bool(trivial))
        if cmd == "classify":
            return self._check_classify(got, P, Q, tab)
        if cmd == "action-matrix":
            return self._check_action_matrix(got, P, tab)
        return f"unknown command {cmd!r}"

    def _check_classify(self, got, P, Q, tab):
        action = self._bilin(P, Q, tab["act_restricted"])
        rq = self._lin(Q, tab["restricted"])
        if action.is_zero:
            verdict, lam = "Invariant", "0"
        else:
            key = min(rq._d)
            ratio = action._d.get(key, Fraction(0)) / rq._d[key]
            if ratio and action == rq * ratio:
                verdict, lam = "Homogeneous", str(ratio)
            else:
                verdict, lam = "NotHomogeneous", None
        expected = {"verdict": verdict, "action": self._format(action)}
        if lam is not None:
            expected["lambda"] = lam
        return _differs(got, **expected)

    def _check_action_matrix(self, got, P, tab):
        basis = tab["basis"]
        n = len(basis)
        if got["dimension"] != str(n):
            return "dimension differs"
        M = [[sum((a * tab["matrices"][i][r][c] for a, i in P), Fraction(0)) for c in range(n)] for r in range(n)]
        for r in range(n):
            for c in range(n):
                if got[f"matrix[{r}][{c}]"] != str(M[r][c]):
                    return "matrix differs"
        e = 0
        vectors: dict[Fraction, int] = {}
        while f"eigenvalue[{e}]" in got:
            lam = Fraction(got[f"eigenvalue[{e}]"])
            vec = [Fraction(v) for v in got[f"eigenvector[{e}]"].split(", ")]
            if vectors and lam < max(vectors):
                return "eigenvalues out of order"
            vectors[lam] = vectors.get(lam, 0) + 1
            if len(vec) != n or not any(vec):
                return "bad eigenvector"
            if any(sum(M[r][c] * vec[c] for c in range(n)) != lam * vec[r] for r in range(n)):
                return "not an eigenpair"
            combo = self._format(self._lin(list(zip(vec, range(n))), basis))
            if got[f"eigenmultiplier[{e}]"] != combo:
                return "eigenmultiplier differs"
            e += 1
        if len(got) != 1 + n * n + 3 * e:
            return "unexpected lines"
        for lam, count in vectors.items():
            if count != _nullity([[M[r][c] - (lam if r == c else 0) for c in range(n)] for r in range(n)]):
                return "eigenspace incomplete"
        return None


def _nullity(rows: list[list[Fraction]]) -> int:
    """Dimension of the right nullspace, by plain Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return len(rows[0]) - rank


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _differs(got: dict, **expected: str) -> str | None:
    """The first answer line that differs from its expected text, if any."""
    if set(got) != set(expected):
        return f"lines {sorted(got)} instead of {sorted(expected)}"
    for key, text in expected.items():
        if got[key] != text:
            return f"{key} differs"
    return None
