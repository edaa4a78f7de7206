"""Prove the frozen references in perfbench/data with the sympy oracle.

    PYTHONPATH=src:tests python3 perfbench/validate.py

tests/oracle.py transcribes the calculus operators from their defining
formulas on sympy expressions and shares no code with jetlaw.  Checked
here:

- every frozen multiplier Q satisfies euler(Q*G) = 0, and the dimension
  of each multiplier basis agrees with oracle.multiplier_space_dimension
  over the same ansatz monomials;
- every frozen symmetry P satisfies restrict(frechet(G, P)) = 0;
- every frozen current satisfies D_t T + D_x X = Q*G, and the multiplier
  recovered from it agrees with Q on the solution space;
- every act[i][j] is a multiplier whose restriction matches the frozen
  one and is the combination of the basis given by action matrix i;
- every psi[i][j] satisfies Q frechet(G, P) - P frechet_adjoint(G, Q)
  = D_t T + D_x X;
- the symmetries-kdv report lists symmetries, and the multipliers-kdv5
  report lists the kdv5 basis validated above.

Prints one line per checked group and exits 1 on the first failure.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

import oracle
import sympy as sp

import mix
import run

from jetlaw import parse_expr
from jetlaw.conslaw import Ansatz, ansatz_monomials
from jetlaw.soln import make_pde


def _fail(msg: str) -> None:
    print(f"FAIL {msg}")
    sys.exit(1)


def _s(text: str):
    return oracle.to_sympy(parse_expr(text))


def _rat(text: str):
    v = Fraction(text)
    return sp.Rational(v.numerator, v.denominator)


def _report_basis(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        lines = dict(line.rstrip("\n").split(" = ", 1) for line in fh)
    basis = [lines[f"basis[{i}]"] for i in range(int(lines["dimension"]))]
    if f"basis[{len(basis)}]" in lines:
        _fail(f"{path}: more basis lines than its dimension")
    return basis


class PDE:
    def __init__(self, lead, rhs: str):
        self.pde = make_pde(tuple(lead), parse_expr(rhs))
        self.lead = tuple(lead)
        self.rhs = _s(rhs)
        self.G = oracle.to_sympy(self.pde.G)

    def restrict(self, e):
        return oracle.restrict(e, self.lead, self.rhs)

    def is_multiplier(self, q) -> bool:
        return oracle.euler(sp.expand(q * self.G)) == 0

    def is_symmetry(self, p) -> bool:
        return self.restrict(oracle.frechet(self.G, p)) == 0

    def dimension(self, ansatz) -> int:
        monos = ansatz_monomials(self.pde, Ansatz(*ansatz))
        return oracle.multiplier_space_dimension(
            self.G, self.lead, [oracle.to_sympy(m) for m in monos]
        )


def validate_items(name: str, item: dict) -> None:
    t0 = time.perf_counter()
    pde = PDE(item["lead"], item["rhs"])
    mults = [_s(q) for q in item["multipliers"]]
    syms = [_s(p) for p in item["symmetries"]]
    for q, text in zip(mults, item["multipliers"]):
        if not pde.is_multiplier(q):
            _fail(f"{name}: {text} is not a multiplier")
    if pde.dimension(item["multiplier_ansatz"]) != len(mults):
        _fail(f"{name}: multiplier dimension differs from the oracle")
    for p, text in zip(syms, item["symmetries"]):
        if not pde.is_symmetry(p):
            _fail(f"{name}: {text} is not a symmetry")
    restricted = [pde.restrict(q) for q in mults]
    for j, q in enumerate(mults):
        T, X = (_s(c) for c in item["currents"][j])
        if sp.expand(oracle.Dt(T) + oracle.Dx(X) - q * pde.G) != 0:
            _fail(f"{name}: current {j} is not a current of its multiplier")
        if pde.restrict(_s(item["mult_of_current"][j])) != restricted[j]:
            _fail(f"{name}: multiplier of current {j} differs on the solution space")
        if _s(item["restricted"][j]) != restricted[j]:
            _fail(f"{name}: restricted multiplier {j} differs")
    for i, p in enumerate(syms):
        matrix = item["action_matrices"][i]
        for j, q in enumerate(mults):
            acted = _s(item["act"][i][j])
            if not pde.is_multiplier(acted):
                _fail(f"{name}: act[{i}][{j}] is not a multiplier")
            r = pde.restrict(acted)
            if _s(item["act_restricted"][i][j]) != r:
                _fail(f"{name}: act_restricted[{i}][{j}] differs")
            combo = sum((_rat(matrix[k][j]) * restricted[k] for k in range(len(mults))), sp.Integer(0))
            if sp.expand(combo - r) != 0:
                _fail(f"{name}: column {j} of action matrix {i} differs")
            T, X = (_s(c) for c in item["psi"][i][j])
            pairing = q * oracle.frechet(pde.G, p) - p * oracle.frechet_adjoint(pde.G, q)
            if sp.expand(oracle.Dt(T) + oracle.Dx(X) - pairing) != 0:
                _fail(f"{name}: psi[{i}][{j}] breaks the pairing identity")
    print(f"ok {name}: {len(mults)} multipliers, {len(syms)} symmetries, "
          f"{len(mults) * len(syms)} act/psi pairs ({time.perf_counter() - t0:.1f} s)")


def validate_solves(frozen: dict) -> None:
    kdv = frozen["pdes"]["kdv"]
    pde = PDE(kdv["lead"], kdv["rhs"])
    basis = _report_basis(run.SOLVES["symmetries-kdv"]["reference"])
    for text in basis:
        if not pde.is_symmetry(_s(text)):
            _fail(f"symmetries-kdv: {text} is not a symmetry")
    print(f"ok symmetries-kdv: {len(basis)} symmetries")
    basis = _report_basis(run.SOLVES["multipliers-kdv5"]["reference"])
    if basis != frozen["pdes"]["kdv5"]["multipliers"]:
        _fail("multipliers-kdv5: the report's basis is not the frozen kdv5 basis")
    print("ok multipliers-kdv5: the report lists the validated kdv5 basis")


def main() -> None:
    frozen = mix.load_frozen()
    for name, item in sorted(frozen["pdes"].items()):
        validate_items(name, item)
    validate_solves(frozen)


if __name__ == "__main__":
    main()
