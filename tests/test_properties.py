"""Invariants of the two solves on seeded random normal PDEs: every
solved multiplier is a multiplier and passes the Helmholtz-type check,
and every solved symmetry satisfies the determining equation."""

import random

from helpers import random_expr
from jetlaw.conslaw import Ansatz, check_multiplier, helmholtz_check, solve_multipliers
from jetlaw.expr import jet
from jetlaw.soln import make_pde
from jetlaw.symmetry import check_symmetry, solve_symmetries

LEADS = [(1, 0), (2, 0), (1, 1)]


def _random_problems(rng, count):
    """(pde, ansatz) pairs: a right-hand side below the lead in lex order
    with a linear term of order at least 2, fractional coefficients and
    t, x factors, and a small ansatz of order below the PDE's."""
    for i in range(count):
        lead = LEADS[i % len(LEADS)]
        below = [(nt, o - nt) for o in range(4) for nt in range(o + 1) if (nt, o - nt) < lead]
        rhs = random_expr(
            rng,
            max_terms=3,
            max_jet_degree=rng.randint(1, 2),
            max_tx_degree=rng.randint(0, 1),
            allow_fractions=True,
            jets=below,
        )
        rhs = rhs + jet(*rng.choice([j for j in below if sum(j) >= 2]))
        pde = make_pde(lead, rhs)
        top = min(2, pde.G.max_order() - 1)
        ansatz = Ansatz(rng.randint(0, top), rng.randint(1, 3), rng.randint(0, 1), rng.randint(0, 1))
        yield pde, ansatz


def test_solved_bases_pass_their_checks():
    multipliers = symmetries = 0
    for pde, ansatz in _random_problems(random.Random(71), 30):
        for q in solve_multipliers(pde, ansatz):
            assert check_multiplier(q, pde), (pde, ansatz, q)
            assert helmholtz_check(q, pde), (pde, ansatz, q)
            multipliers += 1
        for p in solve_symmetries(pde, ansatz):
            assert check_symmetry(p, pde), (pde, ansatz, p)
            symmetries += 1
    # the checks are not vacuous
    assert multipliers > 30 and symmetries > 60
