"""Each fact is decided once: a query whose precondition is decided by
the computation it guards runs that computation once.  The extraction
of R_P is the symmetry check, the extraction of a current's divergence
is the conservation check, the Euler image inside the divergence
inversion of q G is the multiplier check, and in the action queries
the image G'*(q) that R_Q is extracted from decides it with q'*(G)."""

import pytest

from jetlaw import conslaw, diffops, soln, symmetry
from jetlaw._kernel import pure
from jetlaw.conslaw import Ansatz, current_from_multiplier, multiplier_from_current
from jetlaw.errors import JetLawError
from jetlaw.expr import ONE, DiffExpr, jet, t, u, x
from jetlaw.soln import make_pde, restrict
from jetlaw.symmetry import act_on_multiplier, action_matrix, classify, psi_current, solve_symmetries

GALILEAN = 1 - t * jet(0, 1)
ENERGY = jet(0, 2) + u**2 / 2


def _counted(monkeypatch, module, name):
    """Count the calls of module.name, recording their arguments."""
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_queries_rewrite_once_per_operator(kdv, monkeypatch):
    calls = _counted(monkeypatch, soln, "_rewrite")
    # restrict runs the loop only on the consequence parts its memo
    # lacks, so it is counted apart
    restricts = [_counted(monkeypatch, m, "restrict") for m in (conslaw, symmetry)]
    cur = current_from_multiplier(ENERGY, kdv)
    assert conslaw.verify_conservation_law(cur, kdv) and symmetry.check_symmetry(GALILEAN, kdv)
    assert [len(r) for r in restricts] == [1, 1]
    for c in [calls, *restricts]:
        c.clear()
    multiplier_from_current(cur, kdv)
    # the extraction of R with R(G) = D_t T + D_x X, and no restrict
    assert (len(calls), sum(map(len, restricts))) == (1, 0)
    calls.clear()
    act_on_multiplier(GALILEAN, ENERGY, kdv)
    # the extractions of R_P and R_Q, and no restrict for the check on P
    assert (len(calls), sum(map(len, restricts))) == (2, 0)


def test_action_matrix_derives_the_symmetry_operator_once(kdv, monkeypatch):
    calls = _counted(monkeypatch, symmetry, "frechet")
    action_matrix(GALILEAN, [ONE, u, t * u - x], kdv)
    assert calls == [(kdv.G, GALILEAN)]


def test_current_from_multiplier_takes_one_euler_image(kdv, monkeypatch):
    calls = _counted(monkeypatch, diffops, "frechet_adjoint")
    current_from_multiplier(ENERGY, kdv)
    # frechet_adjoint(f, 1) is the Euler image E_u(f), taken of the
    # primitive part 2 ENERGY of the multiplier.  It runs before the
    # inversion, which is not left to decide the condition: a variant
    # whose self-check decided it took 2.6-4.6 s to refuse
    # current --Q "u[64,0]^6" on KdV (fresh processes, 2-core Xeon),
    # past the 2 s of tests/test_cli.py, where the Euler image takes 0.4 s
    assert [f for f, h in calls] == [(2 * ENERGY) * kdv.G]


def test_action_queries_decide_the_multiplier_by_the_product_rule(kdv, monkeypatch):
    # E_u(q G) = G'*(q) + q'*(G), and R_Q is extracted from G'*(q); the
    # primitive part of ENERGY / 3 is 2 ENERGY.  symmetry imports
    # frechet_adjoint, and euler calls it in diffops as the Euler image
    # frechet_adjoint(q G, 1), which no query takes
    calls = _counted(monkeypatch, symmetry, "frechet_adjoint")
    euler_images = _counted(monkeypatch, diffops, "frechet_adjoint")
    q = 2 * ENERGY
    for query in (act_on_multiplier, classify):
        calls.clear()
        query(GALILEAN, ENERGY / 3, kdv)
        assert calls == [(kdv.G, q), (q, kdv.G)], query
    # two calls per basis element
    basis = [ONE, u, t * u - x]
    calls.clear()
    action_matrix(GALILEAN, basis, kdv)
    assert calls == [c for b in basis for c in ((kdv.G, b), (b, kdv.G))]
    assert euler_images == []


def _fractional(calls):
    """The expression arguments (DiffExprs or raw term dicts) of the
    recorded calls that hold a coefficient other than an int."""
    exprs = [a for args in calls for a in args if isinstance(a, DiffExpr)]
    exprs += [DiffExpr._raw(a) for args in calls for a in args if isinstance(a, dict)]
    assert exprs
    return [e for e in exprs if any(type(c) is not int for c in e._d.values())]


def test_queries_run_on_integral_primitive_parts(kdv, monkeypatch):
    q, p = ENERGY / 3, GALILEAN / 5
    adjoint = _counted(monkeypatch, diffops, "frechet_adjoint")
    rewrite = _counted(monkeypatch, soln, "_rewrite")
    cur = current_from_multiplier(q, kdv)
    back = multiplier_from_current(cur, kdv)
    acted = act_on_multiplier(p, q, kdv)
    assert rewrite and adjoint
    assert _fractional(adjoint) == []
    assert _fractional([args[:1] for args in rewrite]) == []
    monkeypatch.undo()
    whole = current_from_multiplier(ENERGY, kdv)
    assert cur == (whole.T / 3, whole.X / 3)
    assert restrict(back, kdv) == restrict(q, kdv)
    assert acted == act_on_multiplier(GALILEAN, ENERGY, kdv) / 15


def test_adjoint_op_prices_its_products_before_the_first(kdv, monkeypatch):
    # Q = (A)*(B), A and B sums of 300 monomials, has 90,000 terms; with
    # the four one-term coefficients of G' the products c_K Q of
    # G'*(Q) price at 360,000 terms together, so the action queries and
    # psi refuse before multiplying Q by anything
    a = sum((t**i * x**j for i in range(20) for j in range(15)), DiffExpr())
    b = sum((u ** (i + 1) * jet(0, 1) ** j for i in range(20) for j in range(15)), DiffExpr())
    q = a * b
    assert len(q._d) == 90_000
    sizes = []
    # every product goes through mul_add, mul's too
    real = pure.mul_add
    monkeypatch.setattr(pure, "mul_add", lambda out, c, f, g: sizes.append((len(f), len(g))) or real(out, c, f, g))
    for query in (act_on_multiplier, classify, psi_current):
        sizes.clear()
        with pytest.raises(JetLawError, match=f"^work exceeds {pure.MAX_PRODUCTS} terms$"):
            query(-jet(0, 1), q, kdv)
        assert sizes and max(map(max, sizes)) < 100, query


def test_split_memo_holds_one_entry_per_consequence_part(kdv):
    # a fresh NormalPDE, as each CLI solve has: its splitter reads the
    # greatest consequence jet of each of the 136 distinct consequence
    # parts the solve meets off that part's record in the kernel's memo
    # of jet parts, and files no record for a key free of consequence
    # jets.  The memo starts empty, so that no clear drops a record
    pure._parts.clear()
    pde = make_pde(kdv.lead, kdv.rhs)
    split = pde._split
    parts = set()

    def recorded(key):
        got = split(key)
        parts.add(got[1])
        return got

    pde._split = recorded
    assert len(solve_symmetries(pde, Ansatz(2, 3, 1, 1))) == 4
    parts.discard(pure.ONE_MONO)
    assert len(parts) == 136
    assert all(part >> pure._JETS in pure._parts for part in parts)
    size = len(pure._parts)
    free = (u * jet(0, 3) ** 2 * t)._d.popitem()[0]
    assert split(free) == (free, pure.ONE_MONO, pure.NO_JET)
    assert len(pure._parts) == size


def test_autonomous_solve_eliminates_only_its_diagonal_block(kdv, heat, monkeypatch):
    # an autonomous solve eliminates the rows of K = (0, 0) once (one
    # Reduced) and reads its basis off the level walk, with no rref;
    # explicit t makes the solve eliminate its whole system, one rref
    # in sparse_nullspace
    rrefs = _counted(monkeypatch, pure, "rref")
    reduced = []
    real = pure.Reduced.__init__

    def counted(self, rows):
        reduced.append(1)
        real(self, rows)

    monkeypatch.setattr(pure.Reduced, "__init__", counted)
    for solve in (conslaw.solve_multipliers, solve_symmetries):
        for pde in (kdv, heat):
            assert solve(pde, Ansatz(1, 2, 1, 1))
            assert (len(reduced), len(rrefs)) == (1, 0)
            reduced.clear()
        assert solve(make_pde((1, 0), jet(0, 3) + t * jet(0, 1)), Ansatz(1, 2, 1, 1))
        assert (len(reduced), len(rrefs)) == (0, 1)
        rrefs.clear()
