"""Invariants on seeded random normal PDEs: every solved multiplier is
a multiplier and passes the Helmholtz-type check, and every solved
symmetry satisfies the determining equation; the multiplier action
equals the multiplier of the boundary current Psi_G(P, Q), and the
current <-> multiplier round trip holds, on the solution space; each
query raises its typed error exactly when the public check of its
precondition is false, and the product rule E_u(q G) = G'*(q) +
q'*(G) that the action queries decide the multiplier condition by
holds on every candidate and against the sympy reference; every query
scales exactly with the scalar multiples of its arguments, and its
errors show the arguments as given; and restriction, which multiplies
memoized restrictions of consequence parts, agrees with the sympy
reference and with the remainder of operator extraction, which runs
the bucket loop on the whole input."""

import functools
import random
from fractions import Fraction

import pytest
import sympy as sp

import oracle
from helpers import random_expr
from jetlaw import soln
from jetlaw.conslaw import (
    Ansatz,
    check_adjoint_symmetry,
    check_multiplier,
    current_from_multiplier,
    helmholtz_check,
    multiplier_from_current,
    solve_multipliers,
    verify_conservation_law,
)
from jetlaw.diffops import ConservedCurrent, divergence, euler, frechet_adjoint, total_derivative
from jetlaw.errors import (
    JetLawError,
    NotAdjointSymmetry,
    NotAMultiplier,
    NotASymmetry,
    NotConserved,
    NotOnSolutionSpace,
)
from jetlaw.expr import DiffExpr, jet
from jetlaw.grammar import format_brief
from jetlaw.soln import extract_operator, make_pde, restrict
from jetlaw.symmetry import (
    act_on_multiplier,
    action_matrix,
    check_symmetry,
    classify,
    psi_current,
    solve_symmetries,
)

LEADS = [(1, 0), (2, 0), (1, 1)]


def _random_problems(rng, count, leads=LEADS):
    """(pde, ansatz) pairs: a right-hand side below the lead in lex order
    with a linear term of order at least 2, fractional coefficients and
    t, x factors, and a small ansatz of order below the PDE's."""
    for i in range(count):
        lead = leads[i % len(leads)]
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


@functools.cache
def _solved():
    """(pde, ansatz, multipliers, symmetries) of the seeded problems."""
    return [
        (pde, ansatz, solve_multipliers(pde, ansatz), solve_symmetries(pde, ansatz))
        for pde, ansatz in _random_problems(random.Random(71), 30)
    ]


def test_solved_bases_pass_their_checks():
    multipliers = symmetries = 0
    for pde, ansatz, qs, ps in _solved():
        for q in qs:
            assert check_multiplier(q, pde), (pde, ansatz, q)
            assert helmholtz_check(q, pde), (pde, ansatz, q)
            multipliers += 1
        for p in ps:
            assert check_symmetry(p, pde), (pde, ansatz, p)
            symmetries += 1
    # the checks are not vacuous
    assert multipliers > 30 and symmetries > 60


def _pairs(rng):
    """(pde, P, Q): up to two solved symmetries and two solved
    multipliers of each problem, drawn at random."""
    for pde, _, qs, ps in _solved():
        for p in rng.sample(ps, min(2, len(ps))):
            for q in rng.sample(qs, min(2, len(qs))):
                yield pde, p, q


def test_multiplier_action_equals_the_boundary_current_multiplier():
    # the multiplier action R_P*(Q) - R_Q*(P) is the multiplier of
    # Ibragimov's current Psi_G(P, Q), on the solution space
    pairs = 0
    for pde, p, q in _pairs(random.Random(72)):
        acted = restrict(act_on_multiplier(p, q, pde), pde)
        assert acted == restrict(multiplier_from_current(psi_current(p, q, pde), pde), pde), (pde, p, q)
        pairs += 1
    assert pairs > 30


def test_current_multiplier_round_trip():
    multipliers = 0
    for pde, _, qs, _ in _solved():
        for q in qs[:3]:
            back = multiplier_from_current(current_from_multiplier(q, pde), pde)
            assert restrict(back, pde) == restrict(q, pde), (pde, q)
            multipliers += 1
    assert multipliers > 20


def _error(call, *args):
    """The type of the JetLawError call(*args) raises, or None."""
    try:
        call(*args)
    except JetLawError as ex:
        return type(ex)
    return None


def _small(rng):
    return random_expr(rng, max_terms=2, max_order=2, max_jet_degree=2, max_tx_degree=1, allow_fractions=True)


def _candidates(rng, pde, solved):
    """Solved elements, a sum of two, one plus a multiple of G (which
    leaves it unchanged on the solution space), one plus a random
    expression, and random expressions."""
    out = solved[:2]
    if solved:
        out += [solved[0] + solved[-1], solved[-1] + _small(rng) * pde.G, solved[0] + _small(rng)]
    return out + [_small(rng) for _ in range(3)]


def test_queries_raise_exactly_when_their_checks_fail():
    rng = random.Random(73)
    seen = set()
    for pde, _, qs, ps in _solved()[:12]:
        q0 = qs[0] if qs else DiffExpr()
        p0 = ps[0] if ps else DiffExpr()
        for p in _candidates(rng, pde, ps):
            ok = check_symmetry(p, pde)
            assert (_error(act_on_multiplier, p, q0, pde) is NotASymmetry) is not ok, (pde, p)
            seen.add(("symmetry", ok))
        for q in _candidates(rng, pde, qs):
            ok = check_multiplier(q, pde)
            # the product rule the action queries decide the condition by
            rule = frechet_adjoint(pde.G, q) + frechet_adjoint(q, pde.G)
            assert rule._d == euler(q * pde.G)._d, (pde, q)
            assert (_error(current_from_multiplier, q, pde) is NotAMultiplier) is not ok, (pde, q)
            for query in (act_on_multiplier, classify):
                assert (_error(query, p0, q, pde) is NotAMultiplier) is not ok, (query, pde, q)
            assert (_error(action_matrix, p0, [q], pde) is NotAMultiplier) is not ok, (pde, q)
            seen.add(("multiplier", ok))
            ok = check_adjoint_symmetry(q, pde)
            assert (_error(helmholtz_check, q, pde) is NotAdjointSymmetry) is not ok, (pde, q)
            seen.add(("adjoint-symmetry", ok))
        currents = [current_from_multiplier(q, pde) for q in qs[:2]]
        currents += [ConservedCurrent(_small(rng), _small(rng)) for _ in range(2)]
        for T, X in currents:
            f = _small(rng)
            # a multiple of G and a curl keep a current conserved
            for c in ((T, X), (T + f * pde.G, X), (T + total_derivative(f, "x"), X - total_derivative(f, "t"))):
                ok = verify_conservation_law(c, pde)
                assert (_error(multiplier_from_current, c, pde) is NotConserved) is not ok, (pde, c)
                seen.add(("current", ok))
    # every equivalence is met from both sides
    assert len(seen) == 8, seen


def test_multiplier_product_rule_matches_the_reference():
    # E_u(q G) = G'*(q) + q'*(G), by the sympy transcription of the
    # defining formulas
    rng = random.Random(74)
    for pde, _, qs, _ in _solved()[:4]:
        g = oracle.to_sympy(pde.G)
        for q in qs[:1] + [_small(rng)]:
            h = oracle.to_sympy(q)
            want = oracle.euler(h * g)
            assert sp.expand(want - oracle.frechet_adjoint(g, h) - oracle.frechet_adjoint(h, g)) == 0
            got = frechet_adjoint(pde.G, q) + frechet_adjoint(q, pde.G)
            assert got == oracle.from_sympy(want), (pde, q)


def _scalar(rng):
    """A random nonzero rational p/q, integral now and then."""
    return Fraction(rng.choice([-7, -3, -2, -1, 1, 2, 5, 12]), rng.choice([1, 1, 3, 4, 9, 35]))


def _scaled(cur, c):
    return ConservedCurrent(cur.T * c, cur.X * c)


def test_queries_scale_with_their_arguments():
    # each query is linear in each argument: f(c P, Q) = c f(P, Q) and
    # f(P, c Q) = c f(P, Q) exactly; classify's weight scales with P and
    # not with Q, and action_matrix(c P) has matrix c M, eigenvalues
    # c lambda and the same eigenvectors; on the basis (c_i b_i) the
    # matrix is D^-1 M D with D = diag(c_i), with the same eigenvalues
    rng = random.Random(74)
    pairs = matrices = 0
    for pde, p, q in _pairs(random.Random(75)):
        c = _scalar(rng)
        cur = current_from_multiplier(q, pde)
        assert current_from_multiplier(q * c, pde) == _scaled(cur, c), (pde, q, c)
        assert multiplier_from_current(_scaled(cur, c), pde) == multiplier_from_current(cur, pde) * c
        acted = act_on_multiplier(p, q, pde)
        assert act_on_multiplier(p * c, q, pde) == acted * c, (pde, p, q, c)
        assert act_on_multiplier(p, q * c, pde) == acted * c, (pde, p, q, c)
        psi = psi_current(p, q, pde)
        assert psi_current(p * c, q, pde) == _scaled(psi, c)
        assert psi_current(p, q * c, pde) == _scaled(psi, c)
        res = classify(p, q, pde)
        by_p, by_q = classify(p * c, q, pde), classify(p, q * c, pde)
        assert by_p.verdict == by_q.verdict == res.verdict
        assert by_p.action == by_q.action == res.action * c
        if res.lam is not None:
            assert by_p.lam == res.lam * c and by_q.lam == res.lam
        pairs += 1
    for pde, _, qs, ps in _solved():
        for p in ps[:2]:
            c = _scalar(rng)
            cs = [_scalar(rng) for _ in qs]
            scaled = [q * ci for q, ci in zip(qs, cs)]
            try:
                m = action_matrix(p, qs, pde)
            except JetLawError as ex:
                with pytest.raises(type(ex)) as info:
                    action_matrix(p * c, qs, pde)
                assert str(info.value) == str(ex)
                with pytest.raises(type(ex)):
                    action_matrix(p, scaled, pde)
                continue
            mc = action_matrix(p * c, qs, pde)
            n = len(qs)
            assert [[mc.matrix[i, j] for j in range(n)] for i in range(n)] == [
                [m.matrix[i, j] * c for j in range(n)] for i in range(n)
            ]
            assert sorted(mc.eigenpairs) == sorted((lam * c, vecs) for lam, vecs in m.eigenpairs)
            ms = action_matrix(p, scaled, pde)
            assert [[ms.matrix[i, j] for j in range(n)] for i in range(n)] == [
                [m.matrix[i, j] * cs[j] / cs[i] for j in range(n)] for i in range(n)
            ]
            assert sorted(lam for lam, _ in ms.eigenpairs) == sorted(lam for lam, _ in m.eigenpairs)
            matrices += 1
    assert pairs > 30 and matrices > 10


def test_errors_show_the_fractional_arguments_as_given():
    rng = random.Random(76)
    seen = set()

    def shows(error, call, *args, given):
        with pytest.raises(error) as info:
            call(*args)
        assert format_brief(given) in str(info.value), (info.value, given)
        seen.add(error)

    for pde, _, qs, ps in _solved()[:12]:
        q0 = qs[0] if qs else DiffExpr()
        for _ in range(3):
            c = Fraction(rng.choice([1, 2, 5]), rng.choice([3, 7, 11]))
            e = _small(rng) * c
            if not check_symmetry(e, pde):
                shows(NotASymmetry, act_on_multiplier, e, q0, pde, given=e)
                shows(NotASymmetry, psi_current, e, q0, pde, given=e)
                shows(NotASymmetry, classify, e, q0, pde, given=e)
                shows(NotASymmetry, action_matrix, e, [q0 or jet(0, 0)], pde, given=e)
            if ps and not check_multiplier(e, pde):
                shows(NotAMultiplier, current_from_multiplier, e, pde, given=e)
                shows(NotAMultiplier, act_on_multiplier, ps[0], e, pde, given=e)
                shows(NotAMultiplier, classify, ps[0], e, pde, given=e)
            if ps and not check_adjoint_symmetry(e, pde):
                shows(NotAdjointSymmetry, psi_current, ps[0], e, pde, given=e)
            cur = ConservedCurrent(_small(rng) * c, _small(rng) * c)
            if not verify_conservation_law(cur, pde):
                shows(NotConserved, multiplier_from_current, cur, pde, given=divergence(cur))
    assert len(seen) == 4, seen


def _random_inputs(rng, pool, count):
    """Sums of one or two small terms times powers of the pool's jets."""
    for _ in range(count):
        f = DiffExpr()
        for _ in range(rng.randint(1, 2)):
            m = _small(rng)
            for _ in range(rng.randint(1, 2)):
                m = m * rng.choice(pool) ** rng.randint(1, 2)
            f = f + m
        yield f


def test_restriction_agrees_with_the_reference_and_with_extraction(monkeypatch):
    # the inputs are powers of a few consequence jets and then products
    # of them, so that later calls on a PDE reuse the memoized
    # restrictions of earlier ones, and multiply those of the powers
    # with those of the products below them
    rng = random.Random(77)
    checked = 0
    # every memo entry is one run of the rewriting loop on a consequence
    # part or the product of two entries
    loops = []
    rewrite = soln._rewrite

    def counted(d, pde, drhs, quotients, budget):
        loops.append(quotients is None)
        return rewrite(d, pde, drhs, quotients, budget)

    monkeypatch.setattr(soln, "_rewrite", counted)
    entries = 0
    for pde, _ in _random_problems(rng, 8, LEADS + [(2, 1)]):
        lt, lx = pde.lead
        pool = [jet(lt + a, lx + b) for a in range(2) for b in range(2) if a + b < 2]
        rhs = oracle.to_sympy(pde.rhs)
        powers = [p**e for p in pool for e in (1, 2)]
        for f in powers + list(_random_inputs(rng, pool, 3)):
            r = restrict(f, pde)
            assert oracle.from_sympy(oracle.restrict(oracle.to_sympy(f), (lt, lx), rhs)) == r, (pde, f)
            if not r.is_zero:
                with pytest.raises(NotOnSolutionSpace) as info:
                    extract_operator(f, pde)
                assert info.value.expr == r, (pde, f)
                checked += 1
            assert restrict(f - r, pde).is_zero
            assert extract_operator(f - r, pde).apply(pde.G) == f - r, (pde, f)
        entries += len(pde._restricted)
    assert checked > 60 and entries - sum(loops) > 10
