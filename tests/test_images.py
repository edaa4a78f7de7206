"""The factored images of the two solves: each ansatz monomial
p m0, p = t^a x^b, gets its image from pieces computed once per jet part
m0 (the Leibniz rule for the determining equation of symmetries, the
standard coefficients of the adjoint Fréchet derivative for
multipliers), written term by term into the equations of the linear
system.  The equations must equal, monomial by monomial, those of the
per-monomial definitions restrict(frechet(G, m)) and euler(m G)."""

import random

import oracle
from helpers import random_expr
from jetlaw import conslaw, format_expr, parse_expr, symmetry
from jetlaw.conslaw import Ansatz, ansatz_monomials, solve_determining_system, solve_multipliers
from jetlaw.diffops import euler, euler_pieces, frechet, frechet_pieces
from jetlaw.expr import DiffExpr, t, x
from jetlaw.soln import make_pde, restrict
from jetlaw.symmetry import solve_symmetries

LEADS = [(1, 0), (2, 0), (1, 1), (2, 1)]


def _rows(module, solve, pde, ansatz, monkeypatch):
    """The basis of a solve and the equations {monomial key: {j: c}} it
    builds for it."""
    seen = []
    real = module._determining_rows

    def capture(basis, ansatz, pieces):
        rows = real(basis, ansatz, pieces)
        seen.append((basis, rows))
        return rows

    monkeypatch.setattr(module, "_determining_rows", capture)
    solve(pde, ansatz)
    monkeypatch.undo()
    (pair,) = seen
    return pair


def _transposed(images):
    """{monomial key: {j: coefficient of that monomial in images[j]}}."""
    rows: dict = {}
    for j, e in enumerate(images):
        for k, c in e._d.items():
            rows.setdefault(k, {})[j] = c
    return rows


def _random_pdes(seed, n):
    """n random normal PDEs, leads cycled through LEADS, with t-, x-
    dependent fractional right-hand sides, each with a random ansatz
    of order below its own."""
    rng = random.Random(seed)
    for i in range(n):
        lead = LEADS[i % len(LEADS)]
        below = [(nt, o - nt) for o in range(4) for nt in range(o + 1) if (nt, o - nt) < lead]
        rhs = random_expr(rng, max_terms=4, max_jet_degree=2, allow_fractions=True, jets=below)
        pde = make_pde(lead, rhs)
        top = min(2, pde.G.max_order() - 1)
        yield pde, Ansatz(rng.randint(0, top), rng.randint(1, 2), rng.randint(0, 2), rng.randint(0, 2))


def test_factored_images_equal_the_per_monomial_definitions(monkeypatch):
    for pde, ansatz in _random_pdes(61, 12):
        basis, rows = _rows(conslaw, solve_multipliers, pde, ansatz, monkeypatch)
        assert rows == _transposed([euler(m * pde.G) for m in basis])
        basis, rows = _rows(symmetry, solve_symmetries, pde, ansatz, monkeypatch)
        assert rows == _transposed([restrict(frechet(pde.G, m), pde) for m in basis])


def test_solves_equal_the_per_monomial_determining_system():
    # the solves read their equations off as solve_determining_system
    # reads the per-monomial images; the bases agree element for element
    # and print the same
    for pde, ansatz in _random_pdes(64, 8):
        basis = ansatz_monomials(pde, ansatz)
        want = solve_determining_system(basis, [euler(m * pde.G) for m in basis])
        got = solve_multipliers(pde, ansatz)
        assert got == want and list(map(format_expr, got)) == list(map(format_expr, want))
        basis = ansatz_monomials(pde, ansatz, include_consequences=True)
        want = solve_determining_system(basis, [restrict(frechet(pde.G, m), pde) for m in basis])
        got = solve_symmetries(pde, ansatz)
        assert got == want and list(map(format_expr, got)) == list(map(format_expr, want))


def _shifts(kmax):
    return [(a, b) for a in range(kmax[0] + 1) for b in range(kmax[1] + 1)]


def test_euler_pieces_identity_matches_reference():
    # euler(p f) = sum_K D^K(p) A_K(f), checked against the sympy
    # transcription of the Euler operator and of D^K
    rng = random.Random(62)
    for _ in range(6):
        f = random_expr(rng, max_terms=3, max_order=2, max_jet_degree=2, allow_fractions=True)
        pieces = euler_pieces(f, (2, 2))
        assert pieces.get((0, 0), {}) == euler(f)._d
        for a, b in _shifts((2, 2)):
            p = oracle.to_sympy(t**a * x**b)
            want = oracle.euler(oracle.to_sympy(t**a * x**b * f))
            got = sum(
                oracle.DJ(p, *K) * oracle.to_sympy(DiffExpr._raw(e))
                for K, e in pieces.items()
            )
            assert (want - got).expand() == 0


def test_frechet_leibniz_identity_matches_reference(kdv):
    # frechet(f, p g) = sum_K D^K(p) F_K, and restrict is linear over
    # polynomials in t and x, so the same holds after restriction
    rng = random.Random(63)
    rhs = oracle.to_sympy(kdv.rhs)
    for _ in range(4):
        f = random_expr(rng, max_terms=3, max_order=2, max_jet_degree=2, allow_fractions=True)
        g = random_expr(rng, max_terms=2, max_order=1, max_jet_degree=2, max_tx_degree=0)
        pieces = {K: DiffExpr._raw(e) for K, e in frechet_pieces(f, g, (1, 2)).items()}
        assert pieces.get((0, 0), 0) == frechet(f, g)
        for a, b in _shifts((1, 2)):
            p = oracle.to_sympy(t**a * x**b)
            pg = oracle.to_sympy(t**a * x**b * g)
            dps = {K: oracle.DJ(p, *K) for K in pieces}
            want = oracle.frechet(oracle.to_sympy(f), pg)
            got = sum(dps[K] * oracle.to_sympy(e) for K, e in pieces.items())
            assert (want - got).expand() == 0
            want = oracle.restrict(want, (1, 0), rhs)
            got = sum(dps[K] * oracle.to_sympy(restrict(e, kdv)) for K, e in pieces.items())
            assert (want - got).expand() == 0


def test_symmetry_solve_rewrites_once_per_jet_part(kdv, monkeypatch):
    # A(2,3,1,1) has 336 monomials over 84 jet parts; a per-monomial
    # restrict(frechet(G, m)) restricts 336 times, the Leibniz pieces
    # of the 84 jet parts 252 times
    calls = []

    def counted(f, pde):
        calls.append(1)
        return restrict(f, pde)

    monkeypatch.setattr(symmetry, "restrict", counted)
    basis = solve_symmetries(kdv, Ansatz(2, 3, 1, 1))
    monkeypatch.undo()
    assert len(basis) == 4
    assert len(calls) == 252


def test_images_of_integer_pdes_hold_only_ints(kdv, monkeypatch):
    # KdV and KdV5 have integer coefficients, and so do their ansatz
    # monomials and every equation; a stray Fraction(1) source would make
    # the equations pay for Fraction arithmetic
    kdv5 = make_pde((1, 0), parse_expr("-u_xxxxx - 10*u*u_xxx - 25*u_x*u_xx - 20*u^2*u_x"))
    for module, solve, pde, ansatz in (
        (symmetry, solve_symmetries, kdv, Ansatz(2, 3, 1, 1)),
        (conslaw, solve_multipliers, kdv5, Ansatz(4, 3, 1, 1)),
    ):
        basis, rows = _rows(module, solve, pde, ansatz, monkeypatch)
        assert (len(basis), len(rows)) == ((336, 6119) if solve is solve_symmetries else (224, 2649))
        for e in basis:
            assert all(type(c) is int for c in e._d.values())
        for row in rows.values():
            assert row and all(type(c) is int for c in row.values())
