"""The factored images of the two solves: each ansatz monomial
p m0, p = t^a x^b, gets its image from pieces computed once per jet part
m0 (the Leibniz rule for the determining equation of symmetries, the
standard coefficients of the adjoint Fréchet derivative for
multipliers), written term by term into the equations of the linear
system.  The equations must equal, monomial by monomial, those of the
per-monomial definitions restrict(frechet(G, m)) and euler(m G)."""

import random

import oracle
import pytest
from helpers import random_expr
from jetlaw import conslaw, format_expr, parse_expr, symmetry
from jetlaw._kernel import pure
from jetlaw.conslaw import Ansatz, ansatz_monomials, solve_determining_system, solve_multipliers
from jetlaw.diffops import euler, euler_pieces, frechet, frechet_pieces
from jetlaw.expr import DiffExpr, t, x
from jetlaw.soln import make_pde, restrict
from jetlaw.symmetry import solve_symmetries

LEADS = [(1, 0), (2, 0), (1, 1), (2, 1)]


def _solved(solve, pde, ansatz, monkeypatch):
    """The basis a solve returns, its ansatz monomials, and the kmax and
    piece function it is solved with, captured where the solve calls
    the driver _solve (which symmetry imports by name)."""
    seen = []
    real = conslaw._solve

    def capture(pde, ansatz, pieces, include_consequences=False):
        basis = ansatz_monomials(pde, ansatz, include_consequences=include_consequences)
        seen.append((basis, (ansatz.max_t_degree, ansatz.max_x_degree), pieces))
        return real(pde, ansatz, pieces, include_consequences)

    for module in (conslaw, symmetry):
        monkeypatch.setattr(module, "_solve", capture)
    got = solve(pde, ansatz)
    monkeypatch.undo()
    ((basis, kmax, pieces),) = seen
    return got, basis, kmax, pieces


def _determining_rows(basis, kmax, pieces):
    """The rows _determining_rows writes from the pieces of the jet
    parts of basis, its first len(basis) / ((T+1)(X+1)) monomials."""
    n = len(basis) // ((kmax[0] + 1) * (kmax[1] + 1))
    return conslaw._determining_rows(kmax, [pieces(m0, kmax) for m0 in basis[:n]])


def _rows(solve, pde, ansatz, monkeypatch):
    """The ansatz monomials of a solve and the equations
    {monomial key: {j: c}} of its determining system, written by
    _determining_rows from the solve's own pieces; an autonomous solve
    takes its kernel block by block and never writes them."""
    _, basis, kmax, pieces = _solved(solve, pde, ansatz, monkeypatch)
    return basis, _determining_rows(basis, kmax, pieces)


def _row_kernel(basis, kmax, pieces):
    """The canonical kernel of the rows _determining_rows writes from the
    pieces of the jet parts of basis."""
    return conslaw._null_combinations(basis, _determining_rows(basis, kmax, pieces).values())


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
        basis, rows = _rows(solve_multipliers, pde, ansatz, monkeypatch)
        assert rows == _transposed([euler(m * pde.G) for m in basis])
        basis, rows = _rows(solve_symmetries, pde, ansatz, monkeypatch)
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


def _autonomous_pdes(seed, n):
    """n random normal PDEs free of t and x, leads cycled through LEADS
    and (3, 0), with fractional right-hand sides, each with a random
    ansatz of order below its own, down to T = 0, X = 0 and jet
    degree 0."""
    rng = random.Random(seed)
    leads = LEADS + [(3, 0)]
    for i in range(n):
        lead = leads[i % len(leads)]
        below = [(nt, o - nt) for o in range(4) for nt in range(o + 1) if (nt, o - nt) < lead]
        rhs = random_expr(rng, max_terms=4, max_jet_degree=2, max_tx_degree=0, allow_fractions=True, jets=below)
        pde = make_pde(lead, rhs)
        top = min(2, pde.G.max_order() - 1)
        yield pde, Ansatz(rng.randint(0, top), rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))


def _terms(basis):
    return [list(e._d) for e in basis]


def test_block_kernel_equals_the_row_builder(monkeypatch):
    # an autonomous solve never writes its (T+1)(X+1)-fold system; its
    # basis must equal the canonical nullspace of the rows
    # _determining_rows writes from the same pieces, element for
    # element, in key order and printed
    seen = set()
    for pde, ansatz in _autonomous_pdes(65, 200):
        for solve in (solve_multipliers, solve_symmetries):
            got, basis, kmax, pieces = _solved(solve, pde, ansatz, monkeypatch)
            want = _row_kernel(basis, kmax, pieces)
            assert got == want
            assert _terms(got) == _terms(want)
            assert list(map(format_expr, got)) == list(map(format_expr, want))
            seen.add("empty" if not want else "nonempty")
        bounds = {"T = 0": ansatz.max_t_degree, "X = 0": ansatz.max_x_degree, "degree 0": ansatz.max_jet_degree}
        seen |= {name for name, v in bounds.items() if not v}
    assert seen == {"empty", "nonempty", "T = 0", "X = 0", "degree 0"}


def _typed_terms(basis):
    return [[(k, c, type(c)) for k, c in e._d.items()] for e in basis]


def test_block_kernel_keeps_coefficient_types(kdv, monkeypatch):
    # on the benchmark solves, the tests/data solve, the README's
    # symmetries and these random autonomous draws, the block kernel's
    # coefficients have the row builder's types, term for term.  That
    # does not hold for every autonomous solve: for u_tx = 3*u_xx - 2*u_x
    # - 2*u*u_x, multipliers in A(1,2,2,1), the block kernel makes the
    # coefficient 2 of t*u a Fraction where the row builder makes an
    # int; the values are equal.  Some levels of the draws reach a
    # residual row of P_(0,0), whose rows the kernel then eliminates
    # again.
    kdv5 = make_pde((1, 0), parse_expr("-u_xxxxx - 10*u*u_xxx - 25*u_x*u_xx - 20*u^2*u_x"))
    fixed = [
        (solve_symmetries, kdv, Ansatz(2, 3, 1, 1)),
        (solve_multipliers, kdv5, Ansatz(4, 3, 1, 1)),
        (solve_multipliers, kdv, Ansatz(2, 2, 1, 1)),
        (solve_symmetries, kdv, Ansatz(1, 1, 1, 1)),
    ]
    drawn = [
        (solve, pde, ansatz)
        for seed, n in ((65, 200), (67, 30))
        for pde, ansatz in _autonomous_pdes(seed, n)
        for solve in (solve_multipliers, solve_symmetries)
    ]
    levels = []
    joined = pure.Reduced.joined

    def counted(self, m):
        touched = [self.index[k] for k in m if k in self.index]
        levels.append(not self._reach(touched).isdisjoint(self.residual))
        return joined(self, m)

    sizes = []
    for solve, pde, ansatz in fixed + drawn:
        with pytest.MonkeyPatch.context() as spy:
            spy.setattr(pure.Reduced, "joined", counted)
            got, basis, kmax, pieces = _solved(solve, pde, ansatz, monkeypatch)
        want = _row_kernel(basis, kmax, pieces)
        assert got == want
        assert _typed_terms(got) == _typed_terms(want)
        sizes.append(len(got))
    assert all(sizes[: len(fixed)]) and len(drawn) == 460
    assert sum(levels) > 0


def test_explicit_t_or_x_takes_the_row_builder(heat, monkeypatch):
    # explicit t or x in G breaks the block structure, so such a solve
    # eliminates the rows of its determining system; an autonomous one
    # never writes them
    calls = []
    real = conslaw._determining_rows

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(conslaw, "_determining_rows", counted)
    solves = (solve_multipliers, solve_symmetries)
    for solve in solves:
        solve(heat, Ansatz(1, 1, 1, 1))
    assert calls == []
    for rhs in ("u_xx + x*u_x", "u_xx + t*u"):
        for solve in solves:
            solve(make_pde((1, 0), parse_expr(rhs)), Ansatz(1, 1, 1, 1))
    assert len(calls) == 4


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
    for solve, pde, ansatz in (
        (solve_symmetries, kdv, Ansatz(2, 3, 1, 1)),
        (solve_multipliers, kdv5, Ansatz(4, 3, 1, 1)),
    ):
        basis, rows = _rows(solve, pde, ansatz, monkeypatch)
        assert (len(basis), len(rows)) == ((336, 6119) if solve is solve_symmetries else (224, 2649))
        for e in basis:
            assert all(type(c) is int for c in e._d.values())
        for row in rows.values():
            assert row and all(type(c) is int for c in row.values())
