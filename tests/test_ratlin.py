import random
import time
from fractions import Fraction

import pytest
import sympy as sp

from jetlaw import ratlin
from jetlaw._kernel import impl
from jetlaw.ratlin import (
    QMatrix,
    charpoly,
    nullspace,
    rank,
    rational_eigenpairs,
    rational_roots,
    rref,
    solve,
)

F = Fraction


def _rand_matrix(rng, m, n, bound=4):
    return QMatrix(
        [[F(rng.randint(-bound, bound), rng.randint(1, 2)) for _ in range(n)] for _ in range(m)]
    )


def matvec(M, v):
    return tuple(sum((a * F(x) for a, x in zip(row, v)), F(0)) for row in M.rows)


def test_qmatrix_basics():
    M = QMatrix([[1, 2], [3, 4]])
    assert M.nrows == 2 and M.ncols == 2
    assert M[0, 1] == 2
    assert all(type(v) is F for row in M.rows for v in row)
    assert M == QMatrix([[F(1), F(2)], [F(3), F(4)]]) != QMatrix([[1, 2], [3, 5]])
    assert hash(M) == hash(QMatrix([[1, 2], [3, 4]]))
    with pytest.raises(ValueError):
        QMatrix([[1, 2], [3]])


def test_rref_known_case():
    M = QMatrix([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    R = rref(M)
    assert R == QMatrix([[1, 0, -1], [0, 1, 2], [0, 0, 0]])
    assert rank(M) == 2


def test_rref_is_idempotent_and_canonical():
    rng = random.Random(31)
    for _ in range(20):
        M = _rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        R = rref(M)
        assert rref(R) == R
        # each pivot, the leading entry of a nonzero row, is 1 and is
        # alone in its column; the zero rows come last
        pivots = [next(j for j, v in enumerate(row) if v) for row in R.rows if any(row)]
        assert all(any(row) for row in R.rows[: len(pivots)])
        assert pivots == sorted(set(pivots))
        assert len(pivots) == rank(M)
        sparse = [{j: v for j, v in enumerate(row) if v} for row in M.rows]
        assert impl.rref(sparse)[1] == pivots
        for r, c in enumerate(pivots):
            assert R[r, c] == 1
            assert all(R[i, c] == 0 for i in range(R.nrows) if i != r)


def test_rank_nullity():
    rng = random.Random(32)
    for _ in range(20):
        M = _rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        assert rank(M) + len(nullspace(M)) == M.ncols


def test_nullspace_vectors_are_in_the_kernel():
    rng = random.Random(33)
    for _ in range(15):
        M = _rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        for v in nullspace(M):
            assert matvec(M, v) == (F(0),) * M.nrows
        assert nullspace(M) == nullspace(M)


def test_solve_consistent_and_inconsistent():
    M = QMatrix([[1, 1], [1, -1]])
    assert solve(M, (2, 0)) == (F(1), F(1))
    singular = QMatrix([[1, 1], [2, 2]])
    assert solve(singular, (1, 3)) is None
    # underdetermined: free variables are pinned to zero
    wide = QMatrix([[1, 2, 3]])
    xvec = solve(wide, (6,))
    assert xvec == (F(6), F(0), F(0))
    assert matvec(wide, xvec) == (F(6),)


def test_solve_random_round_trip():
    rng = random.Random(34)
    for _ in range(15):
        n = rng.randint(1, 5)
        M = _rand_matrix(rng, n, n)
        xs = tuple(F(rng.randint(-3, 3)) for _ in range(n))
        b = matvec(M, xs)
        got = solve(M, b)
        assert got is not None
        assert matvec(M, got) == b


def _sympy_matrix(M):
    return sp.Matrix(M.nrows, M.ncols, lambda i, j: sp.Rational(M[i, j].numerator, M[i, j].denominator))


def _charpoly_battery():
    """Square matrices with n = 0..7: dense, upper triangular, with zero
    sub-diagonal entries above nonzero ones, and with large coprime
    denominators."""
    rng = random.Random(35)
    primes = [101, 103, 107, 109, 113, 127, 2**31 - 1, 2**61 - 1]
    out = [QMatrix([])]
    for n in range(1, 8):
        for _ in range(3):
            out.append(_rand_matrix(rng, n, n))
            M = _rand_matrix(rng, n, n)
            out.append(QMatrix([[v if i <= j else 0 for j, v in enumerate(row)] for i, row in enumerate(M.rows)]))
            # a zero sub-diagonal entry with nonzero entries below it
            M = [list(row) for row in _rand_matrix(rng, n, n).rows]
            for i in range(1, n):
                M[i][i - 1] = F(0)
            if n > 2:
                M[n - 1][0] = F(rng.choice([-3, -1, 1, 2]))
            out.append(QMatrix(M))
            out.append(QMatrix([[F(rng.randint(-10**6, 10**6), rng.choice(primes)) for _ in range(n)] for _ in range(n)]))
    # integer spectra, so that every eigenvalue is rational
    for n in range(1, 6):
        diag = [rng.randint(-3, 3) for _ in range(n)]
        P = sp.eye(n)
        for _ in range(4):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                P[i, :] = P[i, :] + sp.Rational(rng.randint(-2, 2), rng.randint(1, 3)) * P[j, :]
        A = P * sp.diag(*diag) * P.inv()
        out.append(QMatrix([[F(int(A[i, j].p), int(A[i, j].q)) for j in range(n)] for i in range(n)]))
    return out


def test_charpoly_matches_sympy():
    lam = sp.Symbol("lam")
    for M in _charpoly_battery():
        ours = charpoly(M)
        want = _sympy_matrix(M).charpoly(lam).all_coeffs() if M.nrows else [1]
        assert [sp.Rational(c.numerator, c.denominator) for c in ours] == want, M
        assert all(type(c) is F for c in ours)


def test_eigenpairs_match_sympy():
    # the rational roots of sympy's characteristic polynomial, each with
    # sympy's nullspace basis of A - lambda I: it sets one free
    # coordinate to 1 and the others to 0, the canonical basis
    lam = sp.Symbol("lam")
    found = 0
    for M in _charpoly_battery():
        A = _sympy_matrix(M)
        roots = sp.Poly(A.charpoly(lam).as_expr(), lam, domain="QQ").ground_roots() if M.nrows else {}
        want = []
        for ev in sorted(roots):
            space = (A - ev * sp.eye(M.nrows)).nullspace()
            want.append((F(int(ev.p), int(ev.q)), [tuple(F(int(c.p), int(c.q)) for c in v) for v in space]))
        assert rational_eigenpairs(M) == want, M
        found += len(want)
    assert found > 30


def _charpoly_eigenpairs(M):
    """rational_eigenpairs by the characteristic polynomial alone: its
    rational roots, each with the canonical nullspace of M - lambda I."""
    shifted = lambda lam: QMatrix([[v - lam if i == j else v for j, v in enumerate(row)] for i, row in enumerate(M.rows)])
    return [(lam, nullspace(shifted(lam))) for lam in rational_roots(charpoly(M))]


def _triangular_matrix(rng, n, lower, fractions):
    """A random upper or lower triangular n x n matrix, its diagonal
    drawn from a few values so that eigenvalues repeat."""
    den = (lambda: rng.randint(1, 3)) if fractions else (lambda: 1)
    diag = [F(rng.choice([-2, 0, 1, 3]), den()) for _ in range(n)]
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = diag[i]
        for j in range(i) if lower else range(i + 1, n):
            if rng.random() < 0.5:
                rows[i][j] = F(rng.randint(-3, 3), den())
    return QMatrix(rows)


def test_triangular_eigenpairs_match_the_characteristic_polynomial(monkeypatch):
    # a triangular matrix's eigenvalues are read off its diagonal without
    # the characteristic polynomial; the eigenvalues, their order and
    # the eigenspace bases are those the polynomial's roots give
    rng = random.Random(31)
    calls = []
    int_charpoly = ratlin._int_charpoly
    monkeypatch.setattr(ratlin, "_int_charpoly", lambda A: calls.append(len(A)) or int_charpoly(A))
    cases = []
    for n in range(1, 7):
        for fractions in (False, True):
            for lower in (False, True) * 3:
                cases.append((_triangular_matrix(rng, n, lower, fractions), True))
            if n > 1:
                # one entry on each side of the diagonal: not triangular
                rows = [list(row) for row in _triangular_matrix(rng, n, False, fractions).rows]
                rows[n - 1][0], rows[0][n - 1] = F(1), F(-2)
                cases.append((QMatrix(rows), False))
    cases += [(M, None) for M in _charpoly_battery()]
    found = 0
    for M, triangular in cases:
        del calls[:]
        got = rational_eigenpairs(M)
        if triangular is not None:
            assert bool(calls) is not triangular, M
        want = _charpoly_eigenpairs(M)
        assert got == want, M
        assert all(type(lam) is F and all(type(c) is F for v in vs for c in v) for lam, vs in got)
        found += sum(len(vs) for _, vs in got)
    assert found > 150


def test_charpoly_trace_and_det():
    M = QMatrix([[2, 1], [1, 2]])
    cs = charpoly(M)
    assert cs[0] == 1
    assert cs[1] == -(M[0, 0] + M[1, 1])
    assert cs[2] == 3  # det(M) for n = 2

    with pytest.raises(ValueError):
        charpoly(QMatrix([[1, 2, 3]]))
    with pytest.raises(ValueError):
        rational_eigenpairs(QMatrix([[1, 2, 3]]))


def test_rational_roots():
    # (x - 1)(x + 2)(2x - 3)
    poly = [F(2), F(-1), F(-7), F(6)]
    assert rational_roots(poly) == [F(-2), F(1), F(3, 2)]
    assert rational_roots([F(1), F(0), F(-2)]) == []  # x^2 - 2
    assert rational_roots([F(1), F(0)]) == [F(0)]
    assert rational_roots([F(1, 3), F(-1, 6)]) == [F(1, 2)]
    with pytest.raises(ValueError):
        rational_roots([F(0)])


def test_rational_roots_match_sympy():
    # random products of linear factors, irreducible quadratics and
    # repeated factors, with a common rational denominator
    rng = random.Random(37)
    x = sp.Symbol("x")
    for _ in range(60):
        expr = sp.Integer(rng.choice([1, -1, 3, -7]))
        for _ in range(rng.randint(1, 5)):
            k = rng.random()
            if k < 0.6:
                expr *= (rng.randint(1, 30) * x - rng.randint(-60, 60)) ** rng.randint(1, 2)
            elif k < 0.8:
                expr *= x**2 + rng.randint(1, 50)
            else:
                expr *= rng.randint(1, 9) * x**2 - rng.choice([2, 3, 5, 7]) * rng.randint(1, 5) ** 2
        poly = sp.Poly(sp.expand(expr), x, domain="QQ")
        den = rng.randint(1, 5)
        coeffs = [F(int(c.p), int(c.q) * den) for c in poly.all_coeffs()]
        want = sorted(F(int(r.p), int(r.q)) for r in poly.ground_roots())
        assert rational_roots(coeffs) == want


def test_rational_roots_of_huge_constants_are_fast():
    # trial division up to sqrt|c| would take about 10^20 steps here
    p, q = 10**20 + 39, -(10**20 + 129)
    x = sp.Symbol("x")
    poly = sp.Poly(sp.expand((x - p) * (3 * x - q) * (x**2 + 5) * (2 * x**2 - 7)), x)
    coeffs = [F(int(c)) for c in poly.all_coeffs()]
    assert abs(coeffs[-1]) > 10**40
    start = time.perf_counter()
    roots = rational_roots(coeffs)
    assert time.perf_counter() - start < 1.0
    assert roots == [F(q, 3), F(p)]


def test_rational_eigenpairs_examples():
    M = QMatrix([[2, 0], [0, F(1, 2)]])
    pairs = rational_eigenpairs(M)
    assert [lam for lam, _ in pairs] == [F(1, 2), F(2)]
    # nilpotent block: single eigenvalue 0 with a 1-dim eigenspace
    N = QMatrix([[0, 1], [0, 0]])
    pairs = rational_eigenpairs(N)
    assert len(pairs) == 1
    lam, vecs = pairs[0]
    assert lam == 0 and vecs == [(F(1), F(0))]


def test_eigenpairs_satisfy_the_eigen_equation():
    rng = random.Random(36)
    for _ in range(10):
        n = rng.randint(1, 4)
        # build a matrix with known rational spectrum: conjugate a
        # diagonal by a unimodular integer matrix
        diag = [F(rng.randint(-3, 3)) for _ in range(n)]
        P = sp.eye(n)
        for _ in range(3):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                P[i, :] = P[i, :] + rng.randint(-2, 2) * P[j, :]
        A = P * sp.diag(*[sp.Rational(d) for d in diag]) * P.inv()
        M = QMatrix([[F(int(A[i, j].p), int(A[i, j].q)) for j in range(n)] for i in range(n)])
        pairs = rational_eigenpairs(M)
        assert set(lam for lam, _ in pairs) == set(diag)
        for lam, vecs in pairs:
            assert vecs
            for v in vecs:
                assert matvec(M, v) == tuple(lam * vi for vi in v)
