"""Exact linear algebra over the rationals.

All elimination runs on sparse rows, dicts {col: Fraction} holding
only the nonzero entries, through the kernel's rref.  Large systems
(the determining systems of conslaw and symmetry) are built as sparse
rows directly and solved by sparse_nullspace; rref, rank, nullspace and
solve on a dense QMatrix convert its rows and call the same routine.

Everything here is deterministic: rref is the (unique) reduced row
echelon form, nullspace returns the canonical basis read off the rref
with free coordinates in identity pattern, and eigenvalues are found as
rational roots of the characteristic polynomial.  Irrational or complex
eigenvalues are outside the scope of rational_eigenpairs and are simply
not reported.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from ._kernel import impl as _k

Vector = tuple[Fraction, ...]


class QMatrix:
    """Immutable matrix of Fractions."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(
            tuple(Fraction(v) for v in row) for row in rows
        )
        if self.rows:
            w = len(self.rows[0])
            if any(len(r) != w for r in self.rows):
                raise ValueError("ragged rows")

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        one, zero = Fraction(1), Fraction(0)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "QMatrix":
        z = Fraction(0)
        return cls([[z] * ncols for _ in range(nrows)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, QMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = other.ncols
        return QMatrix(
            [
                [
                    sum((a * other.rows[k][j] for k, a in enumerate(row)), Fraction(0))
                    for j in range(cols)
                ]
                for row in self.rows
            ]
        )

    def matvec(self, v) -> Vector:
        return tuple(
            sum((a * Fraction(x) for a, x in zip(row, v)), Fraction(0))
            for row in self.rows
        )

    def trace(self) -> Fraction:
        return sum((self.rows[i][i] for i in range(self.nrows)), Fraction(0))

    def add_scalar_diag(self, c: Fraction) -> "QMatrix":
        rows = [list(r) for r in self.rows]
        for i in range(len(rows)):
            rows[i][i] = rows[i][i] + c
        return QMatrix(rows)

    def __repr__(self) -> str:
        body = "; ".join(
            "[" + ", ".join(str(v) for v in row) + "]" for row in self.rows
        )
        return f"QMatrix({body})"


def _sparse_rows(rows) -> list[dict[int, Fraction]]:
    return [{j: v for j, v in enumerate(row) if v} for row in rows]


def rref(M: QMatrix) -> QMatrix:
    """Reduced row echelon form (unique for a given matrix), with the
    zero rows at the bottom."""
    rows, _ = _k.rref(_sparse_rows(M.rows))
    n = M.ncols
    zero = Fraction(0)
    dense = [[row.get(j, zero) for j in range(n)] for row in rows]
    dense += [[zero] * n for _ in range(M.nrows - len(rows))]
    return QMatrix(dense)


def rank(M: QMatrix) -> int:
    _, pivots = _k.rref(_sparse_rows(M.rows))
    return len(pivots)


def sparse_nullspace(rows, ncols: int) -> list[dict[int, Fraction]]:
    """Canonical basis of the right nullspace of a system of sparse rows
    {col: Fraction} in ncols unknowns, read off the rref.

    For each free column j the basis vector has 1 in coordinate j,
    minus the rref entry in each pivot coordinate, and 0 elsewhere; the
    vectors are ordered by free column and returned as sparse dicts
    with ascending keys.  Deterministic because the rref is unique.
    With no rows the basis is the identity.
    """
    rref_rows, pivots = _k.rref(rows)
    pivot_set = set(pivots)
    one = Fraction(1)
    basis = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        v = {j: one}
        for row, pc in zip(rref_rows, pivots):
            c = row.get(j)
            if c is not None:
                v[pc] = -c
        basis.append(dict(sorted(v.items())))
    return basis


def nullspace(M: QMatrix) -> list[Vector]:
    """Canonical basis of the right nullspace as dense vectors; see
    sparse_nullspace."""
    zero = Fraction(0)
    return [
        tuple(v.get(j, zero) for j in range(M.ncols))
        for v in sparse_nullspace(_sparse_rows(M.rows), M.ncols)
    ]


def solve(M: QMatrix, b) -> Vector | None:
    """One exact solution of M x = b (free variables set to 0), or None
    if the system is inconsistent."""
    b = [Fraction(v) for v in b]
    if len(b) != M.nrows:
        raise ValueError("shape mismatch")
    n = M.ncols
    aug = _sparse_rows(M.rows)
    for row, bv in zip(aug, b):
        if bv:
            row[n] = bv
    rows, pivots = _k.rref(aug)
    if pivots and pivots[-1] == n:
        return None
    zero = Fraction(0)
    x = [zero] * n
    for row, pc in zip(rows, pivots):
        x[pc] = row.get(n, zero)
    return tuple(x)


def charpoly(M: QMatrix) -> list[Fraction]:
    """Coefficients [1, c1, ..., cn] of det(lambda I - M), computed by
    the Faddeev-LeVerrier recurrence."""
    n = M.nrows
    if n != M.ncols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    coeffs = [Fraction(1)]
    Mk = M
    for k in range(1, n + 1):
        ck = -Mk.trace() / k
        coeffs.append(ck)
        if k < n:
            Mk = M @ Mk.add_scalar_diag(ck)
    return coeffs


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return sorted(out)


def rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """All distinct rational roots of the polynomial with the given
    coefficients (highest degree first)."""
    if not coeffs or all(c == 0 for c in coeffs):
        raise ValueError("zero polynomial")
    den_lcm = 1
    for c in coeffs:
        den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
    ints = [int(c * den_lcm) for c in coeffs]
    while ints and ints[0] == 0:
        ints.pop(0)
    roots = []
    while ints[-1] == 0:
        ints.pop()
        if Fraction(0) not in roots:
            roots.append(Fraction(0))
        if len(ints) == 0:
            return sorted(roots)

    def value(r: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in ints:
            acc = acc * r + c
        return acc

    lead, const = ints[0], ints[-1]
    for p in _divisors(const):
        for q in _divisors(lead):
            if gcd(p, q) != 1:
                continue
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand not in roots and value(cand) == 0:
                    roots.append(cand)
    return sorted(roots)


def rational_eigenpairs(M: QMatrix) -> list[tuple[Fraction, list[Vector]]]:
    """Rational eigenvalues of M with canonical eigenspace bases,
    sorted by eigenvalue.  Non-rational eigenvalues are not reported."""
    pairs = []
    for lam in rational_roots(charpoly(M)):
        vecs = nullspace(M.add_scalar_diag(-lam))
        if not vecs:
            raise AssertionError("eigenvalue without eigenvector")
        pairs.append((lam, vecs))
    return pairs
