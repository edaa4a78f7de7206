"""Exact linear algebra over the rationals.

All elimination runs on sparse rows, dicts {col: coefficient} holding
only the nonzero entries, through the kernel's rref; a coefficient is
an int or a Fraction, as in jetlaw._kernel.  Large systems
(the determining systems of conslaw and symmetry) are built as sparse
rows directly and solved by sparse_nullspace; rref, rank, nullspace and
solve on a dense QMatrix convert its rows and call the same routine.

Everything here is deterministic: rref is the (unique) reduced row
echelon form, nullspace returns the canonical basis read off the rref
with free coordinates in identity pattern, and eigenvalues are found as
rational roots of the characteristic polynomial, isolated by a Sturm
sequence rather than by factoring its coefficients, or read off the
diagonal of a triangular matrix.  Both work on the integer matrix d M,
d the lcm of the denominators of M.  Irrational or complex eigenvalues
are outside the scope of rational_eigenpairs and are simply not
reported.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

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


def sparse_nullspace(rows, ncols: int) -> list[dict[int, int | Fraction]]:
    """Canonical basis of the right nullspace of a system of sparse rows
    {col: int or Fraction} in ncols unknowns, read off the rref.

    For each free column j the basis vector has 1 in coordinate j,
    minus the rref entry in each pivot coordinate, and 0 elsewhere; the
    vectors are ordered by free column and returned as sparse dicts
    with ascending keys, their entries ints where the rref's are.
    Deterministic because the rref is unique.  With no rows the basis is
    the identity.
    """
    return echelon_nullspace(*_k.rref(rows), ncols)


def echelon_nullspace(rows, pivots, ncols: int) -> list[dict[int, int | Fraction]]:
    """sparse_nullspace of a system given by its rref (rows, pivots)."""
    basis = {j: {j: 1} for j in range(ncols)}
    for pc in pivots:
        del basis[pc]
    # a row of the rref holds its pivot and free columns only
    for row, pc in zip(rows, pivots):
        for j, c in row.items():
            if j != pc:
                basis[j][pc] = -c
    return [dict(sorted(v.items())) for v in basis.values()]


def _dense_nullspace(rows, ncols: int) -> list[Vector]:
    """sparse_nullspace with its vectors as dense tuples of Fractions."""
    return [
        tuple(Fraction(v.get(j, 0)) for j in range(ncols))
        for v in sparse_nullspace(rows, ncols)
    ]


def nullspace(M: QMatrix) -> list[Vector]:
    """Canonical basis of the right nullspace as dense vectors; see
    sparse_nullspace."""
    return _dense_nullspace(_sparse_rows(M.rows), M.ncols)


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


def _cleared(values) -> tuple[int, list[int]]:
    """(d, d values) for rationals values, d the lcm of their
    denominators, with the entries of d values as ints."""
    d = lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def _integral(M: QMatrix) -> tuple[int, list[list[int]]]:
    """(d, d M) for a square M, d the lcm of its denominators, with the
    entries of d M as ints."""
    n = M.nrows
    if n != M.ncols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    d, flat = _cleared([v for row in M.rows for v in row])
    return d, [flat[i * n : (i + 1) * n] for i in range(n)]


def _int_charpoly(A: list[list[int]]) -> list[int]:
    """Coefficients [1, c1, ..., cn] of det(lambda I - A) for a square
    integer matrix A, by Berkowitz's division-free algorithm (Inform.
    Process. Lett. 18, 1984), in ints throughout.

    With A_r the leading r x r block, R and C the first r entries of row
    and column r and a = A[r][r], the polynomial of A_(r+1) is that of A_r
    multiplied by the lower triangular Toeplitz matrix whose first column
    is 1, -a, -R C, -R A_r C, ..., -R A_r^(r-1) C: O(n^4) operations.
    """
    p = [1]
    for r in range(len(A)):
        t = [1, -A[r][r]]
        col = [row[r] for row in A[:r]]
        for _ in range(r):
            t.append(-sum(a * c for a, c in zip(A[r], col)))
            col = [sum(a * c for a, c in zip(row, col)) for row in A[:r]]
        p = [sum(t[k - j] * c for j, c in enumerate(p[: k + 1])) for k in range(r + 2)]
    return p


def charpoly(M: QMatrix) -> list[Fraction]:
    """Coefficients [1, c1, ..., cn] of det(lambda I - M): with d the lcm
    of the denominators of M, c_k = e_k / d^k for the coefficients e_k
    of the integer matrix d M (_int_charpoly)."""
    d, A = _integral(M)
    return [Fraction(c, d**k) for k, c in enumerate(_int_charpoly(A))]


def _horner(p: list, v):
    acc = 0
    for c in p:
        acc = acc * v + c
    return acc


def _divmod(a: list, b: list) -> tuple[list, list]:
    """Quotient and remainder of a by b, coefficient lists (highest
    degree first) over Fraction with b[0] != 0; the remainder has no
    leading zeros."""
    a = list(a)
    q = []
    while len(a) >= len(b):
        f = a[0] / b[0]
        q.append(f)
        for i in range(1, len(b)):
            a[i] -= f * b[i]
        a.pop(0)
    while a and not a[0]:
        a.pop(0)
    return q, a


def _derivative(p: list) -> list:
    n = len(p) - 1
    return [c * (n - i) for i, c in enumerate(p[:-1])]


def _positive_integral(p: list) -> list[int]:
    """The primitive integer polynomial that is a positive multiple of p."""
    _, ints = _cleared(p)
    g = gcd(*ints)
    return [c // g for c in ints]


def _integer_roots(monic: list[int]) -> list[int]:
    """The distinct integer roots of a monic integer polynomial of degree
    at least 1.

    A Sturm sequence of the square-free part S counts the distinct real
    roots in (lo, hi] as V(lo) - V(hi), V the number of sign changes.
    Every root has |y| <= 2 max_i |c_i|^(1/i) (Fujiwara's bound, rounded
    up to a power of 2 here), and the integer intervals inside it that
    hold a root are bisected down to width 1; the one integer such an
    interval can hold, its right end, is then checked exactly.  The work
    grows with the degree and the bit length of the coefficients.
    """
    p = [Fraction(c) for c in monic]
    g, h = p, _derivative(p)
    while h:
        g, h = h, _divmod(g, h)[1]
    square_free = _divmod(p, g)[0]
    seq = [square_free, _derivative(square_free)]
    while len(seq[-1]) > 1:
        # S is square-free, so no remainder in its sequence vanishes
        seq.append([-c for c in _divmod(seq[-2], seq[-1])[1]])
    seq = [_positive_integral(q) for q in seq]

    def changes(v: int) -> int:
        n, last = 0, 0
        for q in seq:
            s = _horner(q, v)
            if s:
                if (s > 0) != (last > 0) and last:
                    n += 1
                last = s
        return n

    # |c_i|^(1/i) <= 2^ceil(bits(c_i) / i); the constant term is nonzero
    bits = max(-(-abs(c).bit_length() // i) for i, c in enumerate(monic[1:], 1) if c)
    lo, hi = -(2 << bits) - 1, 2 << bits
    found = []
    stack = [(lo, changes(lo), hi, changes(hi))]
    while stack:
        lo, vlo, hi, vhi = stack.pop()
        if vlo == vhi:
            continue
        if hi - lo == 1:
            if _horner(monic, hi) == 0:
                found.append(hi)
            continue
        mid = (lo + hi) // 2
        vmid = changes(mid)
        stack.append((lo, vlo, mid, vmid))
        stack.append((mid, vmid, hi, vhi))
    return found


def rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """All distinct rational roots of the polynomial with the given
    coefficients (highest degree first).

    With denominators cleared and the root 0 taken out, the polynomial
    a_n x^n + ... + a_0 becomes, under y = a_n x, the monic integer
    polynomial y^n + a_(n-1) y^(n-1) + a_(n-2) a_n y^(n-2) + ... +
    a_0 a_n^(n-1).  Its rational roots are integers, found by
    _integer_roots without factoring any coefficient, and x = y / a_n.
    """
    if not coeffs or all(c == 0 for c in coeffs):
        raise ValueError("zero polynomial")
    _, ints = _cleared(coeffs)
    while ints and ints[0] == 0:
        ints.pop(0)
    roots = []
    while ints[-1] == 0:
        ints.pop()
        if Fraction(0) not in roots:
            roots.append(Fraction(0))
    if len(ints) == 1:
        return roots
    lead = ints[0]
    monic = [1] + [c * lead ** (i - 1) for i, c in enumerate(ints[1:], 1)]
    roots += [Fraction(y, lead) for y in _integer_roots(monic)]
    return sorted(roots)


def _triangular(A: list[list[int]]) -> bool:
    """Whether the square matrix A is upper or lower triangular."""
    n = len(A)
    return not any(A[i][j] for i in range(n) for j in range(i)) or not any(
        A[i][j] for i in range(n) for j in range(i + 1, n)
    )


def rational_eigenpairs(M: QMatrix) -> list[tuple[Fraction, list[Vector]]]:
    """Rational eigenvalues of M with canonical eigenspace bases,
    sorted by eigenvalue.  Non-rational eigenvalues are not reported.

    With d the lcm of the denominators of M, the integer matrix d M has
    the eigenvalues d lambda, integers since its characteristic
    polynomial is monic, and the same eigenvectors; each eigenspace is
    the canonical nullspace of the integer rows of d M - d lambda I,
    which scaling a system does not change.  A triangular d M has its
    eigenvalues on its diagonal, so they are read off there, without
    the characteristic polynomial."""
    d, A = _integral(M)
    n = len(A)
    if _triangular(A):
        mus = sorted({A[i][i] for i in range(n)})
    else:
        mus = [int(mu) for mu in rational_roots(_int_charpoly(A))]
    pairs = []
    for mu in mus:
        shifted = [[v - mu if i == j else v for j, v in enumerate(row)] for i, row in enumerate(A)]
        vecs = _dense_nullspace(_sparse_rows(shifted), n)
        if not vecs:
            raise AssertionError("eigenvalue without eigenvector")
        pairs.append((Fraction(mu, d), vecs))
    return pairs
