"""Conservation laws of a normal PDE and their multipliers.

A conserved current of G = 0 is a pair (T, X) with D_t T + D_x X = 0 on
the solution space.  Its multiplier is the expression Q with

    D_t T + D_x X = Q G + (terms vanishing on the solution space),

recovered here as Q = R*(1) from the operator R with R(G) = D_t T + D_x X;
conversely every multiplier Q, characterized by E_u(Q G) = 0, yields a
current by inverting the divergence Q G.  A current is trivial (equal
to a curl modulo terms vanishing on solutions) exactly when its
multiplier vanishes on the solution space.

Multipliers are plain DiffExpr values throughout.  solve_multipliers
finds all of them within a polynomial ansatz of differential order
strictly below the order of the PDE by solving E_u(Q G) = 0 as an exact
linear system for the ansatz coefficients.

Every ansatz monomial is p m0 with p = t^a x^b and m0 a pure jet
monomial, and both solves get the images of all (T+1)(X+1) monomials
sharing a jet part m0 from pieces computed once for m0, by two
Leibniz-rule identities:

    E_u(p m0 G) = sum_K D^K(p) A_K(m0 G)                    (multipliers)
    restrict(G'(p m0)) = sum_K D^K(p) restrict(F_K(m0))    (symmetries)

with A_K the standard coefficients of the adjoint Fréchet derivative
(E_u(p f) = f'*(p)) and F_K the Leibniz pieces of the Fréchet derivative
(diffops.euler_pieces, diffops.frechet_pieces), and
D^K(t^a x^b) = a^(kt) b^(kx) t^(a-kt) x^(b-kx) in falling factorials.
restrict is linear over polynomials in t and x, so the second identity
holds on the solution space too.  Both solves are one call of the
driver _solve, given their pieces.  It checks the ansatz order, lays
out the ansatz and groups its columns by jet part into one table,
column j -> (a, b, jet part), computing the pieces once per part
(_jet_part_table); the two paths below read that table and differ
only in how they take the kernel.  When G is free of t and x, so is
every piece, the system is block upper triangular in the levels
t^a x^b with the pieces of K = (0, 0) on every diagonal block, and the
kernel is taken level by level from the pieces alone (_block_kernel),
their rows of K = (0, 0) eliminated once for all levels.  Explicit t
or x in G breaks that structure; then each term of an image goes
straight into the equation of its monomial (_determining_rows) and the
whole system is eliminated at once.

The queries are linear: current_from_multiplier in Q and
multiplier_from_current in the pair (T, X).  Each runs on the integral
primitive part d Q (or d T, d X with one d; expr.primitive_parts),
where the kernel makes no Fraction, and divides its result by d once
(the divided result has Fraction coefficients throughout; with d = 1
nothing is divided).  current_from_multiplier inverts n d Q G, n the
divisor of the divergence inversion, and divides by n d once, so its
result has Fraction coefficients throughout.  A predicate such as
is_trivial_current keeps the primitive part.  An error message shows
the input as given.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, groupby
from math import comb, perm
from typing import NamedTuple

from ._kernel import impl as _k
from .diffops import (
    ConservedCurrent,
    _scaled_inverse,
    divergence,
    euler,
    euler_pieces,
    frechet_adjoint,
)
from .errors import (
    AnsatzError,
    NotADivergence,
    NotAdjointSymmetry,
    NotAMultiplier,
    NotConserved,
    NotOnSolutionSpace,
)
from .expr import ONE, ZERO, DiffExpr, JetIndex, primitive_parts
from .grammar import format_brief
from .ratlin import echelon_nullspace, sparse_nullspace
from .soln import NormalPDE, extract_operator, restrict

# the most monomials an ansatz may have: the solves in use have up to
# 1,890, and KdV symmetries in A(2,5,2,2), 4,158, take about 0.55 s in a
# fresh process (0.50-0.67 s over six runs on a 2-core Xeon)
MAX_ANSATZ = 10_000


class _AnsatzBounds(NamedTuple):
    max_order: int = 1
    max_jet_degree: int = 1
    max_t_degree: int = 1
    max_x_degree: int = 1


class Ansatz(_AnsatzBounds):
    """Bounds of the polynomial ansatz: differential order of the jets,
    total degree in the jets, and degrees in the explicit t and x."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, v in zip(self._fields, self):
            if not isinstance(v, int) or v < 0:
                raise AnsatzError(f"{name} must be a non-negative integer, got {v!r}")
        return self


def _jet_count(order: int) -> int:
    """The number of jets (i, j) with i + j <= order."""
    return (order + 1) * (order + 2) // 2 if order >= 0 else 0


def ansatz_monomials(
    pde: NormalPDE, ansatz: Ansatz, *, include_consequences: bool = False
) -> list[DiffExpr]:
    """All monomials t^a x^b prod u_J^e within the ansatz bounds, in
    ascending monomial order.

    Consequence jets of the PDE lead are omitted unless requested:
    multiplier candidates are canonical representatives on the solution
    space, while symmetry characteristics may involve any jet.

    Raises AnsatzError, before building any monomial, when there would
    be more than MAX_ANSATZ of them.
    """
    n = _jet_count(ansatz.max_order)
    if not include_consequences:
        n -= _jet_count(ansatz.max_order - pde.lead.order)
    d = ansatz.max_jet_degree
    size = (ansatz.max_t_degree + 1) * (ansatz.max_x_degree + 1)
    # C(n + d, d) jet parts; it is at least n + d when n, d >= 1, which
    # bounds the cost of computing it
    if (
        size > MAX_ANSATZ
        or (n and d and n + d > MAX_ANSATZ)
        or size * comb(n + d, d) > MAX_ANSATZ
    ):
        raise AnsatzError(f"the ansatz has more than {MAX_ANSATZ} monomials")
    jets = sorted(
        JetIndex(i, o - i)
        for o in range(ansatz.max_order + 1)
        for i in range(o + 1)
        if include_consequences or not pde.is_consequence(JetIndex(i, o - i))
    )
    # each combination runs through the sorted jets, so its runs give the
    # (nt, nx, e) triples in order; the jet parts sorted in that tuple
    # form, once, and the grid of t^a x^b laid out around them fix the
    # column order
    parts = sorted(
        tuple((j.nt, j.nx, len(list(run))) for j, run in groupby(combo))
        for deg in range(d + 1)
        for combo in combinations_with_replacement(jets, deg)
    )
    return [
        DiffExpr._raw({_k.encode(a, b, jp): 1})
        for a in range(ansatz.max_t_degree + 1)
        for b in range(ansatz.max_x_degree + 1)
        for jp in parts
    ]


def verify_conservation_law(current, pde: NormalPDE) -> bool:
    """Whether D_t T + D_x X vanishes on the solution space."""
    return restrict(divergence(current), pde).is_zero


def _divided(e: DiffExpr, d: int) -> DiffExpr:
    """e / d; e itself for d = 1, whose int coefficients dividing by
    Fraction(1, 1) would turn into Fractions."""
    return e / d if d > 1 else e


def _primitive_multiplier(current, pde: NormalPDE) -> tuple[int, DiffExpr]:
    """(d, d Q) for the multiplier Q of a current (T, X), d the common
    denominator of T and X: R*(1) for the operator R with
    R(G) = D_t (d T) + D_x (d X).  Raises NotConserved, showing the
    divergence of the current as given."""
    d, parts = primitive_parts(*current)
    try:
        r = extract_operator(divergence(parts), pde)
    except NotOnSolutionSpace:
        div = format_brief(divergence(current))
        raise NotConserved(f"not conserved: D_t T + D_x X = {div} off the solution space") from None
    return d, r.adjoint(ONE)


def multiplier_from_current(current, pde: NormalPDE) -> DiffExpr:
    """The multiplier Q of a conserved current, via Q = R*(1) for the
    operator R with R(G) = D_t T + D_x X.  Raises NotConserved."""
    d, q = _primitive_multiplier(current, pde)
    return _divided(q, d)


def is_trivial_current(current, pde: NormalPDE) -> bool:
    """Whether a conserved current is trivial, which holds exactly when
    its multiplier vanishes on the solution space."""
    return restrict(_primitive_multiplier(current, pde)[1], pde).is_zero


def check_multiplier(q: DiffExpr, pde: NormalPDE) -> bool:
    """The defining identity of a multiplier: E_u(q G) = 0 identically."""
    return euler(q * pde.G).is_zero


def check_adjoint_symmetry(q: DiffExpr, pde: NormalPDE) -> bool:
    """Whether the adjoint linearization of G annihilates q on the
    solution space."""
    return restrict(frechet_adjoint(pde.G, q), pde).is_zero


def helmholtz_check(q: DiffExpr, pde: NormalPDE) -> bool:
    """The Helmholtz-type condition singling multipliers out among
    adjoint-symmetries: with R the operator of frechet_adjoint(G, q),
    the operator R* + q' vanishes on the solution space, checked
    coefficient by coefficient in standard form.  Together with
    check_adjoint_symmetry this is equivalent to check_multiplier.
    Raises NotAdjointSymmetry when the precondition fails."""
    try:
        r = extract_operator(frechet_adjoint(pde.G, q), pde)
    except NotOnSolutionSpace:
        raise NotAdjointSymmetry(f"not an adjoint-symmetry: {format_brief(q)}") from None
    adj = r.adjoint_coeffs()
    keys = set(adj)
    qjets = {(idx.nt, idx.nx) for idx in q.jet_indices()}
    keys.update(qjets)
    for key in keys:
        total = adj.get(key, ZERO) + q.partial(key)
        if not restrict(total, pde).is_zero:
            return False
    return True


def current_from_multiplier(q: DiffExpr, pde: NormalPDE) -> ConservedCurrent:
    """A conserved current with divergence q G, by exact divergence
    inversion.  Raises NotAMultiplier."""
    d, (qd,) = primitive_parts(q)
    try:
        n, T, X = _scaled_inverse(qd * pde.G)
    except NotADivergence:
        raise NotAMultiplier(f"E_u(q G) != 0 for q = {format_brief(q)}") from None
    # invert_divergence(qd G) is (T, X) / n; one division for both scales
    return ConservedCurrent(T / (n * d), X / (n * d))


def _monomial_equations(maps) -> dict:
    """The sparse linear system sum_j c_j maps[j] = 0 in the unknowns
    c_j, for raw maps {monomial key: coefficient}: one equation
    {j: coefficient} per monomial occurring in them, by monomial key."""
    rows: dict = {}
    for j, e in enumerate(maps):
        _k.mul_into_rows(rows, j, _k.ONE_MONO, 1, e)
    return rows


def _solve(pde: NormalPDE, ansatz: Ansatz, pieces, include_consequences: bool = False) -> list[DiffExpr]:
    """The canonical basis of the kernel of a solve's linear map L of
    the ansatz monomials p m0, p = t^a x^b and m0 a pure jet monomial of
    coefficient 1:

        L(p m0) = sum_{K <= (a, b)} D^K(p) pieces(m0, kmax)[K]

    with kmax = (max_t_degree, max_x_degree) and pieces returning raw
    terms {K: dict}, absent K meaning zero.  Raises AnsatzError unless
    the ansatz order is below the PDE order, then lays out the ansatz
    and its table of jet parts (_jet_part_table), so pieces runs once
    per jet part.  The kernel is taken block by block (_block_kernel)
    when G, and so every piece, is free of t and x; otherwise, explicit
    t or x breaking the block structure, by eliminating the rows of L
    (_determining_rows)."""
    n = pde.G.max_order()
    if ansatz.max_order >= n:
        raise AnsatzError(
            f"ansatz order {ansatz.max_order} is not below the PDE order {n}; "
            "only low-order candidates are solved for"
        )
    basis = ansatz_monomials(pde, ansatz, include_consequences=include_consequences)
    where, ps = _jet_part_table(basis, (ansatz.max_t_degree, ansatz.max_x_degree), pieces)
    if pde.G.depends_on("t") or pde.G.depends_on("x"):
        return _null_combinations(basis, _determining_rows(where, ps).values())
    return _block_kernel(basis, where, ps)


def _jet_part_table(basis: list[DiffExpr], kmax: tuple, pieces) -> tuple[list, list]:
    """(where, ps) for monomials basis[j] = t^a x^b m0: where[j] is
    (a, b, i) with m0 the i-th jet part, the parts in first-use order,
    and ps[i] = pieces(m0, kmax), computed once per part."""
    parts: dict = {}
    where = []
    for m in basis:
        (key,) = m._d
        a, b, m0 = _k.split_tx(key)
        where.append((a, b, parts.setdefault(m0, len(parts))))
    return where, [pieces(DiffExpr._raw({m0: 1}), kmax) for m0 in parts]


def _determining_rows(where: list, ps: list) -> dict:
    """The equations {j: coefficient}, by monomial key, of
    sum_j c_j L(basis[j]) = 0 for the map L of _solve, given its table
    of jet parts (_jet_part_table): column j at where[j] = (a, b, i) has
    the image sum_K D^K(t^a x^b) ps[i][K], with
    D^K(t^a x^b) = a (a-1) ... (a-kt+1) b ... (b-kx+1) t^(a-kt) x^(b-kx),
    so each term of a shifted, scaled piece goes straight into the
    equation of its monomial (mul_into_rows); no image is built.  The
    columns are written jet part by jet part, each part's in column
    order.  The solves write these rows only for G with explicit t or
    x; for autonomous G, _block_kernel takes the kernel from the pieces
    alone, and these rows are its oracle in the tests."""
    rows: dict = {}
    for j in sorted(range(len(where)), key=lambda j: where[j][2]):
        a, b, i = where[j]
        for (kt, kx), piece in ps[i].items():
            if kt <= a and kx <= b:
                _k.mul_into_rows(rows, j, _k.encode(a - kt, b - kx), perm(a, kt) * perm(b, kx), piece)
    return rows


def _combinations(basis: list[DiffExpr], vectors) -> list[DiffExpr]:
    """sum_j c_j basis[j] for each vector c = {j: c_j} of vectors."""
    out = []
    for v in vectors:
        acc: dict = {}
        for j, coeff in v.items():
            _k.mul_into(acc, _k.ONE_MONO, coeff, basis[j]._d)
        out.append(DiffExpr._raw(acc))
    return out


def _null_combinations(basis: list[DiffExpr], rows) -> list[DiffExpr]:
    """sum_j c_j basis[j] for each c of the canonical nullspace of rows."""
    return _combinations(basis, sparse_nullspace(rows, len(basis)))


def _block_kernel(basis: list[DiffExpr], where: list, ps: list) -> list[DiffExpr]:
    """_null_combinations(basis, _determining_rows(where, ps).values())
    for pieces free of t and x, without writing those rows.

    Then L = sum_K S_K (x) P_K, S_K = D^K on the polynomials in t and x
    and P_K the matrix of piece K over the jet parts, so the equations
    of level t^a x^b are P_(0,0) c_(a,b) + sum_(K != 0) perm(a+kt, kt)
    perm(b+kx, kx) P_K c_(a+kt, b+kx) = 0: block upper triangular, with
    P_(0,0) on every diagonal block.  Walking the levels from the top
    down, sols spans the kernel on the levels done, and each level
    takes the kernel of [P_(0,0) | M] with one column of M per element
    of sols.  P_(0,0) is eliminated once (the kernel's Reduced), so a
    level eliminates only the rows of P_(0,0) that M reaches, and its
    kernel is read off as sparse_nullspace reads it.  The top level,
    with no column in M, is that one elimination.  The kernel of L is
    then brought to the canonical form of
    sparse_nullspace: the free columns of the full system are exactly
    the highest nonzero positions of kernel vectors, so the reduced
    echelon form of the kernel with its columns taken from the highest
    down, ordered by free column, is that basis."""
    column = {w: j for j, w in enumerate(where)}
    n = len(ps)
    p00 = _k.Reduced(_monomial_equations([p.get((0, 0), {}) for p in ps]))
    sols: list = []
    # each level after all levels above it, in t or in x
    for a, b in sorted({w[:2] for w in where}, reverse=True):
        m: dict = {}
        for col, s in enumerate(sols, n):
            for j, c in s.items():
                a1, b1, i = where[j]
                # K = (a1 - a, b1 - b); no piece has kx < 0, which a
                # level with b1 < b would give
                piece = ps[i].get((a1 - a, b1 - b))
                if piece:
                    _k.mul_into_rows(m, col, _k.ONE_MONO, perm(a1, a1 - a) * perm(b1, b1 - b) * c, piece)
        new = []
        for v in echelon_nullspace(*p00.joined(m), n + len(sols)):
            s = {}
            for col, c in v.items():
                if col < n:
                    s[column[a, b, col]] = c
                    continue
                for j, w in sols[col - n].items():
                    w = s.get(j, 0) + c * w
                    if w:
                        s[j] = w
                    else:
                        del s[j]
            new.append(s)
        sols = new
    top = len(basis) - 1
    echelon, _ = _k.rref([{top - j: c for j, c in s.items()} for s in sols])
    return _combinations(basis, [dict(sorted((top - j, c) for j, c in v.items())) for v in reversed(echelon)])


def solve_determining_system(
    basis: list[DiffExpr], images: list[DiffExpr]
) -> list[DiffExpr]:
    """Kernel of a linear map given by generator/image pairs.

    Collects the coefficients of every monomial occurring in the images
    into an exact sparse linear system, one equation per monomial, and
    returns the combinations of the basis whose image vanishes, in the
    deterministic order produced by the canonical nullspace, as the
    solves read their systems off.
    """
    return _null_combinations(basis, _monomial_equations([e._d for e in images]).values())


def solve_multipliers(pde: NormalPDE, ansatz: Ansatz) -> list[DiffExpr]:
    """Basis of all multipliers within the ansatz, solving E_u(Q G) = 0
    exactly for the rational ansatz coefficients.

    The image of each ansatz monomial p m0, with p = t^a x^b, comes from
    the standard coefficients A_K of the adjoint Fréchet derivative of
    m0 G, computed once per jet part m0:

        E_u(p m0 G) = sum_K D^K(p) A_K(m0 G).
    """
    return _solve(pde, ansatz, lambda m0, kmax: euler_pieces(m0 * pde.G, kmax))
