"""Symmetries of a normal PDE and their action on conservation laws.

A symmetry is represented by its characteristic P, which satisfies the
determining equation frechet(G, P) = 0 on the solution space; a point
generator tau d/dt + xi d/dx + eta d/du has characteristic
P = eta - tau u_t - xi u_x.

The action of a symmetry with characteristic P on a conservation law
can be computed at the level of multipliers without ever building the
current:

    Q_acted = R_P*(Q) - R_Q*(P)

where R_P(G) = frechet(G, P) and R_Q(G) = frechet_adjoint(G, Q).  R_P
is derived once per query, also for a whole basis in action_matrix, and
its extraction is the symmetry check of every query, psi_current and
act_on_current included: the remainder it leaves is
restrict(frechet(G, P)).  The image R_Q is extracted from also decides
the multiplier check: by the product rule E_u(Q G) = G'*(Q) + Q'*(G),
so Q is a multiplier exactly when frechet_adjoint(G, Q) +
frechet_adjoint(Q, G) vanishes, and no Euler image of Q G is taken.
The same multiplier arises, modulo expressions vanishing on the
solution space, from the boundary current Psi_G(P, Q) and from
transforming the current itself; psi_current and act_on_current expose
those routes.

classify compares Q_acted with Q on the solution space: a multiplier
with Q_acted = 0 is invariant under the symmetry, one with
Q_acted = lambda Q for a rational constant lambda != 0 is homogeneous
of weight lambda, anything else is inhomogeneous.  action_matrix does
the same for a whole multiplier space at once and reports the rational
eigenvalues: the eigenvectors are exactly the combinations on which
the symmetry acts homogeneously.

The action and Psi_G(P, Q) are bilinear in (P, Q), and the weight
lambda scales with P and not with Q.  So each query runs on the
integral primitive parts d_P P and d_Q Q (expr.primitive_parts), where
the kernel makes no Fraction, and divides its result by d_P d_Q, and
lambda by d_P, once; a divided result has Fraction coefficients
throughout.  action_matrix scales P and each basis element, and
rescales the matrix entries to coordinates in the caller's basis.  An
error message shows the inputs as given.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .conslaw import (
    Ansatz,
    _divided,
    _monomial_equations,
    _primitive_multiplier,
    _solve,
    check_adjoint_symmetry,
)
from .diffops import (
    ConservedCurrent,
    boundary_current,
    frechet,
    frechet_adjoint,
    frechet_pieces,
    total_derivative,
)
from .errors import (
    AnsatzError,
    NotAdjointSymmetry,
    NotAMultiplier,
    NotASymmetry,
    NotClosed,
    NotOnSolutionSpace,
    TrivialMultiplier,
)
from .expr import ZERO, DiffExpr, jet, primitive_parts
from .grammar import format_brief
from ._kernel import impl as _k
from .ratlin import QMatrix, rational_eigenpairs
from .soln import LinDiffOp, NormalPDE, extract_operator, restrict


class SymmetryGen(NamedTuple):
    """A point symmetry generator tau d/dt + xi d/dx + eta d/du.

    Use SymmetryGen.evolutionary(P) for a generator already in
    characteristic form.
    """

    tau: DiffExpr
    xi: DiffExpr
    eta: DiffExpr

    @classmethod
    def evolutionary(cls, p: DiffExpr) -> "SymmetryGen":
        return cls(ZERO, ZERO, p)

    @property
    def is_evolutionary(self) -> bool:
        return self.tau.is_zero and self.xi.is_zero


def characteristic(gen) -> DiffExpr:
    """The characteristic P = eta - tau u_t - xi u_x; the identity on
    generators given directly as characteristics."""
    if isinstance(gen, DiffExpr):
        return gen
    return gen.eta - gen.tau * jet(1, 0) - gen.xi * jet(0, 1)


def check_symmetry(gen, pde: NormalPDE) -> bool:
    """The determining equation: frechet(G, P) = 0 on the solution space."""
    p = characteristic(gen)
    return restrict(frechet(pde.G, p), pde).is_zero


def solve_symmetries(pde: NormalPDE, ansatz: Ansatz) -> list[DiffExpr]:
    """Basis of symmetry characteristics within the ansatz, solving the
    determining equation on the solution space as an exact linear
    system.  Unlike multiplier candidates, the ansatz monomials may
    involve any jet (u_t is needed for time translation), so the
    ansatz order must still be below the PDE order.

    restrict is linear over polynomials in t and x, so the Leibniz rule
    gives the image of each ansatz monomial p m0, with p = t^a x^b, from
    one rewrite per jet part m0 and multi-index K:

        restrict(frechet(G, p m0)) = sum_K D^K(p) restrict(F_K(m0)),

    F_K(m0) = sum_{J>=K} C(J, K) (dG/du_J) D^(J-K) m0 (frechet_pieces).
    """

    def pieces(m0, kmax):
        return {
            K: restrict(DiffExpr._raw(f), pde)._d
            for K, f in frechet_pieces(pde.G, m0, kmax).items()
        }

    return _solve(pde, ansatz, pieces, include_consequences=True)


def act_on_current(gen, current, pde: NormalPDE) -> ConservedCurrent:
    """The symmetry action on a conserved current.

    For an evolutionary generator the components transform by the
    Fréchet derivative along P.  For a full point generator the
    transport and divergence terms of the independent variables enter:

        T' = frechet(T, P) + tau D_t T + xi D_x T + T D_x xi - X D_x tau
        X' = frechet(X, P) + tau D_t X + xi D_x X + X D_t tau - T D_t xi

    The result is conserved because the generator is a symmetry and
    (T, X) is conserved: raises NotASymmetry and then NotConserved
    otherwise, checked in that order, as act_on_multiplier and
    multiplier_from_current do.
    """
    _symmetry(gen, pde)
    _primitive_multiplier(current, pde)
    p = characteristic(gen)
    T, X = current
    tp = frechet(T, p)
    xp = frechet(X, p)
    if isinstance(gen, DiffExpr) or gen.is_evolutionary:
        return ConservedCurrent(tp, xp)
    tau, xi = gen.tau, gen.xi
    dt = lambda f: total_derivative(f, "t")
    dx = lambda f: total_derivative(f, "x")
    t_new = tp + tau * dt(T) + xi * dx(T) + T * dx(xi) - X * dx(tau)
    x_new = xp + tau * dt(X) + xi * dx(X) + X * dt(tau) - T * dt(xi)
    return ConservedCurrent(t_new, x_new)


def _symmetry(gen, pde: NormalPDE) -> tuple[int, DiffExpr, LinDiffOp]:
    """(d_P, d_P P, R_P) for the characteristic P of gen, with R_P
    extracted from frechet(G, d_P P).  The remainder of that extraction
    is restrict(frechet(G, d_P P)), so it decides the determining
    equation: raises NotASymmetry, showing the caller's P, exactly when
    check_symmetry(P) is false."""
    p = characteristic(gen)
    dp, (pd,) = primitive_parts(p)
    try:
        return dp, pd, extract_operator(frechet(pde.G, pd), pde)
    except NotOnSolutionSpace:
        raise NotASymmetry(f"determining equation fails for P = {format_brief(p)}") from None


def _act(p: DiffExpr, r_p: LinDiffOp, q: DiffExpr, pde: NormalPDE, given: DiffExpr) -> DiffExpr:
    """R_P*(Q) - R_Q*(P) for a symmetry P with operator R_P.  By the
    product rule E_u(q G) = G'*(q) + q'*(G), and R_Q is extracted from
    w = G'*(q), so w decides the multiplier condition with q'*(G):
    raises NotAMultiplier exactly when check_multiplier(q) is false,
    showing given, the caller's Q, of which q is a multiple."""
    w = frechet_adjoint(pde.G, q)
    if not (w + frechet_adjoint(q, pde.G)).is_zero:
        raise NotAMultiplier(f"E_u(q G) != 0 for q = {format_brief(given)}")
    r_q = extract_operator(w, pde)
    return r_p.adjoint(q) - r_q.adjoint(p)


def _primitive_action(gen, q: DiffExpr, pde: NormalPDE):
    """(d_P, d_Q, d_Q Q, A) with A = d_P d_Q (R_P*(Q) - R_Q*(P)), the
    action computed on the primitive parts d_P P and d_Q Q; it is
    bilinear in (P, Q).  Raises as act_on_multiplier."""
    dp, pd, r_p = _symmetry(gen, pde)
    dq, (qd,) = primitive_parts(q)
    return dp, dq, qd, _act(pd, r_p, qd, pde, q)


def act_on_multiplier(gen, q: DiffExpr, pde: NormalPDE) -> DiffExpr:
    """The multiplier of the transformed conservation law,

        R_P*(Q) - R_Q*(P),

    computed without building any current.  Requires P to be a
    symmetry and Q a multiplier, checked in that order."""
    dp, dq, _, acted = _primitive_action(gen, q, pde)
    return _divided(acted, dp * dq)


def psi_current(gen, q: DiffExpr, pde: NormalPDE) -> ConservedCurrent:
    """The boundary current Psi_G(P, Q) of the pairing identity

        Q frechet(G, P) - P frechet_adjoint(G, Q) = D_t T + D_x X.

    Conserved whenever P is a symmetry and Q an adjoint-symmetry, and
    its multiplier agrees with act_on_multiplier(P, Q) on the solution
    space."""
    dp, pd, _ = _symmetry(gen, pde)
    dq, (qd,) = primitive_parts(q)
    if not check_adjoint_symmetry(qd, pde):
        raise NotAdjointSymmetry(f"not an adjoint-symmetry: {format_brief(q)}")
    T, X = boundary_current(pde.G, pd, qd)
    return ConservedCurrent(_divided(T, dp * dq), _divided(X, dp * dq))


class ClassificationResult(NamedTuple):
    """Outcome of classify: verdict is 'Invariant', 'Homogeneous', or
    'NotHomogeneous'; lam is the weight (0 for invariant, None when not
    homogeneous); action is the compared form of the acted multiplier."""

    verdict: str
    lam: Fraction | None
    action: DiffExpr


def classify(
    gen, q: DiffExpr, pde: NormalPDE, *, strict_off_e: bool = False
) -> ClassificationResult:
    """Classify a conservation law under a symmetry through the action
    on its multiplier.

    By default the acted multiplier is compared with Q on the solution
    space, where the conservation law itself lives; strict_off_e
    demands proportionality of the unrestricted expressions instead.
    A trivial multiplier (vanishing on the solution space) cannot be
    classified and raises TrivialMultiplier.
    """
    # on the primitive parts the action is d_P d_Q times the caller's,
    # and its weight d_P times the caller's
    dp, dq, qd, acted = _primitive_action(gen, q, pde)
    if strict_off_e:
        compare_dq, compare_q = acted, qd
    else:
        compare_dq, compare_q = restrict(acted, pde), restrict(qd, pde)
    if compare_q.is_zero:
        raise TrivialMultiplier(f"q vanishes on the solution space: {format_brief(q)}")
    action = _divided(compare_dq, dp * dq)
    if compare_dq.is_zero:
        return ClassificationResult("Invariant", Fraction(0), action)
    key = min(compare_q._d)
    lam = Fraction(compare_dq._d.get(key, 0), compare_q._d[key])
    if lam and compare_dq == compare_q * lam:
        return ClassificationResult("Homogeneous", lam / dp, action)
    return ClassificationResult("NotHomogeneous", None, action)


class SymmetryAction(NamedTuple):
    """The matrix of a symmetry action on a multiplier basis, columns
    holding the coordinates of each acted basis element, together with
    its rational eigenvalues and canonical eigenvector bases."""

    matrix: QMatrix
    eigenpairs: list[tuple[Fraction, list[tuple[Fraction, ...]]]]


def action_matrix(gen, basis: list[DiffExpr], pde: NormalPDE) -> SymmetryAction:
    """Represent the symmetry action on the span of the given
    multipliers.

    The basis must consist of multipliers whose restrictions to the
    solution space are linearly independent.  If some acted multiplier
    leaves the span, the action is not closed on it and NotClosed is
    raised.  Eigenvectors of the returned matrix are the combinations
    on which the symmetry acts homogeneously, with the eigenvalue as
    weight.
    """
    if not basis:
        raise AnsatzError("empty multiplier basis")
    # The action runs on d_P P and on the scaled basis b'_j = d_j b_j,
    # whose images are d_P d_j times the caller's; with M' the matrix in
    # the scaled basis, the caller's is M_ij = M'_ij d_i / (d_j d_P).
    scaled = [primitive_parts(b) for b in basis]
    d = [dj for dj, _ in scaled]
    parts = [bd for _, (bd,) in scaled]
    restricted = [restrict(bd, pde) for bd in parts]
    dp, pd, r_p = _symmetry(gen, pde)
    acted = [restrict(_act(pd, r_p, bd, pde, b), pde) for bd, b in zip(parts, basis)]
    # One sparse elimination of [B' | A'], one equation per monomial:
    # column j holds restricted scaled basis element j, column n + j its
    # image.
    n = len(basis)
    rows, pivots = _k.rref(_monomial_equations([e._d for e in restricted + acted]).values())
    if sum(1 for p in pivots if p < n) != n:
        raise AnsatzError(
            "multiplier basis is linearly dependent on the solution space"
        )
    # The first pivot right of B is the first image outside span(B).
    if len(pivots) > n:
        raise NotClosed(
            f"action leaves the span of the basis on element {format_brief(basis[pivots[n] - n])}"
        )
    # Pivot row i holds coordinate i of every image.
    m = QMatrix(
        [[Fraction(rows[i].get(n + j, 0) * d[i], d[j] * dp) for j in range(n)] for i in range(n)]
    )
    return SymmetryAction(m, rational_eigenpairs(m))
