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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

from ._kernel import impl as _k
from .diffops import (
    ConservedCurrent,
    divergence,
    euler,
    frechet,
    frechet_adjoint,
    invert_divergence,
)
from .errors import (
    AnsatzError,
    NotAdjointSymmetry,
    NotAMultiplier,
    NotConserved,
)
from .expr import DiffExpr, JetIndex, const
from .ratlin import sparse_nullspace
from .soln import LinDiffOp, NormalPDE, extract_operator, restrict

_ONE = const(1)
_acc, _mul_frac = _k._acc, _k._mul_frac


@dataclass(frozen=True)
class Ansatz:
    """Bounds of the polynomial ansatz: differential order of the jets,
    total degree in the jets, and degrees in the explicit t and x."""

    max_order: int = 1
    max_jet_degree: int = 1
    max_t_degree: int = 1
    max_x_degree: int = 1

    def __post_init__(self):
        for name in (
            "max_order",
            "max_jet_degree",
            "max_t_degree",
            "max_x_degree",
        ):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise AnsatzError(f"{name} must be a non-negative integer, got {v!r}")


def ansatz_monomials(
    pde: NormalPDE, ansatz: Ansatz, *, include_consequences: bool = False
) -> list[DiffExpr]:
    """All monomials t^a x^b prod u_J^e within the ansatz bounds, in
    ascending monomial order.

    Consequence jets of the PDE lead are omitted unless requested:
    multiplier candidates are canonical representatives on the solution
    space, while symmetry characteristics may involve any jet.
    """
    jets = [
        JetIndex(i, o - i)
        for o in range(ansatz.max_order + 1)
        for i in range(o + 1)
        if include_consequences or not pde.is_consequence(JetIndex(i, o - i))
    ]
    jets.sort()
    keys = []
    for deg in range(ansatz.max_jet_degree + 1):
        for combo in combinations_with_replacement(jets, deg):
            powers = {}
            for j in combo:
                powers[j] = powers.get(j, 0) + 1
            jet_part = tuple(sorted((j.nt, j.nx, e) for j, e in powers.items()))
            for a in range(ansatz.max_t_degree + 1):
                for b in range(ansatz.max_x_degree + 1):
                    keys.append((a, b, jet_part))
    keys.sort()
    return [DiffExpr._raw({k: Fraction(1)}) for k in keys]


def verify_conservation_law(current, pde: NormalPDE) -> bool:
    """Whether D_t T + D_x X vanishes on the solution space."""
    return restrict(divergence(current), pde).is_zero


def multiplier_from_current(current, pde: NormalPDE) -> DiffExpr:
    """The multiplier Q of a conserved current, via Q = R*(1) for the
    operator R with R(G) = D_t T + D_x X.  Raises NotConserved."""
    div = divergence(current)
    if not restrict(div, pde).is_zero:
        raise NotConserved(f"not conserved: D_t T + D_x X = {div} off the solution space")
    return extract_operator(div, pde).adjoint(_ONE)


def is_trivial_current(current, pde: NormalPDE) -> bool:
    """Whether a conserved current is trivial, which holds exactly when
    its multiplier vanishes on the solution space."""
    q = multiplier_from_current(current, pde)
    return restrict(q, pde).is_zero


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
    if not check_adjoint_symmetry(q, pde):
        raise NotAdjointSymmetry(f"not an adjoint-symmetry: {q}")
    r = extract_operator(frechet_adjoint(pde.G, q), pde)
    adj = r.adjoint_coeffs()
    keys = set(adj)
    qjets = {(idx.nt, idx.nx) for idx in q.jet_indices()}
    keys.update(qjets)
    zero = DiffExpr._raw({})
    for key in keys:
        total = adj.get(key, zero) + q.partial(key)
        if not restrict(total, pde).is_zero:
            return False
    return True


def current_from_multiplier(q: DiffExpr, pde: NormalPDE) -> ConservedCurrent:
    """A conserved current with divergence q G, by exact divergence
    inversion.  Raises NotAMultiplier."""
    if not check_multiplier(q, pde):
        raise NotAMultiplier(f"E_u(q G) != 0 for q = {q}")
    return invert_divergence(q * pde.G)


def _monomial_equations(exprs: list[DiffExpr]) -> list[dict]:
    """The sparse linear system sum_j c_j exprs[j] = 0 in the unknowns
    c_j: one equation {j: coefficient} per monomial occurring in the
    expressions."""
    eqs: dict = {}
    for j, e in enumerate(exprs):
        for k, c in e._d.items():
            eqs.setdefault(k, {})[j] = c
    return list(eqs.values())


def solve_determining_system(
    basis: list[DiffExpr], images: list[DiffExpr]
) -> list[DiffExpr]:
    """Kernel of a linear map given by generator/image pairs.

    Collects the coefficients of every monomial occurring in the images
    into an exact sparse linear system, one equation per monomial, and
    returns the combinations of the basis whose image vanishes, in the
    deterministic order produced by the canonical nullspace.
    """
    out = []
    for v in sparse_nullspace(_monomial_equations(images), len(basis)):
        acc: dict = {}
        for j, coeff in v.items():
            for mk, mc in basis[j]._d.items():
                _acc(acc, mk, _mul_frac(mc, coeff))
        out.append(DiffExpr._raw(acc))
    return out


def _require_low_order(pde: NormalPDE, ansatz: Ansatz) -> None:
    n = pde.G.max_order()
    if ansatz.max_order >= n:
        raise AnsatzError(
            f"ansatz order {ansatz.max_order} is not below the PDE order {n}; "
            "only low-order candidates are solved for"
        )


def solve_multipliers(pde: NormalPDE, ansatz: Ansatz) -> list[DiffExpr]:
    """Basis of all multipliers within the ansatz, solving E_u(Q G) = 0
    exactly for the rational ansatz coefficients."""
    _require_low_order(pde, ansatz)
    basis = ansatz_monomials(pde, ansatz)
    images = [euler(m * pde.G) for m in basis]
    return solve_determining_system(basis, images)
