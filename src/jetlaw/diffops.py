"""Total derivatives, Fréchet derivatives, and the Euler operator.

Conventions, with J = (i, j) ranging over jet indices and D_t, D_x the
total derivatives:

    frechet(f, g)          f'(g)  = sum_J (df/du_J) D_t^i D_x^j g
    frechet_adjoint(f, h)  f'*(h) = sum_J (-D_t)^i (-D_x)^j (h df/du_J)
    euler(f)               E_u(f) = f'*(1)

A differential polynomial is a total divergence D_t T + D_x X exactly
when its Euler operator image vanishes.  Each operator reads the
partial derivatives df/du_J of f from the kernel's partials, one pass
over the terms of f.  By the product rule the Euler image of a product
splits into two adjoint Fréchet derivatives,

    E_u(q f) = f'*(q) + q'*(f),

which is how the symmetry action decides that q is a multiplier of
f = 0 from the image f'*(q) it reads its operator from.

An adjoint R*(h) = sum_K (-D_t)^kt (-D_x)^kx (c_K h) is applied in
nested (Horner) form, as a polynomial in D_t and D_x is evaluated:

    R*(h) = sum_kt (-D_t)^kt S_kt,  S_kt = sum_kx (-D_x)^kx (c_K h)

with each S_kt one D_x chain from its highest kx down and the rows
one D_t chain, so an operator of order (T, X) takes at most
T + (T+1) X derivative steps, and euler(f) for f of x-order n takes
n.  Every product is added straight into its sum (the kernel's
mul_add), in the apply loops and in boundary_current alike.

Every standard coefficient of an operator comes from one Leibniz sum.
For p a polynomial in t and x alone, D^J(p g) = sum_{K<=J} C(J, K)
D^K(p) D^(J-K) g, with C(J, K) = C(jt, kt) C(jx, kx), splits the
Fréchet derivative over p, and it gives the standard coefficients a_A
of the adjoint of R = sum_K c_K D^K:

    f'(p g) = sum_K D^K(p) F_K,  F_K = sum_{J>=K} C(J, K) (df/du_J) D^(J-K) g
    R*(h)   = sum_A a_A D^A h,   a_A = sum_{K>=A} (-1)^|K| C(K, A) D^(K-A) c_K

E_u(p f) = f'*(p), so the A_K, the standard coefficients of f'*, split
the Euler operator the same way:

    E_u(p f) = sum_K D^K(p) A_K(f)

where (-1)^|K| A_K are the higher Euler operators (Olver, Applications
of Lie Groups to Differential Equations, 2nd ed., section 5.4).
frechet_pieces and euler_pieces compute the F_K and A_K.
boundary_current produces the current certifying the integration-by-parts
identity

    h f'(g) - g f'*(h) = D_t Psi^t + D_x Psi^x

and invert_divergence reconstructs a current (T, X) from a divergence,
building n T and n X, n the least common multiple of the divisors of
its construction, so that it divides once and keeps int coefficients
until then.
"""

from __future__ import annotations

from math import comb, lcm

from ._kernel import impl as _k
from .errors import NotADivergence
from .expr import DiffExpr, u

from typing import NamedTuple


class ConservedCurrent(NamedTuple):
    """A current (T, X); conserved when D_t T + D_x X vanishes on the
    solution space of a PDE."""

    T: DiffExpr
    X: DiffExpr

    def __str__(self) -> str:
        return f"(T = {self.T}, X = {self.X})"


def total_derivative(f: DiffExpr, axis: str) -> DiffExpr:
    """Total derivative D_t (axis 't') or D_x (axis 'x') of f."""
    if axis == "t":
        return DiffExpr._raw(_k.total_t(f._d))
    if axis == "x":
        return DiffExpr._raw(_k.total_x(f._d))
    raise ValueError(f"axis must be 't' or 'x', not {axis!r}")


def divergence(current) -> DiffExpr:
    """D_t T + D_x X of a current pair."""
    T, X = current
    return DiffExpr._raw(_k.add(_k.total_t(T._d), _k.total_x(X._d)))


class _DerivCache:
    """Mixed total derivatives D_t^i D_x^j of one expression's raw terms,
    computed incrementally and memoized.  Derivatives commute, so each
    entry is reached by raising j from (i, 0), which itself is raised
    from (0, 0).  A step's terms are spent once it is built, and a step
    that spends past MAX_PRODUCTS is refused and not kept, so one call's
    derivatives hold at most MAX_PRODUCTS terms; only that step builds
    more.  It is not priced first, as _adjoint_op's steps are, since
    derivative_terms costs about a fifth of a step.  A cache lives for
    one call, as the derivatives of a NormalPDE's g do in restrict and
    extract_operator, and is not kept past it."""

    def __init__(self, d: dict):
        self._cache = {(0, 0): d}
        self._budget = _k.MAX_PRODUCTS

    def get(self, i: int, j: int) -> dict:
        d = self._cache.get((i, j))
        if d is not None:
            return d
        d = _k.total_x(self.get(i, j - 1)) if j else _k.total_t(self.get(i - 1, 0))
        self._budget = _k.spend(self._budget, len(d))
        self._cache[(i, j)] = d
        return d


def _apply_op(coeffs: dict, g: dict) -> dict:
    """Raw terms of sum_K c_K D_t^kt D_x^kx g for raw coefficients
    {K: c_K} and raw g."""
    dg = _DerivCache(g)
    out: dict = {}
    for (kt, kx), c in coeffs.items():
        _k.mul_add(out, 1, c, dg.get(kt, kx))
    return out


def _adjoint_op(coeffs: dict, h: dict) -> dict:
    """Raw terms of sum_K (-D_t)^kt (-D_x)^kx (c_K h) for raw
    coefficients {K: c_K} and raw h, in nested (Horner) form.  For each
    t-order kt, from the highest down, the row

        (-1)^kt S_kt = sum_kx (-1)^(kt+kx) D_x^kx (c_K h)

    is one D_x chain from its highest kx down, acc <- D_x(acc) +
    (-1)^(kt+kx) c_K h, and the rows are one D_t chain,
    out <- D_t(out) + (-1)^kt S_kt.  An operator of order (T, X) takes
    at most T + (T+1) X steps, where a chain per K would take
    sum_K |K|.  Each product is accumulated in place (mul_add)."""
    rows: dict = {}
    for (kt, kx), c in coeffs.items():
        rows.setdefault(kt, {})[kx] = c
    # every product c_K h is priced before the first is built
    budget = _k.spend(_k.MAX_PRODUCTS, len(h) * sum(map(len, coeffs.values())))
    out: dict = {}
    for kt in range(max(rows, default=-1), -1, -1):
        # a step builds at most one term per jet factor of each term of
        # the sum it differentiates, and one for its t or x; price them
        # before it starts
        if out:
            budget = _k.spend(budget, _k.derivative_terms(out))
            out = _k.total_t(out)
        row = rows.get(kt)
        if row is None:
            continue
        acc: dict = {}
        for kx in range(max(row), 0, -1):
            c = row.get(kx)
            if c is not None:
                _k.mul_add(acc, -1 if (kt + kx) % 2 else 1, c, h)
            budget = _k.spend(budget, _k.derivative_terms(acc))
            acc = _k.total_x(acc)
        # the row joins the sum through the shorter of the two
        if len(acc) > len(out):
            out, acc = acc, out
        _k.mul_into(out, _k.ONE_MONO, 1, acc)
        c = row.get(0)
        if c is not None:
            _k.mul_add(out, -1 if kt % 2 else 1, c, h)
    return out


def _leibniz(keys, kmax, term, signed: bool) -> dict:
    """Raw {K: terms} of sum_{J>=K} s_J C(J, K) term(J, it, ix) over the
    multi-indices J in keys, with (it, ix) = J - K, for every K <= kmax
    with a nonzero sum, where s_J = (-1)^|J| if signed and 1 otherwise."""
    kt_max, kx_max = kmax
    out: dict = {}
    for jt, jx in keys:
        s = -1 if signed and (jt + jx) % 2 else 1
        for kt in range(min(jt, kt_max) + 1):
            for kx in range(min(jx, kx_max) + 1):
                c = s * comb(jt, kt) * comb(jx, kx)
                _k.mul_into(out.setdefault((kt, kx), {}), _k.ONE_MONO, c, term((jt, jx), jt - kt, jx - kx))
    return {K: d for K, d in out.items() if d}


def _adjoint_coeffs(coeffs: dict, kmax) -> dict:
    """Raw standard coefficients {A: a_A} of the adjoint of the operator
    sum_K c_K D^K given by raw {K: c_K},

        a_A = sum_{K>=A} (-1)^|K| C(K, A) D^(K-A) c_K,

    for every A <= kmax with a nonzero a_A."""
    derivs = {K: _DerivCache(c) for K, c in coeffs.items()}
    return _leibniz(coeffs, kmax, lambda K, it, ix: derivs[K].get(it, ix), True)


def frechet(f: DiffExpr, g: DiffExpr) -> DiffExpr:
    """Fréchet derivative of f in the direction g."""
    return DiffExpr._raw(_apply_op(_k.partials(f._d), g._d))


def frechet_adjoint(f: DiffExpr, h: DiffExpr) -> DiffExpr:
    """Adjoint Fréchet derivative of f applied to h."""
    return DiffExpr._raw(_adjoint_op(_k.partials(f._d), h._d))


_ONE = DiffExpr._raw({_k.ONE_MONO: 1})


def euler(f: DiffExpr) -> DiffExpr:
    """Euler operator E_u(f); vanishes exactly on total divergences."""
    return frechet_adjoint(f, _ONE)


def frechet_pieces(f: DiffExpr, g: DiffExpr, kmax) -> dict:
    """The Leibniz pieces F_K = sum_{J>=K} C(J, K) (df/du_J) D^(J-K) g of
    the Fréchet derivative, for every K <= kmax with a nonzero F_K, as
    raw {K: terms}.  For p = t^a x^b with (a, b) <= kmax,

        frechet(f, p g) = sum_K D^K(p) F_K,

    and F_(0,0) = frechet(f, g)."""
    partials = _k.partials(f._d)
    dg = _DerivCache(g._d)
    return _leibniz(partials, kmax, lambda J, it, ix: _k.mul(partials[J], dg.get(it, ix)), False)


def euler_pieces(f: DiffExpr, kmax) -> dict:
    """The standard coefficients A_K(f) = sum_{J>=K} (-1)^|J| C(J, K)
    D^(J-K) df/du_J of the adjoint Fréchet derivative of f, for every
    K <= kmax with a nonzero A_K(f), as raw {K: terms}.  For p = t^a x^b
    with (a, b) <= kmax,

        euler(p f) = sum_K D^K(p) A_K(f),

    and A_(0,0)(f) = euler(f)."""
    return _adjoint_coeffs(_k.partials(f._d), kmax)


def is_divergence(f: DiffExpr) -> bool:
    return euler(f).is_zero


def boundary_current(f: DiffExpr, g: DiffExpr, h: DiffExpr) -> ConservedCurrent:
    """The current Psi_f(g, h) of the integration-by-parts identity

        h f'(g) - g f'*(h) = D_t Psi^t + D_x Psi^x.

    Each jet J = (i, j) of f contributes the boundary terms of moving
    (-D_t)^i (-D_x)^j off h (df/du_J), t-derivatives peeled first:

        Psi^t_J = sum_{k<i} (-1)^k (D_t^k w) (D_t^{i-1-k} D_x^j g)
        Psi^x_J = (-1)^i sum_{l<j} (-1)^l (D_t^i D_x^l w) (D_x^{j-1-l} g)

    with w = h df/du_J.  The identity holds exactly, not merely on a
    solution space.
    """
    dg = _DerivCache(g._d)
    psi_t: dict = {}
    psi_x: dict = {}
    for (i, j), pf in _k.partials(f._d).items():
        dw = _DerivCache(_k.mul(h._d, pf))
        for k in range(i):
            _k.mul_add(psi_t, -1 if k % 2 else 1, dw.get(k, 0), dg.get(i - 1 - k, j))
        for l in range(j):
            _k.mul_add(psi_x, -1 if (i + l) % 2 else 1, dw.get(i, l), dg.get(0, j - 1 - l))
    return ConservedCurrent(DiffExpr._raw(psi_t), DiffExpr._raw(psi_x))


def _scaled_inverse(f: DiffExpr) -> tuple:
    """(n, n T, n X) for the current (T, X) that invert_divergence(f)
    returns, n the least common multiple of the divisors of its
    construction, so that n T and n X have int coefficients for an f
    with int coefficients.  Raises NotADivergence, carrying euler(f),
    when that is nonzero, and AssertionError when the divergence of
    (n T, n X) is not n f."""
    e = euler(f)
    if not e.is_zero:
        raise NotADivergence(e)
    jet_free: dict = {}
    jet_part: dict = {}
    for k, c in f._d.items():
        if _k.jet_degree(k):
            jet_part[k] = c
        else:
            jet_free[k] = c
    psi_t, psi_x = boundary_current(DiffExpr._raw(jet_part), u, _ONE)
    # each term of Psi is weighted by 1 over its jet degree, and the
    # x-integration of the jet-free t^a x^b divides it by b + 1
    degrees = {k: _k.jet_degree(k) for k in (*psi_t._d, *psi_x._d)}
    free = [(*_k.split_tx(k)[:2], c) for k, c in jet_free.items()]
    n = lcm(*degrees.values(), *(b + 1 for _, b, _ in free))

    def weighted(d: dict) -> dict:
        return {k: c * (n // degrees[k]) for k, c in d.items()}

    T = DiffExpr._raw(weighted(psi_t._d))
    integrated = {_k.encode(a, b + 1): c * (n // (b + 1)) for a, b, c in free}
    X = DiffExpr._raw(_k.add(weighted(psi_x._d), integrated))
    if divergence((T, X)) != f * n:
        raise AssertionError("divergence inversion failed")
    return n, T, X


def invert_divergence(f: DiffExpr) -> ConservedCurrent:
    """A current (T, X) with D_t T + D_x X = f, if one exists.

    Raises NotADivergence, carrying euler(f), when that is nonzero.  The
    jet-dependent part of f is inverted through the boundary current
    Psi_f(u, 1) with each monomial weighted by the reciprocal of its jet
    degree (the scaling homotopy in the dependent variable, evaluated in
    closed form); the jet-free remainder is integrated in x.  The
    construction (_scaled_inverse) runs on n T and n X, n the least
    common multiple of its divisors, and divides by n once, so the
    result has Fraction coefficients throughout.  It is exact and
    deterministic, and the result is one representative of the
    current's equivalence class.
    """
    n, T, X = _scaled_inverse(f)
    return ConservedCurrent(T / n, X / n)
