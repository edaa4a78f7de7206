import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy as sp

import oracle
from helpers import random_expr
from jetlaw import format_expr
from jetlaw._kernel import pure
from jetlaw.conslaw import current_from_multiplier
from jetlaw.diffops import (
    ConservedCurrent,
    boundary_current,
    divergence,
    euler,
    frechet,
    frechet_adjoint,
    invert_divergence,
    is_divergence,
    total_derivative,
)
from jetlaw.errors import NotADivergence
from jetlaw.expr import ONE, ZERO, DiffExpr, Monomial, const, jet, t, u, x
from jetlaw.soln import LinDiffOp

u_t = jet(1, 0)
u_x = jet(0, 1)
u_xx = jet(0, 2)


def test_total_derivative_examples():
    assert total_derivative(t * u, "t") == u + t * u_t
    assert total_derivative(u**2, "x") == 2 * u * u_x
    assert total_derivative(const(5), "t") == ZERO
    assert total_derivative(u_x, "x") == u_xx


def test_total_derivatives_commute_random():
    rng = random.Random(11)
    for _ in range(20):
        f = random_expr(rng)
        dt_dx = total_derivative(total_derivative(f, "t"), "x")
        dx_dt = total_derivative(total_derivative(f, "x"), "t")
        assert dt_dx == dx_dt


def test_total_derivative_leibniz_random():
    rng = random.Random(12)
    for _ in range(15):
        f = random_expr(rng, max_terms=3)
        g = random_expr(rng, max_terms=3)
        for axis in ("t", "x"):
            lhs = total_derivative(f * g, axis)
            rhs = total_derivative(f, axis) * g + f * total_derivative(g, axis)
            assert lhs == rhs


def test_calculus_matches_reference_random():
    # spot-check against the independent sympy transcription
    rng = random.Random(13)
    for fractions in [False] * 8 + [True] * 8:
        f = random_expr(rng, max_terms=3, max_order=2, max_jet_degree=2, allow_fractions=fractions)
        g = random_expr(rng, max_terms=2, max_order=2, max_jet_degree=2, allow_fractions=fractions)
        fs, gs = oracle.to_sympy(f), oracle.to_sympy(g)
        assert oracle.to_sympy(total_derivative(f, "t")) == oracle.Dt(fs)
        assert oracle.to_sympy(total_derivative(f, "x")) == oracle.Dx(fs)
        assert oracle.to_sympy(euler(f)) == oracle.euler(fs)
        assert oracle.to_sympy(frechet(f, g)) == oracle.frechet(fs, gs)
        assert oracle.to_sympy(frechet_adjoint(f, g)) == oracle.frechet_adjoint(fs, gs)


def _adjoint_per_k(coeffs, h):
    """sum_K (-D_t)^kt (-D_x)^kx (c_K h), one derivative chain per K."""
    out = DiffExpr()
    for (kt, kx), c in coeffs.items():
        w = c * h
        for axis in "t" * kt + "x" * kx:
            w = total_derivative(w, axis)
        out += (-1) ** (kt + kx) * w
    return out


def _gappy_orders(rng):
    """Two to four multi-indices of order at most 4, drawn so that the
    t- and x-orders present usually skip some below their highest."""
    orders = [(kt, kx) for kt in range(5) for kx in range(5 - kt)]
    return rng.sample(orders, rng.randint(2, 4))


def test_nested_adjoint_equals_one_chain_per_coefficient():
    # the nested (Horner) adjoint against one chain per K and the sympy
    # oracle, on operators up to order 4 with gaps in kt and kx, in
    # value, in printing and in coefficient type
    rng = random.Random(41)
    for case, fractions in enumerate([False] * 10 + [True] * 10):
        kw = dict(max_terms=2, max_order=1, max_jet_degree=1, max_tx_degree=1, allow_fractions=fractions)
        orders = _gappy_orders(rng) if case else [(2, 0), (1, 1), (0, 3)]
        h = random_expr(rng, **kw)
        op = LinDiffOp({K: random_expr(rng, **kw) for K in orders})
        f = random_expr(rng, max_terms=3, max_jet_degree=2, max_tx_degree=1, allow_fractions=fractions, jets=orders)
        hs = oracle.to_sympy(h)
        op_want = sum((-1) ** sum(K) * oracle.DJ(oracle.to_sympy(c) * hs, *K) for K, c in op.coeffs.items())
        f_want = oracle.frechet_adjoint(oracle.to_sympy(f), hs)
        f_coeffs = {J: f.partial(J) for J in orders}
        for got, coeffs, want in ((op.adjoint(h), op.coeffs, op_want), (frechet_adjoint(f, h), f_coeffs, f_want)):
            chained = _adjoint_per_k(coeffs, h)
            assert got == chained
            assert format_expr(got) == format_expr(chained)
            assert oracle.to_sympy(got) == sp.expand(want)
            assert {type(c) for c in got._d.values()} <= {Fraction if fractions else int}


def _count_steps(monkeypatch):
    """Count the kernel's total_t and total_x calls."""
    calls = {"t": 0, "x": 0}
    for axis in "tx":
        real = getattr(pure, f"total_{axis}")

        def counted(a, _real=real, _axis=axis):
            calls[_axis] += 1
            return _real(a)

        monkeypatch.setattr(pure, f"total_{axis}", counted)
    return calls


def test_adjoint_takes_one_chain_per_t_order(monkeypatch):
    # a chain per coefficient would take n (n + 1) / 2 steps for the
    # Euler image of f of x-order n, and sum_K |K| for an adjoint
    calls = _count_steps(monkeypatch)
    for n in range(1, 7):
        f = sum((jet(0, k) ** 2 * x**k for k in range(n + 1)), u * jet(0, n))
        calls.update(t=0, x=0)
        euler(f)
        assert calls == {"t": 0, "x": n}
    rng = random.Random(43)
    # every order up to 4 (sum_K |K| = 40), then operators with gaps
    full = [(kt, kx) for kt in range(5) for kx in range(5 - kt)]
    for orders in [full] + [_gappy_orders(rng) for _ in range(20)]:
        op = LinDiffOp({K: random_expr(rng, max_terms=2, max_order=1) for K in orders})
        T, X = max(kt for kt, _ in orders), max(kx for _, kx in orders)
        calls.update(t=0, x=0)
        op.adjoint(random_expr(rng, max_terms=2, max_order=1))
        # one D_x chain per t-order present, from its highest kx
        assert calls["x"] == sum(max(kx for kt, kx in orders if kt == r) for r in {kt for kt, _ in orders})
        assert calls["t"] <= T and calls["t"] + calls["x"] <= T + (T + 1) * X


def test_frechet_examples(kdv):
    G = kdv.G
    # translation characteristic reproduces the x-derivative of G
    assert frechet(G, -u_x) == -total_derivative(G, "x")
    assert frechet(G, ONE) == u_x
    assert frechet(u**2, u) == 2 * u**2


def test_frechet_is_linear_in_the_direction():
    rng = random.Random(14)
    for _ in range(10):
        f = random_expr(rng, max_terms=3)
        g = random_expr(rng, max_terms=2)
        h = random_expr(rng, max_terms=2)
        assert frechet(f, g + h) == frechet(f, g) + frechet(f, h)
        assert frechet(f, 3 * g) == 3 * frechet(f, g)


def test_frechet_product_rule():
    rng = random.Random(15)
    for _ in range(10):
        a = random_expr(rng, max_terms=2)
        b = random_expr(rng, max_terms=2)
        g = random_expr(rng, max_terms=2)
        assert frechet(a * b, g) == frechet(a, g) * b + a * frechet(b, g)


def test_adjoint_example(kdv):
    assert frechet_adjoint(kdv.G, u) == -kdv.G


def test_pairing_identity_is_exact():
    # h*f'(g) - g*f'*(h) equals the divergence of the boundary current,
    # as an identity of differential polynomials
    rng = random.Random(16)
    for _ in range(12):
        f = random_expr(rng, max_terms=3, max_order=3)
        g = random_expr(rng, max_terms=2, max_order=2)
        h = random_expr(rng, max_terms=2, max_order=2)
        lhs = h * frechet(f, g) - g * frechet_adjoint(f, h)
        assert divergence(boundary_current(f, g, h)) == lhs


def test_boundary_current_second_order_case():
    # for f = u_xx the current is the classical Lagrange bracket
    f = u_xx
    g = u**2
    h = t * u
    psi = boundary_current(f, g, h)
    assert psi.T == ZERO
    assert psi.X == h * total_derivative(g, "x") - g * total_derivative(h, "x")


def test_euler_annihilates_divergences():
    rng = random.Random(17)
    for _ in range(15):
        f = random_expr(rng)
        assert euler(total_derivative(f, "t")) == ZERO
        assert euler(total_derivative(f, "x")) == ZERO
        assert is_divergence(total_derivative(f, "t") + total_derivative(f, "x"))


def test_euler_detects_non_divergences():
    assert euler(u_x**2) == -2 * u_xx
    assert not is_divergence(u_x**2)
    assert euler(u) == ONE


def test_invert_divergence_examples(kdv):
    cur = invert_divergence(u * u_t)
    assert cur == ConservedCurrent(u**2 / 2, ZERO)

    cur = invert_divergence(kdv.G)
    assert cur == ConservedCurrent(u, u_xx + u**2 / 2)

    cur = invert_divergence(u * kdv.G)
    assert cur.T == u**2 / 2
    assert cur.X == u**3 / 3 + u * u_xx - u_x**2 / 2


def test_invert_divergence_rejects_non_divergence():
    with pytest.raises(NotADivergence):
        invert_divergence(u_x**2)


def test_invert_divergence_round_trip_random():
    rng = random.Random(18)
    for _ in range(15):
        a = random_expr(rng, max_terms=3)
        b = random_expr(rng, max_terms=3)
        f = total_derivative(a, "t") + total_derivative(b, "x")
        cur = invert_divergence(f)
        assert divergence(cur) == f


def _weighted_inverse(f):
    """The current invert_divergence(f) gave when it weighted each term
    in Fractions: each monomial of Psi_f(u, 1), f its jet-dependent
    part, over its jet degree, and the jet-free part integrated in x."""
    terms = f.terms
    psi_t, psi_x = boundary_current(DiffExpr({m: c for m, c in terms.items() if m.jet_powers}), u, ONE)

    def weighted(e):
        return DiffExpr({m: c / sum(m.jet_powers.values()) for m, c in e.terms.items()})

    free = {Monomial(m.t_deg, m.x_deg + 1): c / (m.x_deg + 1) for m, c in terms.items() if not m.jet_powers}
    return ConservedCurrent(weighted(psi_t), weighted(psi_x) + DiffExpr(free))


def _all_fractions(cur):
    return all(type(c) is Fraction for e in cur for c in e._d.values())


def test_invert_divergence_matches_the_weighted_construction():
    rng = random.Random(18)
    for fractions in [False] * 15 + [True] * 15:
        a = random_expr(rng, max_terms=3, allow_fractions=fractions)
        b = random_expr(rng, max_terms=3, allow_fractions=fractions)
        f = total_derivative(a, "t") + total_derivative(b, "x")
        cur = invert_divergence(f)
        assert cur == _weighted_inverse(f) and _all_fractions(cur), f
    # linear in the jets, with jet-free terms of degree 0 in x: nothing
    # to divide, and still Fraction coefficients
    for f in (jet(1, 0), total_derivative(3 * jet(0, 1) - u, "t") + 4 * t, const(5)):
        cur = invert_divergence(f)
        assert cur == _weighted_inverse(f) and _all_fractions(cur), f


def test_current_from_multiplier_matches_the_inversion_of_q_g(kdv):
    # it inverts the primitive part's q G scaled by the construction's
    # divisors and divides once by both
    for q in (u, u / 3, (jet(0, 2) + u**2 / 2) * Fraction(3, 2), t * u - x, Fraction(7, 1) * ONE):
        cur = current_from_multiplier(q, kdv)
        assert cur == invert_divergence(q * kdv.G) and _all_fractions(cur), q


def test_invert_divergence_self_check_survives_optimize():
    # the final check must raise even when python -O strips asserts
    script = (
        "import jetlaw.diffops as d\n"
        "from jetlaw.expr import ZERO, u\n"
        "d.divergence = lambda cur: ZERO\n"
        "d.invert_divergence(d.total_derivative(u ** 2, 'x'))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert out.returncode != 0
    assert "AssertionError: divergence inversion failed" in out.stderr


def test_current_printing():
    assert str(ConservedCurrent(u, u**2)) == "(T = u, X = u^2)"
