import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_expr
from jetlaw.expr import ONE, ZERO, DiffExpr, JetIndex, Monomial, const, jet, t, u, x


def test_jet_index_basics():
    idx = JetIndex(2, 1)
    assert idx.order == 3
    assert str(idx) == "u_ttx"
    assert str(JetIndex(0, 0)) == "u"
    with pytest.raises(ValueError):
        jet(-1, 0)


def test_monomial_key_ordering():
    a = Monomial(0, 0, {(0, 0): 1})
    b = Monomial(0, 1)
    c = Monomial(1, 0)
    # t-degree dominates, then x-degree, then the jet tuple
    assert a < b < c
    assert Monomial(0, 0, {(0, 1): 1}) > Monomial(0, 0, {(0, 0): 2})


def test_monomial_rejects_bad_input():
    with pytest.raises(ValueError):
        Monomial(-1, 0)
    with pytest.raises(ValueError):
        Monomial(0, 0, {(0, 0): -2})
    # u_(-1,0) would print as u_, which the parser rejects
    for idx in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="jet index must be non-negative"):
            Monomial(0, 0, {idx: 1})
    # a degree, exponent or jet index counts, so only an int is one
    for bad in (
        lambda: Monomial(1.5, 0),
        lambda: Monomial(0, 2.0),
        lambda: Monomial(0, 0, {(0, 0): 1.5}),
        lambda: Monomial(0, 0, {(0.5, 0): 1}),
        lambda: jet(1.0, 0),
    ):
        with pytest.raises(TypeError, match="must be an int"):
            bad()


def test_constructors_reject_inexact_coefficients():
    # as the operators do: u * 0.5 and u + 0.5 raise TypeError
    for bad in (0.1, 0.5, "1/3", 1e300, None):
        with pytest.raises(TypeError):
            u * bad
        with pytest.raises(TypeError, match="must be an int or a Fraction"):
            const(bad)
        with pytest.raises(TypeError, match="must be an int or a Fraction"):
            DiffExpr({Monomial(1, 0): bad})
    assert const(Fraction(1, 3)) == DiffExpr({Monomial(): Fraction(2, 6)})
    assert DiffExpr({Monomial(1, 0): 2}) == 2 * t


def test_zero_coefficients_are_dropped():
    e = u - u
    assert e.is_zero
    assert e == ZERO
    assert not e.terms


def test_constants():
    assert const(3).is_constant()
    assert const(Fraction(2, 3)).constant_value() == Fraction(2, 3)
    assert ZERO.constant_value() == 0
    assert not (t + u).is_constant()
    assert ONE.constant_value() == 1
    with pytest.raises(ValueError):
        (t + u).constant_value()


def test_arithmetic_identities_random():
    rng = random.Random(101)
    for _ in range(25):
        f = random_expr(rng)
        g = random_expr(rng)
        h = random_expr(rng)
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * (g + h) == f * g + f * h
        assert f - f == ZERO
        assert f * ONE == f
        assert f * ZERO == ZERO
        assert -(-f) == f
        assert 2 * f == f + f


@st.composite
def exprs(draw):
    n = draw(st.integers(1, 3))
    terms = {}
    for _ in range(n):
        mono = Monomial(
            draw(st.integers(0, 2)),
            draw(st.integers(0, 2)),
            {(draw(st.integers(0, 1)), draw(st.integers(0, 2))): draw(st.integers(1, 2))},
        )
        terms[mono] = Fraction(draw(st.integers(-5, 5)))
    return DiffExpr(terms)


@settings(max_examples=60, deadline=None)
@given(exprs(), exprs(), exprs())
def test_multiplication_is_associative_and_commutative(f, g, h):
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)


@settings(max_examples=60, deadline=None)
@given(exprs(), st.integers(0, 4))
def test_pow_matches_repeated_multiplication(f, n):
    p = ONE
    for _ in range(n):
        p = p * f
    assert f**n == p


def test_pow_rejects_negative_exponent():
    with pytest.raises(ValueError):
        u**-1


def test_scalar_division():
    assert (2 * u) / 2 == u
    assert u / Fraction(1, 3) == 3 * u
    with pytest.raises(ZeroDivisionError):
        u / 0
    with pytest.raises(TypeError):
        u / x


def test_partial_derivatives():
    f = t * x * u + u**2
    assert f.partial("t") == x * u
    assert f.partial("x") == t * u
    assert f.partial((0, 0)) == t * x + 2 * u
    assert f.partial((1, 0)) == ZERO


def test_partials_commute_random():
    rng = random.Random(7)
    for _ in range(20):
        f = random_expr(rng)
        assert f.partial("t").partial("x") == f.partial("x").partial("t")
        assert f.partial((0, 1)).partial("t") == f.partial("t").partial((0, 1))


def test_partial_leibniz_random():
    rng = random.Random(8)
    for _ in range(20):
        f = random_expr(rng, max_terms=3)
        g = random_expr(rng, max_terms=3)
        for v in ("t", "x", (0, 0), (1, 1)):
            assert (f * g).partial(v) == f.partial(v) * g + f * g.partial(v)


def test_jet_degree_split():
    f = const(3) + t * u + u * jet(0, 2) + jet(1, 0) ** 3
    parts = f.jet_degree_split()
    assert set(parts) == {0, 1, 2, 3}
    assert parts[0] == const(3)
    assert parts[1] == t * u
    assert sum(parts.values(), ZERO) == f
    for deg, part in parts.items():
        for mono in part.terms:
            assert mono.jet_degree == deg


def test_max_order_and_depends_on():
    assert (t * x).max_order() == -1
    assert u.max_order() == 0
    assert (u * jet(1, 2)).max_order() == 3
    f = t * jet(0, 1)
    assert f.depends_on("t")
    assert not f.depends_on("x")
    assert f.depends_on((0, 1))
    assert not f.depends_on((1, 0))


def test_coefficient_lookup():
    f = 3 * t * u - Fraction(1, 2) * x
    assert f.coefficient(Monomial(1, 0, {(0, 0): 1})) == 3
    assert f.coefficient(Monomial(0, 1)) == Fraction(-1, 2)
    assert f.coefficient(Monomial(5, 5)) == 0


def test_jet_indices():
    f = u * jet(1, 0) + jet(0, 2)
    assert f.jet_indices() == {JetIndex(0, 0), JetIndex(1, 0), JetIndex(0, 2)}


def test_sorted_terms_descend():
    f = u + t + x + const(1)
    keys = [m for m, _ in f.sorted_terms()]
    assert keys == sorted(keys, reverse=True)


def test_str_uses_canonical_format():
    assert str(u**2 * Fraction(1, 2) + jet(0, 2)) == "u_xx + 1/2*u^2"
    assert str(-u) == "-u"
    assert str(ZERO) == "0"


# Integral coefficients are stored as ints inside the kernel; the public
# accessors hand out Fractions, so that a caller dividing one never gets
# a float.


def test_terms_returns_fractions():
    f = 3 * t * u - 2 * x + u / 2
    assert type(next(iter(u._d.values()))) is int
    terms = f.terms
    assert terms == {Monomial(1, 0, {(0, 0): 1}): 3, Monomial(0, 1): -2, Monomial(0, 0, {(0, 0): 1}): Fraction(1, 2)}
    assert all(type(c) is Fraction for c in terms.values())
    assert terms[Monomial(0, 1)] / 4 == Fraction(-1, 2)
    assert all(type(c) is Fraction for _, c in f.sorted_terms())


def test_coefficient_returns_fractions():
    f = 3 * t * u
    c = f.coefficient(Monomial(1, 0, {(0, 0): 1}))
    assert type(c) is Fraction and c / 2 == Fraction(3, 2)
    zero = f.coefficient(Monomial(5, 5))
    assert type(zero) is Fraction and zero == 0


def test_constant_value_returns_fractions():
    for e, want in ((const(7), 7), (ONE, 1), (ZERO, 0), (const(Fraction(2, 3)), Fraction(2, 3))):
        c = e.constant_value()
        assert type(c) is Fraction and c == want
    assert const(7).constant_value() / 2 == Fraction(7, 2)
