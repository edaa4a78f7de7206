"""Coefficient types.  A coefficient is an int while only integers made
it, and a Fraction once a Fraction or a division takes part; no
operation produces a float.  Every operation is checked against its
all-Fraction twin, the same inputs with every coefficient a Fraction:
the two results are equal, hash alike and print alike, and the twin's
holds only Fractions."""

import random
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_expr
from jetlaw import parse_expr
from jetlaw.diffops import divergence, euler, frechet, invert_divergence, total_derivative
from jetlaw.expr import DiffExpr, t, x
from jetlaw.soln import extract_operator, make_pde, restrict
from jetlaw.symmetry import classify


def _twin(e: DiffExpr) -> DiffExpr:
    """e with every coefficient a Fraction."""
    return DiffExpr({m: Fraction(c) for m, c in e.terms.items()})


KDV = make_pde((1, 0), parse_expr("-u*u_x - u_xxx"))
KDV_TWIN = make_pde((1, 0), _twin(KDV.rhs))
MULTIPLIERS = [parse_expr(s) for s in ("1", "u", "u^2 + 2*u_xx", "x - t*u")]
SYMMETRIES = [parse_expr(s) for s in ("u_x", "u_t", "1 - t*u_x", "-2*u - 3*t*u_t - x*u_x")]


def _exact(e: DiffExpr) -> None:
    for c in e._d.values():
        if type(c) is not int:
            assert type(c) is Fraction, c
            assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1


def _of_type(e: DiffExpr, kind: type) -> bool:
    return all(type(c) is kind for c in e._d.values())


def _check_pair(got: DiffExpr, twin: DiffExpr) -> None:
    _exact(got)
    assert _of_type(twin, Fraction)
    assert got == twin
    assert hash(got) == hash(twin)
    assert str(got) == str(twin)


def _inputs(seed: int, fractional: bool):
    rng = random.Random(seed)
    draw = lambda n: random_expr(rng, max_terms=n, max_order=2, max_jet_degree=2, allow_fractions=fractional)
    return rng, draw


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.booleans())
def test_operations_keep_ints_and_follow_fractions(seed, fractional):
    rng, draw = _inputs(seed, fractional)
    f, g = draw(4), draw(3)
    ft, gt = _twin(f), _twin(g)
    k = rng.choice([-3, -1, 2, 5])
    q = Fraction(rng.choice([-3, 2, 5]), rng.randint(1, 4))
    integral = [
        (f + g, ft + gt),
        (f - g, ft - gt),
        (f * g, ft * gt),
        (f * k, ft * k),
        (k * f, k * ft),
        (f**3, ft**3),
        (total_derivative(f, "t"), total_derivative(ft, "t")),
        (total_derivative(f, "x"), total_derivative(ft, "x")),
        (euler(f), euler(ft)),
        (frechet(f, g), frechet(ft, gt)),
        (restrict(f, KDV), restrict(ft, KDV_TWIN)),
    ]
    scaled = [
        (f * q, ft * q),
        (f * Fraction(1), ft * Fraction(1)),
        (Fraction(1) * f, Fraction(1) * ft),
        (f / k, ft / k),
        (f / q, ft / q),
    ]
    for got, twin in integral + scaled:
        _check_pair(got, twin)
    for got, _ in scaled:
        assert _of_type(got, Fraction)
    if not fractional:
        for got, _ in integral:
            assert _of_type(got, int)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.booleans())
def test_extract_operator_and_invert_divergence(seed, fractional):
    _, draw = _inputs(seed, fractional)
    a, b = draw(2), draw(2)
    G, Gt = KDV.G, KDV_TWIN.G
    f = a * G + b * total_derivative(G, "x")
    op = extract_operator(f, KDV)
    op_t = extract_operator(_twin(a) * Gt + _twin(b) * total_derivative(Gt, "x"), KDV_TWIN)
    assert op.coeffs.keys() == op_t.coeffs.keys()
    for K, c in op.coeffs.items():
        _check_pair(c, op_t.coeffs[K])
        if not fractional:
            assert _of_type(c, int)
    # 3*t*x gives the divergence a jet-free part, integrated in x
    T, X = draw(3), draw(3) + 3 * t * x
    cur = invert_divergence(divergence((T, X)))
    cur_t = invert_divergence(divergence((_twin(T), _twin(X))))
    _check_pair(cur.T, cur_t.T)
    _check_pair(cur.X, cur_t.X)


def _combo(rng, items, fractional):
    picked = rng.sample(range(len(items)), rng.randint(1, len(items)))
    out = DiffExpr()
    for i in picked:
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        out = out + items[i] * (Fraction(c, rng.randint(1, 3)) if fractional else c)
    return out


def _check_classify(p, q):
    got = classify(p, q, KDV)
    twin = classify(_twin(p), _twin(q), KDV_TWIN)
    assert got.verdict == twin.verdict
    assert got.lam == twin.lam and str(got.lam) == str(twin.lam)
    if got.lam is not None:
        assert type(got.lam) is Fraction
    _check_pair(got.action, twin.action)
    return got


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.booleans())
def test_classify_weight_is_exact(seed, fractional):
    rng = random.Random(seed)
    _check_classify(_combo(rng, SYMMETRIES, fractional), _combo(rng, MULTIPLIERS, fractional))


def test_classify_integral_weight_is_a_fraction():
    # the scaling symmetry acts on the energy multiplier with weight -5
    res = _check_classify(SYMMETRIES[3], MULTIPLIERS[2])
    assert res.verdict == "Homogeneous" and res.lam == -5
