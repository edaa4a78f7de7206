import random
from fractions import Fraction

import pytest

from helpers import forbid_huge_powers_and_jets, random_expr
from jetlaw import grammar
from jetlaw._kernel.pure import MAX_PRODUCTS
from jetlaw.errors import DivisionByZero, ExprSyntaxError, JetLawError, NonPolynomial
from jetlaw.expr import const, jet, t, u, x
from jetlaw.grammar import (
    MAX_EXPONENT,
    MAX_JET_ORDER,
    format_brief,
    format_expr,
    parse_expr,
)


def test_parse_basic_forms():
    assert parse_expr("u") == u
    assert parse_expr("t*x") == t * x
    assert parse_expr("u_t") == jet(1, 0)
    assert parse_expr("u_txx") == jet(1, 2)
    assert parse_expr("u_xtx") == jet(1, 2)
    assert parse_expr("u_xt") == parse_expr("u_tx")
    assert parse_expr("u[1,2]") == jet(1, 2)
    assert parse_expr("u[0,0]") == u
    assert parse_expr("  u  +\t1 ") == u + 1


def test_parse_precedence_and_unary():
    assert parse_expr("1 + 2*u^2") == 1 + 2 * u**2
    assert parse_expr("-u^2") == -(u**2)
    assert parse_expr("(-u)^2") == u**2
    assert parse_expr("2 - -u") == 2 + u
    assert parse_expr("u - u_x*t - 1") == u - jet(0, 1) * t - 1


def test_parse_constant_division():
    assert parse_expr("u/2") == u * Fraction(1, 2)
    assert parse_expr("u / (1 + 1)") == u * Fraction(1, 2)
    assert parse_expr("3/4") == parse_expr("6/8")


def test_syntax_errors_carry_positions():
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("u + * 2")
    assert info.value.pos == 4
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("u_y")
    assert info.value.pos == 1
    with pytest.raises(ExprSyntaxError):
        parse_expr("(u")
    with pytest.raises(ExprSyntaxError):
        parse_expr("")
    with pytest.raises(ExprSyntaxError):
        parse_expr("u^x")


def test_exponent_and_jet_order_caps(monkeypatch):
    assert (MAX_EXPONENT, MAX_JET_ORDER) == (256, 64)
    assert parse_expr("u^256") == u**256
    assert parse_expr("u^0256") == u**256
    assert parse_expr("u[64,0]") == jet(64, 0)
    assert parse_expr("u[32,32]") == jet(32, 32)
    assert parse_expr("u[0064,0]") == jet(64, 0)
    assert parse_expr("u_" + "tx" * 32) == jet(32, 32)
    forbid_huge_powers_and_jets(monkeypatch)
    rejected = {
        "u^257": (2, "exponent exceeds 256"),
        "(u+u_x)^5000": (8, "exponent exceeds 256"),
        "u^" + "9" * 10000: (2, "exponent exceeds 256"),
        "u[65,0]": (2, "jet order exceeds 64"),
        "u[40,40]": (0, "jet order exceeds 64"),
        "u[999999999,0]": (2, "jet order exceeds 64"),
        "u[0," + "7" * 10000 + "]": (4, "jet order exceeds 64"),
        "1 + u_" + "x" * 65: (4, "jet order exceeds 64"),
        "u_" + "x" * 100000: (0, "jet order exceeds 64"),
    }
    for text, (pos, msg) in rejected.items():
        with pytest.raises(ExprSyntaxError, match=msg) as info:
            parse_expr(text)
        assert info.value.pos == pos, text


def test_literal_and_expansion_caps():
    assert MAX_PRODUCTS == 250_000
    assert parse_expr("9" * 4300) == int("9" * 4300)
    # within the cap: a 257-term power, and the product of two of them
    assert parse_expr("(u+u_x)^256") == (u + jet(0, 1)) ** 256
    assert len(parse_expr("(1+u)^256*(1+u)^256")._d) == 513
    # the kernel refuses such products too, but with JetLawError and no
    # position; ExprSyntaxError shows that the parser refused first
    five_terms = "(u+u_x+u_xx+u_t+t)"
    rejected = {
        "9" * 5000 + "*u": (0, "integer literal exceeds 4300 digits"),
        "1 + 2*" + "7" * 4301: (6, "integer literal exceeds 4300 digits"),
        "(u+u_x+u_xx+u_t+t+x)^40": (21, "exceeds 250000 term products"),
        "(u+u_x+u_xx+u_t+t+x)^17": (21, "exceeds 250000 term products"),
        five_terms + "^9*" + five_terms + "^9": (20, "exceeds 250000 term products"),
    }
    for text, (pos, msg) in rejected.items():
        with pytest.raises(ExprSyntaxError, match=msg) as info:
            parse_expr(text)
        assert info.value.pos == pos, text


def test_nonpolynomial_rejections():
    with pytest.raises(NonPolynomial):
        parse_expr("1/u")
    with pytest.raises(NonPolynomial):
        parse_expr("u^-2")
    with pytest.raises(NonPolynomial):
        parse_expr("t/(u+1)")


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        parse_expr("u/0")
    with pytest.raises(DivisionByZero):
        parse_expr("u/(2-2)")


def test_format_is_canonical():
    assert format_expr(parse_expr("- u*u_x - u_xxx")) == "-u_xxx - u*u_x"
    assert format_expr(parse_expr("(u+1)^2/2")) == "1/2*u^2 + u + 1/2"
    assert format_expr(parse_expr("3 - 2*t*x^2*u_x^3")) == "-2*t*x^2*u_x^3 + 3"
    assert format_expr(parse_expr("0")) == "0"
    assert format_expr(parse_expr("u[2,1]")) == "u_ttx"


def test_unit_coefficients_are_suppressed():
    assert format_expr(u) == "u"
    assert format_expr(-u) == "-u"
    assert format_expr(u - t) == "-t + u"
    assert format_expr(Fraction(1, 2) * u) == "1/2*u"


def test_printer_digit_limit():
    # the printer refuses what the parser would refuse to read back, so
    # every printed expression still round-trips
    within = const(10**4299) * u - const(Fraction(1, 10**4299))
    assert parse_expr(format_expr(within)) == within
    for e in (
        const(10**4300),
        const(10**4300) * u + t,
        u + const(Fraction(1, 10**5000)),
        (const(int("9" * 3000)) ** 2) * u,
    ):
        with pytest.raises(JetLawError, match="coefficient exceeds 4300 digits"):
            format_expr(e)


def test_brief_printer_is_bounded():
    # short expressions print as format_expr prints them; long ones are
    # cut after BRIEF_TERMS terms and oversized integers are abbreviated
    rng = random.Random(2025)
    for _ in range(20):
        f = random_expr(rng, max_terms=grammar.BRIEF_TERMS, allow_fractions=True)
        assert format_brief(f) == format_expr(f)
    assert format_brief(const(0)) == "0"
    assert format_brief(const(10**39) * u) == format_expr(const(10**39) * u)
    assert format_brief(const(10**40) * u) == "<~41 digits>*u"
    assert format_brief(-const(Fraction(7, 10**5000)) * u) == "-7/<~5001 digits>*u"
    assert format_brief(const(10**100000) * t) == "<~100001 digits>*t"
    long = sum((x**k for k in range(100)), const(0))
    want = " + ".join(f"x^{k}" for k in range(99, 99 - grammar.BRIEF_TERMS, -1))
    assert format_brief(long) == want + " + ... (88 more terms)"


def test_round_trip_random():
    # format then re-parse must reproduce the expression exactly
    rng = random.Random(2024)
    for _ in range(50):
        f = random_expr(rng, allow_fractions=True)
        assert parse_expr(format_expr(f)) == f
