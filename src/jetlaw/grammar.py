"""Parsing and printing of differential polynomials.

Grammar (whitespace insensitive):

    expr     := term (('+' | '-') term)*
    term     := factor (('*' | '/') factor)*
    factor   := '-' factor | power
    power    := atom ('^' ['-'] INT)?
    atom     := INT | 't' | 'x' | jet | '(' expr ')'
    jet      := 'u' | 'u_' [tx]+ | 'u[' INT ',' INT ']'

u_ttx means d^2/dt^2 d/dx u; the letters after the underscore may come
in any order and are counted, but the printer always emits t's first.
u[i,j] is an alias for the same jet with explicit counts.  Exponents
are integer literals; a negative exponent or a division by anything but
a nonzero constant leaves the polynomial ring and raises NonPolynomial
(division by the zero constant raises DivisionByZero).  Exponents above
MAX_EXPONENT and jets of total order above MAX_JET_ORDER raise
ExprSyntaxError before any power or jet is built, so that one huge
literal cannot demand unbounded time or memory.  So do integer literals
longer than the interpreter converts, and products and powers that
would take the kernel more than its MAX_PRODUCTS term products to expand.

format_expr is the canonical printer: terms in descending monomial
order, explicit '*' between factors, coefficients as integers or
fractions.  parse(format_expr(e)) == e for every expression it prints;
it refuses coefficients with more digits than the parser accepts.
format_brief is the bounded printer of error messages: it abbreviates
long expressions and oversized coefficients instead of refusing them.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import comb

from ._kernel import impl as _k
from .errors import DivisionByZero, ExprSyntaxError, JetLawError, NonPolynomial
from .expr import DiffExpr, const, jet, t, x

MAX_EXPONENT = 256
MAX_JET_ORDER = 64

_TOKEN = re.compile(
    r"""(?P<ws>\s+)
      | (?P<int>\d+)
      | (?P<jet>u_[tx]+)
      | (?P<name>[utx])
      | (?P<op>[-+*/^()\[\],])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Return (kind, value, position) triples, without whitespace."""
    out = []
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            out.append((kind, m.group(), pos))
        pos = m.end()
    out.append(("end", "", n))
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)

    def parse(self) -> DiffExpr:
        e = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected {val!r}", pos)
        return e

    def expr(self) -> DiffExpr:
        e = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                e = e + rhs if val == "+" else e - rhs
            else:
                return e

    def term(self) -> DiffExpr:
        e = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.factor()
                if val == "*":
                    _check_products(len(e._d) * len(rhs._d), pos)
                    e = e * rhs
                else:
                    if not rhs.is_constant():
                        raise NonPolynomial(
                            "division by a non-constant expression"
                        )
                    c = rhs.constant_value()
                    if not c:
                        raise DivisionByZero("division by zero")
                    e = e / c
            else:
                return e

    def factor(self) -> DiffExpr:
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return -self.factor()
        return self.power()

    def power(self) -> DiffExpr:
        e = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            negative = False
            kind, val, pos = self.next()
            if kind == "op" and val == "-":
                negative = True
                kind, val, pos = self.next()
            if kind != "int":
                raise ExprSyntaxError("exponent must be an integer literal", pos)
            if negative:
                raise NonPolynomial("negative exponent leaves the polynomial ring")
            n = _capped(val, MAX_EXPONENT, "exponent", pos)
            _check_products(_power_products(len(e._d), n), pos)
            return e**n
        return e

    def atom(self) -> DiffExpr:
        kind, val, pos = self.next()
        if kind == "int":
            try:
                return const(int(val))
            except ValueError:
                # longer than the interpreter converts (sys.int_info)
                raise ExprSyntaxError(
                    f"integer literal exceeds {sys.get_int_max_str_digits()} digits", pos
                ) from None
        if kind == "jet":
            letters = val[2:]
            _check_jet_order(len(letters), pos)
            return jet(letters.count("t"), letters.count("x"))
        if kind == "name":
            if val == "t":
                return t
            if val == "x":
                return x
            # bare u, or the bracket form u[i,j]
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "[":
                self.next()
                nt = self._jet_count()
                self.expect_op(",")
                nx = self._jet_count()
                self.expect_op("]")
                _check_jet_order(nt + nx, pos)
                return jet(nt, nx)
            return jet(0, 0)
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ExprSyntaxError(
            "expected a number, variable, or parenthesized expression", pos
        )

    def _jet_count(self) -> int:
        kind, val, pos = self.next()
        if kind != "int":
            raise ExprSyntaxError("expected an integer", pos)
        return _capped(val, MAX_JET_ORDER, "jet order", pos)


def _capped(digits: str, cap: int, what: str, pos: int) -> int:
    """The value of an integer literal that must not exceed cap, checked
    on its digits so that a huge literal is never converted."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(cap)) or int(digits) > cap:
        raise ExprSyntaxError(f"{what} exceeds {cap}", pos)
    return int(digits)


def _check_jet_order(order: int, pos: int) -> None:
    if order > MAX_JET_ORDER:
        raise ExprSyntaxError(f"jet order exceeds {MAX_JET_ORDER}", pos)


def _check_products(products: int, pos: int) -> None:
    if products > _k.MAX_PRODUCTS:
        raise ExprSyntaxError(f"expansion exceeds {_k.MAX_PRODUCTS} term products", pos)


def _power_products(terms: int, n: int) -> int:
    """An upper bound on the term products the kernel's pow_ makes for
    the n-th power of a polynomial with the given number of terms.

    pow_ squares the (n // 2)-th power and, for odd n, multiplies by the
    base once more; the k-th power of a T-term polynomial has at most
    C(T + k - 1, k) terms, the number of degree-k monomials in T
    variables.
    """
    if n <= 1:
        return 0
    h = n // 2
    half = comb(terms + h - 1, h)
    products = _power_products(terms, h) + half * half
    if n % 2:
        products += comb(terms + 2 * h - 1, 2 * h) * terms
    return products


def parse_expr(text: str) -> DiffExpr:
    """Parse text in the canonical grammar into a DiffExpr."""
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        raise ExprSyntaxError("expression nested too deeply", parser.peek()[2]) from None


def _format_jet(nt: int, nx: int) -> str:
    if nt == 0 and nx == 0:
        return "u"
    return "u_" + "t" * nt + "x" * nx


def _format_monomial(t_deg: int, x_deg: int, jets) -> str:
    parts = []
    if t_deg:
        parts.append("t" if t_deg == 1 else f"t^{t_deg}")
    if x_deg:
        parts.append("x" if x_deg == 1 else f"x^{x_deg}")
    for nt, nx, e in jets:
        name = _format_jet(nt, nx)
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def _format_terms(items, digits) -> str:
    """The (monomial tuple, coefficient) pairs items as terms, in their
    order, each coefficient magnitude rendered by digits."""
    out = []
    for mono, coeff in items:
        mag = abs(coeff)
        body = _format_monomial(*mono)
        if body and mag == 1:
            piece = body
        else:
            piece = f"{digits(mag)}*{body}" if body else digits(mag)
        if not out:
            out.append(piece if coeff > 0 else f"-{piece}")
        else:
            out.append(f" + {piece}" if coeff > 0 else f" - {piece}")
    return "".join(out)


def _exact_digits(mag: Fraction) -> str:
    try:
        return str(mag)
    except ValueError:
        # longer than the interpreter converts (sys.int_info)
        raise JetLawError(
            f"coefficient exceeds {sys.get_int_max_str_digits()} digits"
        ) from None


def format_expr(e: DiffExpr) -> str:
    """Canonical printer; round-trips through parse_expr exactly.

    A coefficient whose numerator or denominator has more digits than
    the interpreter converts (the limit the parser puts on literals)
    raises JetLawError instead of printing.
    """
    if e.is_zero:
        return "0"
    return _format_terms(e._sorted_items(), _exact_digits)


# format_brief shows at most BRIEF_TERMS terms and abbreviates integers
# of more than BRIEF_DIGITS digits
BRIEF_TERMS = 12
BRIEF_DIGITS = 40
_BRIEF_INT_BOUND = 10**BRIEF_DIGITS
_LOG10_2 = 0.30102999566398120


def _brief_int(n: int) -> str:
    if n < _BRIEF_INT_BOUND:
        return str(n)
    return f"<~{int(n.bit_length() * _LOG10_2) + 1} digits>"


def _brief_digits(mag: Fraction) -> str:
    num = _brief_int(mag.numerator)
    return num if mag.denominator == 1 else f"{num}/{_brief_int(mag.denominator)}"


def format_brief(e: DiffExpr) -> str:
    """A bounded rendering of e for error messages, which never fails.

    It prints like format_expr up to BRIEF_TERMS terms, then counts the
    rest; an integer of more than BRIEF_DIGITS digits shows as its
    approximate digit count.  Short expressions print exactly as
    format_expr prints them.
    """
    if e.is_zero:
        return "0"
    text = _format_terms(e._sorted_items()[:BRIEF_TERMS], _brief_digits)
    rest = len(e._d) - BRIEF_TERMS
    return f"{text} + ... ({rest} more terms)" if rest > 0 else text
