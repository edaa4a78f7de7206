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
Nesting is bounded by the recursion of the parser alone: past the
interpreter's recursion limit it raises ExprSyntaxError.

parse_expr splits the text on its tokens with one regex and reads them
by recursive descent into the kernel's raw terms.  A term folds its
integers, t, x, jets, their powers and parenthesized expressions of one
term into one monomial key and an integer numerator and denominator, so
it makes at most one Fraction; the kernel's pow_ takes the powers of
parenthesized expressions, and its mul multiplies only those of two or
more terms.  A coefficient is a Fraction exactly when a '/' or a
Fraction took part in it, as with DiffExpr's operators: 4/2*u has the
coefficient Fraction(2, 1), and (u + 1/2)*2 the int 2 on u.  The key of
a t, x or jet token, with its exponent, comes from the memo _atoms,
filled through the kernel's encode once the token has passed every
check above, so a token is counted and encoded once per process; a
token that fails a check is never filed.  The memo is keyed by a token,
never by the text of a term or a sum.

format_expr is the canonical printer: terms in descending monomial
order, explicit '*' between factors, coefficients as integers or
fractions, read off their numerators and denominators.
parse(format_expr(e)) == e for every expression it prints; it refuses
coefficients with more digits than the parser accepts.  format_brief is
the bounded printer of error messages: it abbreviates long expressions
and oversized coefficients instead of refusing them.  format_expr sorts
and prints monomials through the memo _monomials, key -> (tuple form,
printed text), so a monomial is decoded and formatted once per process;
format_brief picks its terms by their decoded keys and prints those
through it.  Coefficients are rendered on every call.  Both memos are
kernel Memos, and a key's slots never change within a process, so an
entry holds until its memo is cleared.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import comb

from ._kernel import impl as _k
from .errors import DivisionByZero, ExprSyntaxError, JetLawError, NonPolynomial
from .expr import DiffExpr

MAX_EXPONENT = 256
MAX_JET_ORDER = 64

# the tokens; the pieces between them must be whitespace
_TOKEN = re.compile(r"(\d+|u_[tx]+|[-+*/^()\[\],tux])")
# the monomial 1, through which mul_into adds one term to a sum
_UNIT = {_k.ONE_MONO: 1}


class _Parser:
    """Recursive descent over the tokens of text.  A factor is a tuple
    (key, c, poly): c times the monomial of key when poly is None, else
    c times poly, a dict of two or more terms."""

    def __init__(self, text: str):
        self.text = text
        toks = _TOKEN.findall(text)
        # tokens hold no whitespace, so this holds when only whitespace
        # lies between them
        if "".join(toks) != "".join(text.split()):
            parts = _TOKEN.split(text)
            j = next(j for j in range(0, len(parts), 2) if parts[j].strip())
            bad = parts[j].lstrip()
            pos = sum(map(len, parts[: j + 1])) - len(bad)
            raise ExprSyntaxError(f"unexpected character {bad[0]!r}", pos)
        # two end markers, so that a factor may look one token past the last
        self.toks = toks + ["", ""]
        self.i = 0

    def error(self, message: str, i: int) -> ExprSyntaxError:
        """The syntax error at the i-th token."""
        parts = _TOKEN.split(self.text)
        return ExprSyntaxError(message, sum(map(len, parts[: 2 * i + 1])))

    def expect(self, op: str) -> None:
        if self.toks[self.i] != op:
            raise self.error(f"expected {op!r}", self.i)
        self.i += 1

    def integer(self, cap: int, what: str) -> int:
        """The value of the integer literal at the current token, checked
        on its digits against cap so that a huge one is never converted."""
        if not self.toks[self.i].isdecimal():
            raise self.error("expected an integer", self.i)
        digits = self.toks[self.i].lstrip("0") or "0"
        if len(digits) > len(str(cap)) or int(digits) > cap:
            raise self.error(f"{what} exceeds {cap}", self.i)
        self.i += 1
        return int(digits)

    def check_products(self, products: int, i: int) -> None:
        if products > _k.MAX_PRODUCTS:
            raise self.error(f"expansion exceeds {_k.MAX_PRODUCTS} term products", i)

    def parse(self) -> dict:
        out = self.expr()
        if self.toks[self.i]:
            raise self.error(f"unexpected {self.toks[self.i]!r}", self.i)
        return out

    def expr(self) -> dict:
        out, sign = {}, 1
        while True:
            self.term(out, sign)
            op = self.toks[self.i]
            if op != "+" and op != "-":
                return out
            sign = 1 if op == "+" else -1
            self.i += 1

    def term(self, out: dict, sign: int) -> None:
        """Read a term and accumulate sign times it into out."""
        key, num, den, frac, poly = _k.ONE_MONO, sign, 1, False, None
        op = at = None
        while True:
            k, c, r = self.factor()
            if op == "/":
                if r is not None or (k and c):
                    raise NonPolynomial("division by a non-constant expression")
                if not c:
                    raise DivisionByZero("division by zero")
                num, den, frac = num * c.denominator, den * c.numerator, True
            else:
                # a zero side makes the product zero, with nothing built
                if num and c:
                    if r is not None:
                        if op:
                            self.check_products((len(poly) if poly else 1) * len(r), at)
                        poly = _k.mul(poly, r) if poly else _shifted(r, key)
                        key = _k.ONE_MONO
                    elif poly is None:
                        # times ONE_MONO, the key 0, a key is itself
                        key = _k.mono_mul(key, k) if key and k else k or key
                    else:
                        self.check_products(len(poly), at)
                        poly = _shifted(poly, k)
                if c.__class__ is int:
                    num *= c
                else:
                    num, den, frac = num * c.numerator, den * c.denominator, True
            op = self.toks[self.i]
            if op != "*" and op != "/":
                break
            at = self.i
            self.i += 1
        if num:
            c = Fraction(num, den) if frac else num
            if poly and not out:
                out.update(poly if c == 1 and not frac else _k.scale(poly, c))
            elif poly:
                _k.mul_into(out, _k.ONE_MONO, c, poly)
            elif key in out:
                _k.mul_into(out, key, c, _UNIT)
            else:
                out[key] = c

    def factor(self) -> tuple:
        toks, i = self.toks, self.i
        tok = toks[i]
        self.i = i + 1
        after = toks[i + 1]
        if after != "^" and after != "[":
            key = _known_atom(tok)
            if key is not None:
                return key, 1, None
        if tok == "-":
            k, c, r = self.factor()
            return k, -c, r
        if tok == "(":
            r = self.expr()
            self.expect(")")
            if toks[self.i] == "^":
                n = self.exponent()
                self.check_products(_power_products(len(r), n), self.i - 1)
                r = _k.pow_(r, n)
            if len(r) > 1:
                return _k.ONE_MONO, 1, r
            for k, c in r.items():
                return k, c, None
            return _k.ONE_MONO, 0, None
        if tok.isdecimal():
            try:
                v = int(tok)
            except ValueError:
                # longer than the interpreter converts (sys.int_info)
                msg = f"integer literal exceeds {sys.get_int_max_str_digits()} digits"
                raise self.error(msg, i) from None
            return _k.ONE_MONO, v ** self.exponent() if toks[self.i] == "^" else v, None
        if tok.startswith("u_"):
            if len(tok) - 2 > MAX_JET_ORDER:
                raise self.error(f"jet order exceeds {MAX_JET_ORDER}", i)
        elif tok == "u" and toks[self.i] == "[":
            self.i += 1
            nt = self.integer(MAX_JET_ORDER, "jet order")
            self.expect(",")
            nx = self.integer(MAX_JET_ORDER, "jet order")
            self.expect("]")
            if nt + nx > MAX_JET_ORDER:
                raise self.error(f"jet order exceeds {MAX_JET_ORDER}", i)
            tok = "u_" + "t" * nt + "x" * nx if nt or nx else "u"
        elif tok != "u" and tok != "t" and tok != "x":
            raise self.error("expected a number, variable, or parenthesized expression", i)
        atom = (tok, self.exponent()) if toks[self.i] == "^" else tok
        key = _known_atom(atom)
        if key is None:
            key = _atoms.keep(atom, _atom_key(atom))
        return key, 1, None

    def exponent(self) -> int:
        """The exponent after the '^' at the current token."""
        self.i += 1
        negative = self.toks[self.i] == "-"
        if negative:
            self.i += 1
        if not self.toks[self.i].isdecimal():
            raise self.error("exponent must be an integer literal", self.i)
        if negative:
            raise NonPolynomial("negative exponent leaves the polynomial ring")
        return self.integer(MAX_EXPONENT, "exponent")


# a checked t, x or jet token, or (token, exponent), -> the key of its
# monomial; u[nt,nx] is filed under its u_ spelling
_atoms = _k.Memo()
_known_atom = _atoms.get


def _atom_key(atom) -> int:
    """The key of the monomial of an _atoms entry."""
    tok, n = atom if atom.__class__ is tuple else (atom, 1)
    if tok == "t":
        return _k.encode(n, 0)
    if tok == "x":
        return _k.encode(0, n)
    return _k.encode(0, 0, ((tok.count("t"), tok.count("x"), n),))


def _shifted(poly: dict, key: int) -> dict:
    """poly times the monomial of key."""
    return _k.mul(poly, {key: 1}) if key else poly


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
        return DiffExpr._raw(parser.parse())
    except RecursionError:
        raise parser.error("expression nested too deeply", parser.i) from None


def _format_monomial(t_deg: int, x_deg: int, jets) -> str:
    parts = []
    if t_deg:
        parts.append("t" if t_deg == 1 else f"t^{t_deg}")
    if x_deg:
        parts.append("x" if x_deg == 1 else f"x^{x_deg}")
    for nt, nx, e in jets:
        name = "u_" + "t" * nt + "x" * nx if nt or nx else "u"
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


# monomial key -> (its tuple form, its printed text); slots are
# append-only, so an entry stays true for the life of the process
_monomials = _k.Memo()
_known_monomial = _monomials.get


def _unfiled(key: int) -> tuple:
    """The _monomials entry of key, not filed."""
    mono = _k.decode(key)
    return mono, _format_monomial(*mono)


def _monomial(key: int) -> tuple:
    """The _monomials entry of key, filed on a miss."""
    return _monomials.keep(key, _unfiled(key))


def _format_terms(items, digits) -> str:
    """(monomial tuple, printed monomial, coefficient) triples as terms,
    in their order, with the numerator and denominator of each
    coefficient's magnitude rendered by digits."""
    out = []
    for _, body, coeff in items:
        num, den = coeff.numerator, coeff.denominator
        sign = " + "
        if num < 0:
            num, sign = -num, " - "
        if body and num == den == 1:
            out.append(sign + body)
        else:
            mag = digits(num) if den == 1 else f"{digits(num)}/{digits(den)}"
            out.append(f"{sign}{mag}*{body}" if body else sign + mag)
    text = "".join(out)
    return text[3:] if text[1] == "+" else "-" + text[3:]


def _exact_digits(n: int) -> str:
    try:
        return str(n)
    except ValueError:
        # longer than the interpreter converts (sys.int_info)
        raise JetLawError(
            f"coefficient exceeds {sys.get_int_max_str_digits()} digits"
        ) from None


def format_expr(e: DiffExpr) -> str:
    """Canonical printer; round-trips through parse_expr exactly.

    A coefficient whose numerator or denominator has more digits than
    the interpreter converts (the limit the parser puts on literals)
    raises JetLawError instead of printing.  An expression with more
    monomials than fit in _monomials files none, so as not to churn it.
    """
    if e.is_zero:
        return "0"
    build = _monomial if _monomials.fits(len(e._d)) else _unfiled
    items = []
    for key, coeff in e._d.items():
        mono = _known_monomial(key) or build(key)
        items.append((*mono, coeff))
    # in descending monomial order; the monomials are distinct, so no
    # two items tie on their first field
    items.sort(reverse=True)
    return _format_terms(items, _exact_digits)


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


def format_brief(e: DiffExpr) -> str:
    """A bounded rendering of e for error messages, which never fails.

    It prints like format_expr up to BRIEF_TERMS terms, then counts the
    rest; an integer of more than BRIEF_DIGITS digits shows as its
    approximate digit count.  Short expressions print exactly as
    format_expr prints them.  The terms shown are picked by their
    decoded keys, so a long expression does not fill _monomials with
    monomials it never prints.
    """
    if e.is_zero:
        return "0"
    d = e._d
    top = sorted(d, key=_k.decode, reverse=True)[:BRIEF_TERMS]
    text = _format_terms([(*(_known_monomial(k) or _monomial(k)), d[k]) for k in top], _brief_int)
    rest = len(d) - BRIEF_TERMS
    return f"{text} + ... ({rest} more terms)" if rest > 0 else text
