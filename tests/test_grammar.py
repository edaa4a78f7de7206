import random
from fractions import Fraction

import pytest

from helpers import forbid_huge_powers_and_jets, random_expr
from jetlaw import grammar
from jetlaw._kernel import pure
from jetlaw._kernel.pure import MAX_PRODUCTS
from jetlaw.errors import (
    DivisionByZero,
    ExponentOverflow,
    ExprSyntaxError,
    JetLawError,
    NonPolynomial,
)
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


# -- the printers against the printer before their monomial memo -------------


def _reference_terms(e, digits, limit=None):
    """The terms of e as the printer gave them before its monomial memo:
    every key decoded, sorted and formatted again on each call."""
    items = sorted(((pure.decode(k), c) for k, c in e._d.items()), reverse=True)[:limit]
    out = []
    for mono, coeff in items:
        num, den = coeff.numerator, coeff.denominator
        body = grammar._format_monomial(*mono)
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


def _reference_format(e):
    return "0" if e.is_zero else _reference_terms(e, grammar._exact_digits)


def _reference_brief(e):
    if e.is_zero:
        return "0"
    text = _reference_terms(e, grammar._brief_int, grammar.BRIEF_TERMS)
    rest = len(e._d) - grammar.BRIEF_TERMS
    return f"{text} + ... ({rest} more terms)" if rest > 0 else text


def _printed(printer, e):
    """printer(e), or the type and message of the error it raises."""
    try:
        return printer(e)
    except JetLawError as ex:
        return type(ex), str(ex)


def test_memoized_printers_match_the_reference():
    # Fraction coefficients, more terms than BRIEF_TERMS, jets whose
    # slots come after forty others, and coefficients past the
    # int-string limit, which format_expr refuses and format_brief
    # abbreviates; each printed on a memo miss, a hit and after a clear
    rng = random.Random(31)
    for k in range(40):
        pure.encode(0, 0, ((k, 24, 1),))
    late = [(nt, 30 - nt) for nt in range(12)]
    huge = (const(10**4300), const(Fraction(1, 10**4400)), const(-(10**5000)))
    exprs = [const(0), u, -u, const(Fraction(-1, 2)), huge[0], huge[1] * t]
    for i in range(150):
        jets = late if i % 3 == 0 else None
        e = random_expr(rng, max_terms=30, allow_fractions=True, jets=jets)
        if i % 5 == 0:
            e = e + rng.choice(huge) * random_expr(rng, max_terms=2, jets=jets)
        exprs.append(e)
    assert any(len(e._d) > grammar.BRIEF_TERMS for e in exprs)
    assert any(k >> (pure._JETS + 40 * pure.W) for e in exprs for k in e._d)
    refused = 0
    for rounds in range(3):
        if rounds == 2:
            grammar._monomials.clear()
        for e in exprs:
            want = _printed(_reference_format, e)
            assert _printed(format_expr, e) == want
            assert format_brief(e) == _reference_brief(e)
            refused += isinstance(want, tuple)
    assert refused > 10


# -- the parser against DiffExpr's operators ---------------------------------

# a tree is ("int", v), ("t",), ("x",), ("jet", nt, nx), ("neg", a),
# ("pow", a, n), ("paren", a) or (op, a, b) for op in + - * /; the
# precedence of each node's text: sum 0, product 1, negation 2, power 3,
# atom 4
_LEVEL = {"+": 0, "-": 0, "*": 1, "/": 1, "neg": 2, "pow": 3}
# the least precedence of the (left, right) operands of each operator
_OPERANDS = {"+": (0, 1), "-": (0, 1), "*": (1, 2), "/": (1, 2)}


def _constant_tree(rng, depth):
    """A tree without variables."""
    k = rng.randrange(6) if depth else 0
    if k < 3:
        return ("int", rng.randint(0, 9))
    if k == 3:
        return ("pow", ("int", rng.randint(0, 4)), rng.randint(0, 3))
    if k == 4:
        return ("neg", _constant_tree(rng, depth - 1))
    op = rng.choice("+-*/")
    return (op, _constant_tree(rng, depth - 1), _nonzero_constant_tree(rng, depth - 1))


def _nonzero_constant_tree(rng, depth):
    while True:
        tree = _constant_tree(rng, depth)
        if _evaluate(tree):
            return tree


def _tree(rng, depth):
    """A random tree: sums, products, small powers, chains of unary
    minus, nested parentheses and divisions by constants."""
    k = rng.randrange(10) if depth else rng.randrange(4)
    if k == 0:
        return ("int", rng.choice([0, 1, 2, 3, 7, 12, 10**30]))
    if k == 1:
        return (rng.choice(["t", "x"]),)
    if k in (2, 3):
        return ("jet", rng.randint(0, 3), rng.randint(0, 3))
    if k == 4:
        return ("pow", _tree(rng, depth - 1), rng.randint(0, 3))
    if k == 5:
        return ("neg", _tree(rng, depth - 1))
    if k == 6:
        return ("paren", _tree(rng, depth - 1))
    if k == 7:
        return ("/", _tree(rng, depth - 1), _nonzero_constant_tree(rng, 2))
    return (rng.choice("+-*"), _tree(rng, depth - 1), _tree(rng, depth - 1))


def _evaluate(tree):
    """The tree built with DiffExpr's operators, a division by the
    value of its constant divisor as the parser divides."""
    kind = tree[0]
    if kind == "int":
        return const(tree[1])
    if kind == "t":
        return t
    if kind == "x":
        return x
    if kind == "jet":
        return jet(tree[1], tree[2])
    if kind == "neg":
        return -_evaluate(tree[1])
    if kind == "pow":
        return _evaluate(tree[1]) ** tree[2]
    if kind == "paren":
        return _evaluate(tree[1])
    a, b = _evaluate(tree[1]), _evaluate(tree[2])
    if kind == "/":
        return a / b.constant_value()
    return a + b if kind == "+" else a - b if kind == "-" else a * b


def _render(rng, tree):
    """(text, precedence) of tree, with random whitespace between the
    tokens, random jet spellings and parentheses where the precedence
    needs them."""

    def ws():
        return rng.choice(["", "", "", " ", "  ", "\t", "\n"])

    def operand(sub, least):
        text, level = _render(rng, sub)
        return text if level >= least else f"({ws()}{text}{ws()})"

    kind = tree[0]
    if kind == "int":
        return str(tree[1]), 4
    if kind in ("t", "x"):
        return kind, 4
    if kind == "jet":
        nt, nx = tree[1:]
        letters = list("t" * nt + "x" * nx)
        rng.shuffle(letters)
        if letters and rng.randrange(2):
            return "u_" + "".join(letters), 4
        if not letters and rng.randrange(2):
            return "u", 4
        return f"u{ws()}[{ws()}{nt}{ws()},{ws()}{nx}{ws()}]", 4
    if kind == "paren":
        return f"({ws()}{_render(rng, tree[1])[0]}{ws()})", 4
    if kind == "neg":
        return f"-{ws()}{operand(tree[1], 2)}", 2
    if kind == "pow":
        return f"{operand(tree[1], 4)}{ws()}^{ws()}{tree[2]}", 3
    left, right = _OPERANDS[kind]
    return f"{operand(tree[1], left)}{ws()}{kind}{ws()}{operand(tree[2], right)}", _LEVEL[kind]


def _typed(e):
    """The terms of e with the type of each coefficient."""
    return {key: (c, type(c)) for key, c in e._d.items()}


def test_parser_matches_the_operators():
    # every term and the type of its coefficient: a coefficient is a
    # Fraction exactly when a '/' or a Fraction took part in it
    rng = random.Random(1818)
    for _ in range(600):
        tree = _tree(rng, 4)
        text = _render(rng, tree)[0]
        assert _typed(parse_expr(text)) == _typed(_evaluate(tree)), text
    for text, want in (
        ("4/2*u", {u: Fraction(2, 1)}),
        ("(u + 1/2)*2", {u: 2, const(1): Fraction(1, 1)}),
        ("2^3/4", {const(1): Fraction(2, 1)}),
        ("u/2/3/4", {u: Fraction(1, 24)}),
        ("6/2/3*u_x", {jet(0, 1): Fraction(1, 1)}),
        ("2*3*u*u", {u**2: 6}),
        ("-(u+1)^2/(1/2)", {u**2: Fraction(-2), u: Fraction(-4), const(1): Fraction(-2)}),
    ):
        got = parse_expr(text)
        assert _typed(got) == {next(iter(m._d)): (c, type(c)) for m, c in want.items()}, text


# inputs with the error each raises: its type, message and position
# (None for errors without one), as the parser before this table gave them
PARSE_ERRORS = [
    ("u^-1", NonPolynomial, "negative exponent leaves the polynomial ring", None),
    ("u^", ExprSyntaxError, "exponent must be an integer literal", 2),
    ("u*", ExprSyntaxError, "expected a number, variable, or parenthesized expression", 2),
    ("", ExprSyntaxError, "expected a number, variable, or parenthesized expression", 0),
    ("  ", ExprSyntaxError, "expected a number, variable, or parenthesized expression", 2),
    ("3 4", ExprSyntaxError, "unexpected '4'", 2),
    ("u)", ExprSyntaxError, "unexpected ')'", 1),
    ("u[65,0]", ExprSyntaxError, "jet order exceeds 64", 2),
    ("u[64,1]", ExprSyntaxError, "jet order exceeds 64", 0),
    ("u_" + "x" * 65, ExprSyntaxError, "jet order exceeds 64", 0),
    ("t^32767*x", ExprSyntaxError, "exponent exceeds 256", 2),
    ("(t^256)^256", ExponentOverflow, "a degree or exponent of a monomial exceeds 32767", None),
    ("u/(u-u)", DivisionByZero, "division by zero", None),
    ("x^2/x", NonPolynomial, "division by a non-constant expression", None),
    ("1/u", NonPolynomial, "division by a non-constant expression", None),
    ("1" + "0" * 5000, ExprSyntaxError, "integer literal exceeds 4300 digits", 0),
    ("(u+u_x)^5000", ExprSyntaxError, "exponent exceeds 256", 8),
    ("u[1 2]", ExprSyntaxError, "expected ','", 4),
    ("u[", ExprSyntaxError, "expected an integer", 2),
    ("u[1,", ExprSyntaxError, "expected an integer", 4),
    ("u[1,2", ExprSyntaxError, "expected ']'", 5),
    ("u[,1]", ExprSyntaxError, "expected an integer", 2),
    ("u[1,2,3]", ExprSyntaxError, "expected ']'", 5),
    ("u_y", ExprSyntaxError, "unexpected character '_'", 1),
    ("u) $", ExprSyntaxError, "unexpected character '$'", 3),
    ("1.5", ExprSyntaxError, "unexpected character '.'", 1),
    ("u + * 2", ExprSyntaxError, "expected a number, variable, or parenthesized expression", 4),
    ("(u", ExprSyntaxError, "expected ')'", 2),
    ("(u))", ExprSyntaxError, "unexpected ')'", 3),
    ("()", ExprSyntaxError, "expected a number, variable, or parenthesized expression", 1),
    ("-(-(-", ExprSyntaxError, "expected a number, variable, or parenthesized expression", 5),
    ("uu", ExprSyntaxError, "unexpected 'u'", 1),
    ("t[1,2]", ExprSyntaxError, "unexpected '['", 1),
    ("u^x", ExprSyntaxError, "exponent must be an integer literal", 2),
    ("u^-x", ExprSyntaxError, "exponent must be an integer literal", 3),
    ("u^(2)", ExprSyntaxError, "exponent must be an integer literal", 2),
    ("u^2^3", ExprSyntaxError, "unexpected '^'", 3),
    ("2^-0", NonPolynomial, "negative exponent leaves the polynomial ring", None),
    ("u[1,2]^-1", NonPolynomial, "negative exponent leaves the polynomial ring", None),
    ("u/0", DivisionByZero, "division by zero", None),
    ("0/0", DivisionByZero, "division by zero", None),
    ("1/0*u", DivisionByZero, "division by zero", None),
    ("2/(1/2-1/2)", DivisionByZero, "division by zero", None),
    ("(u+u_x)^2/(u-u)", DivisionByZero, "division by zero", None),
    ("t/(u+1)", NonPolynomial, "division by a non-constant expression", None),
    ("(u+1)/(u+1)", NonPolynomial, "division by a non-constant expression", None),
    ("((t^256)^64)^2", ExponentOverflow, "a degree or exponent of a monomial exceeds 32767", None),
    ("(t^200)^200", ExponentOverflow, "a degree or exponent of a monomial exceeds 32767", None),
    ("t^256*(t^256)^127", ExponentOverflow, "a degree or exponent of a monomial exceeds 32767", None),
    ("(u+u_x+u_xx+u_t+t+x)^17", ExprSyntaxError, "expansion exceeds 250000 term products", 21),
    ("(u+u_x+u_xx+u_t+t)^9*(u+u_x+u_xx+u_t+t)^9", ExprSyntaxError,
     "expansion exceeds 250000 term products", 20),
]


def test_parse_errors_keep_type_message_and_position():
    for text, kind, message, pos in PARSE_ERRORS:
        with pytest.raises(JetLawError) as info:
            parse_expr(text)
        err = info.value
        assert type(err) is kind, text
        if pos is None:
            assert str(err) == message, text
        else:
            assert (str(err), err.pos) == (f"{message} (at position {pos})", pos), text
    # the recursion is the one guard on nesting; where it stops depends
    # on the interpreter's stack, so only the message is pinned
    for text in ("(" * 3000 + "u" + ")" * 3000, "-" * 5000 + "u"):
        with pytest.raises(ExprSyntaxError, match="^expression nested too deeply"):
            parse_expr(text)
    # a zero factor makes the rest of its term zero without building it
    assert parse_expr("0*(t^256)^127*(t^256)^127").is_zero
    with pytest.raises(ExponentOverflow):
        parse_expr("(t^256)^127*(t^256)^127*0")


def test_token_memo_hits_and_misses_give_the_same_key():
    # a t, x or jet token, with its exponent, is filed by its text; a
    # miss and a hit give the same key, whatever the spelling
    for text, want in (
        ("u_xt", jet(1, 1)),
        ("u_tx", jet(1, 1)),
        ("u[1,2]", jet(1, 2)),
        ("u_txx", jet(1, 2)),
        ("u[0,0]", u),
        ("t^2", t**2),
        ("t^02", t**2),
        ("x", x),
        ("u_x^3", jet(0, 1) ** 3),
        ("u[1,2]^2*t", jet(1, 2) ** 2 * t),
    ):
        grammar._atoms.clear()
        miss = parse_expr(text)
        hit = parse_expr(text)
        assert miss._d == hit._d == want._d, text
        # u[nt,nx] is filed under its u_ spelling
        assert "u[" not in repr(dict(grammar._atoms)), text
    assert parse_expr("u_xt") == parse_expr("u_tx") == parse_expr("u[1,1]")


def test_invalid_tokens_are_not_memoized():
    # an invalid token raises the same error at the same position on its
    # first and its second parse, and leaves no entry behind; t, x and u
    # are filed beforehand, so each is read again behind its checks
    parse_expr("t + x + u")
    for text in (
        "u_" + "x" * 65,
        "u[65,0]",
        "u[40,40]",
        "1 + u[64,1]^2",
        "u^257",
        "t^300*x",
        "u_x^-1",
        "u^x",
        "t[1,2]",
        "u_xy",
        "u[1,2",
    ):
        got = []
        for _ in range(2):
            before = dict(grammar._atoms)
            with pytest.raises(JetLawError) as info:
                parse_expr(text)
            got.append((type(info.value), str(info.value), getattr(info.value, "pos", None)))
            assert grammar._atoms == before, text
        assert got[0] == got[1], text


def test_printer_and_token_memos_stay_within_their_cap(monkeypatch):
    # more distinct monomials than the cap are printed and more distinct
    # tokens parsed; both memos are kernel Memos that stay within it, and
    # the texts and keys are the same after a clear.  The two sums print
    # past the cap unfiled, and their terms one at a time through the memo
    cap = 50
    monkeypatch.setattr(pure, "MEMO_CAP", cap)
    exprs = [
        sum((x**a for a in range(2, 200)), const(0)),
        sum((jet(0, b) * t**b for b in range(1, 65)), const(0)),
    ]
    exprs += [x**a for a in range(2, 200)] + [jet(0, b) * t**b for b in range(1, 65)]
    texts = [format_expr(e) for e in exprs]
    assert [parse_expr(s) for s in texts] == exprs
    assert len(exprs[0]._d) + len(exprs[1]._d) > 4 * cap
    for memo in (grammar._monomials, grammar._atoms):
        assert isinstance(memo, pure.Memo)
        assert 0 < len(memo) <= cap
    grammar._monomials.clear()
    grammar._atoms.clear()
    assert [format_expr(e) for e in exprs] == texts
    assert [parse_expr(s)._d for s in texts] == [e._d for e in exprs]


def test_printing_past_the_memo_cap_files_no_monomial(monkeypatch):
    # an expression with more distinct monomials than fit in _monomials
    # prints as the reference printer does, reading the entries the memo
    # holds and filing none of the others; one that fits files them all
    cap = 50
    monkeypatch.setattr(pure, "MEMO_CAP", cap)
    grammar._monomials.clear()
    small = sum((x**a * u for a in range(10)), const(0))
    assert format_expr(small) == _reference_format(small)
    held = dict(grammar._monomials)
    assert len(held) == 10
    for n in (cap + 1, 3 * cap, 2000):
        e = small + sum((Fraction(k % 7 - 3 or 5, k % 4 + 1) * x**k * jet(0, 1) ** (k % 3) for k in range(n)), const(0))
        assert len(e._d) > cap
        assert format_expr(e) == _reference_format(e)
        assert grammar._monomials == held
    e = small + sum((t**k for k in range(cap - 10)), const(0))
    assert format_expr(e) == _reference_format(e)
    assert len(grammar._monomials) == cap and held.items() <= grammar._monomials.items()
