"""Term-level arithmetic kernel and exact sparse elimination.

A differential polynomial is stored as a dict mapping monomials to
nonzero rational coefficients.  A monomial is a tuple

    (t_deg, x_deg, jets)

where jets is a tuple of (nt, nx, exp) triples sorted by (nt, nx), each
with exp > 0.  The triple (nt, nx, exp) stands for the jet variable
u_(nt,nx) = d^nt/dt^nt d^nx/dx^nx u raised to the power exp.  The empty
dict is the zero polynomial; ONE_MONO is the unit monomial.

A coefficient is an int while only integers made it and a Fraction
once a Fraction takes part, as in Python's numeric tower; a Fraction is
never demoted, even when integral.  int and Fraction agree in ==, hash
and str, so canonical forms and printing do not depend on the type.
int op int needs no gcd.  Otherwise the arithmetic works on
numerator/denominator integer pairs, with one gcd reduction per result
instead of the full Fraction operator protocol per operation, and
returns ordinary, fully reduced Fractions.  When the running fractions
implementation admits it they are built by filling the slots of a new
Fraction directly; a probe at import time checks that such a Fraction
compares, adds and hashes like one from the constructor, and the
constructor is used otherwise.

rref is the one exact elimination routine.  It works on sparse rows,
dicts {col: int or Fraction} holding only the nonzero entries, and
returns the unique reduced row echelon form in the same representation.
Its row updates go through _acc and _mul_frac like every other routine
here, so the coefficient arithmetic has one copy.
"""

from fractions import Fraction
from math import gcd

ONE_MONO = (0, 0, ())


def _slots_work() -> bool:
    """Whether a Fraction built by filling its slots behaves like one
    from the constructor."""
    try:
        probe = object.__new__(Fraction)
        probe._numerator = 3
        probe._denominator = 2
        return (
            probe == Fraction(3, 2)
            and probe + probe == Fraction(3, 1)
            and hash(probe) == hash(Fraction(3, 2))
        )
    except (AttributeError, TypeError):
        return False


if _slots_work():

    def _frac(n, d):
        """Fraction n/d for already-reduced n, d with d > 0."""
        f = object.__new__(Fraction)
        f._numerator = n
        f._denominator = d
        return f

else:

    def _frac(n, d):
        """Fraction n/d for already-reduced n, d with d > 0."""
        return Fraction(n, d)


def _mul_frac(a, b):
    """Exact product of two coefficients: an int for two ints, otherwise
    a Fraction via integer pairs."""
    if a.__class__ is int is b.__class__:
        return a * b
    na = a.numerator
    da = a.denominator
    nb = b.numerator
    db = b.denominator
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _frac(na * nb, da * db)


def _add_frac(a, b):
    """Exact sum of two coefficients: an int for two ints, otherwise a
    Fraction via integer pairs (Knuth's method)."""
    if a.__class__ is int is b.__class__:
        return a + b
    na = a.numerator
    da = a.denominator
    nb = b.numerator
    db = b.denominator
    g = gcd(da, db)
    if g == 1:
        return _frac(na * db + nb * da, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _frac(t, s * db)
    return _frac(t // g2, s * (db // g2))


def _mul_frac_int(a, k):
    """Exact product of a coefficient and a positive int."""
    if a.__class__ is int:
        return a * k
    da = a.denominator
    g = gcd(k, da)
    if g > 1:
        k //= g
        da //= g
    return _frac(a.numerator * k, da)


def _acc(out, mono, coeff):
    """Accumulate coeff on mono, dropping the entry if it cancels."""
    s = out.get(mono)
    if s is None:
        out[mono] = coeff
    else:
        s = _add_frac(s, coeff)
        if s:
            out[mono] = s
        else:
            del out[mono]


def add(a, b):
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for mono, coeff in b.items():
        _acc(out, mono, coeff)
    return out


def sub(a, b):
    out = dict(a)
    for mono, coeff in b.items():
        _acc(out, mono, -coeff)
    return out


def neg(a):
    return {mono: -coeff for mono, coeff in a.items()}


def scale(a, c):
    if not c:
        return {}
    return {mono: _mul_frac(coeff, c) for mono, coeff in a.items()}


def _merge_jets(ja, jb):
    """Merge two sorted jet tuples, adding exponents of equal jets."""
    if not ja:
        return jb
    if not jb:
        return ja
    out = []
    i = j = 0
    na, nb = len(ja), len(jb)
    while i < na and j < nb:
        at, ax, ae = ja[i]
        bt, bx, be = jb[j]
        if at == bt and ax == bx:
            out.append((at, ax, ae + be))
            i += 1
            j += 1
        elif (at, ax) < (bt, bx):
            out.append(ja[i])
            i += 1
        else:
            out.append(jb[j])
            j += 1
    out.extend(ja[i:])
    out.extend(jb[j:])
    return tuple(out)


def mul(a, b):
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for (ta, xa, ja), ca in a.items():
        for (tb, xb, jb), cb in b.items():
            _acc(out, (ta + tb, xa + xb, _merge_jets(ja, jb)), _mul_frac(ca, cb))
    return out


def pow_(a, n):
    if n == 0:
        return {ONE_MONO: 1}
    if n == 1:
        return dict(a)
    half = pow_(a, n // 2)
    sq = mul(half, half)
    return mul(sq, a) if n % 2 else sq


def diff_t(a):
    """Partial derivative with respect to the explicit variable t."""
    out = {}
    for (t, x, jets), coeff in a.items():
        if t:
            _acc(out, (t - 1, x, jets), _mul_frac_int(coeff, t))
    return out


def diff_x(a):
    out = {}
    for (t, x, jets), coeff in a.items():
        if x:
            _acc(out, (t, x - 1, jets), _mul_frac_int(coeff, x))
    return out


def diff_jet(a, nt, nx):
    """Partial derivative with respect to the jet variable u_(nt,nx)."""
    out = {}
    for (t, x, jets), coeff in a.items():
        for i, (jt, jx, e) in enumerate(jets):
            if jt == nt and jx == nx:
                if e == 1:
                    nj = jets[:i] + jets[i + 1 :]
                else:
                    nj = jets[:i] + ((jt, jx, e - 1),) + jets[i + 1 :]
                _acc(out, (t, x, nj), _mul_frac_int(coeff, e))
                break
    return out


def _jets_step(jets, i, dt, dx):
    """Differentiate the i-th jet factor once: its exponent drops by one
    and the raised jet (nt+dt, nx+dx) gains one, keeping the sort order."""
    jt, jx, e = jets[i]
    if e == 1:
        base = jets[:i] + jets[i + 1 :]
    else:
        base = jets[:i] + ((jt, jx, e - 1),) + jets[i + 1 :]
    rt = jt + dt
    rx = jx + dx
    out = []
    placed = False
    for bt, bx, be in base:
        if not placed:
            if bt == rt and bx == rx:
                out.append((bt, bx, be + 1))
                placed = True
                continue
            if (bt, bx) > (rt, rx):
                out.append((rt, rx, 1))
                placed = True
        out.append((bt, bx, be))
    if not placed:
        out.append((rt, rx, 1))
    return tuple(out)


def total_t(a):
    """Total derivative D_t: explicit t plus the chain rule over jets."""
    out = {}
    for (t, x, jets), coeff in a.items():
        if t:
            _acc(out, (t - 1, x, jets), _mul_frac_int(coeff, t))
        for i in range(len(jets)):
            e = jets[i][2]
            _acc(out, (t, x, _jets_step(jets, i, 1, 0)), _mul_frac_int(coeff, e))
    return out


def total_x(a):
    out = {}
    for (t, x, jets), coeff in a.items():
        if x:
            _acc(out, (t, x - 1, jets), _mul_frac_int(coeff, x))
        for i in range(len(jets)):
            e = jets[i][2]
            _acc(out, (t, x, _jets_step(jets, i, 0, 1)), _mul_frac_int(coeff, e))
    return out


def _sub_multiple(row, f, other):
    """row -= f * other, in place, for sparse rows {col: coefficient};
    entries that cancel are dropped."""
    f = -f
    for k, v in other.items():
        _acc(row, k, _mul_frac(f, v))


def rref(rows):
    """Reduced row echelon form of sparse rows over the rationals,
    returning (rows, pivot_cols).

    rows is an iterable of dicts {col: int or Fraction}, with col a
    non-negative int; absent columns and zero values are zero, and the
    dicts are not modified.  The result lists the nonzero rows of the
    unique reduced row echelon form as dicts in ascending pivot order
    (the pivot entry 1 included, zeros absent) together with their
    pivot columns, so it does not depend on the order of the input rows.

    First, singleton rows are peeled.  A row whose only nonzero entry
    outside the peeled columns lies in column c puts e_c in the row
    space, so c is peeled: its row of the result is e_c.  Every row
    holding c then loses one live entry, and a row left with one joins
    the peel, so the peel cascades.  This takes a column -> rows index
    and a live count per row; no row is copied.  In a determining
    system nearly every unknown is peeled this way.

    The residual rows, those with two or more live entries, are then
    consumed one at a time, fewest live entries first (Markowitz's
    order for sparsity), without their peeled columns.  The pivot rows
    found so far are kept fully reduced, so subtracting their multiples
    clears every pivot column of an incoming row and leaves only free
    columns.  If anything remains, its lowest column becomes a new
    pivot: the row is scaled to 1 there and that column is cleared from
    the earlier pivot rows.  After each input row the pivot rows are
    the reduced echelon form of the residual rows seen so far, so their
    coefficients stay as small as those of that form.  No peeled column
    occurs in them, so with the rows e_c of the peeled columns they
    form the reduced echelon form of the whole system.
    """
    rows = list(rows)
    count = []
    holders = {}
    for i, row in enumerate(rows):
        n = 0
        for c, v in row.items():
            if v:
                n += 1
                holders.setdefault(c, []).append(i)
        count.append(n)
    peeled = set()
    stack = [i for i, n in enumerate(count) if n == 1]
    while stack:
        i = stack.pop()
        if count[i] != 1:
            continue
        c = next(c for c, v in rows[i].items() if v and c not in peeled)
        peeled.add(c)
        for j in holders[c]:
            count[j] -= 1
            if count[j] == 1:
                stack.append(j)
    residual = sorted((i for i, n in enumerate(count) if n > 1), key=count.__getitem__)
    # pivot column -> the pivot row without its entry 1; only free
    # columns occur in these tails
    tails = {}
    for i in residual:
        r = {c: v for c, v in rows[i].items() if v and c not in peeled}
        for p in [c for c in r if c in tails]:
            _sub_multiple(r, r.pop(p), tails[p])
        if not r:
            continue
        p = min(r)
        pv = r.pop(p)
        if pv != 1:
            inv = Fraction(pv.denominator, pv.numerator)
            r = {k: _mul_frac(v, inv) for k, v in r.items()}
        for tail in tails.values():
            f = tail.pop(p, None)
            if f is not None:
                _sub_multiple(tail, f, r)
        tails[p] = r
    for c in peeled:
        tails[c] = {}
    pivot_cols = sorted(tails)
    return [{p: 1, **tails[p]} for p in pivot_cols], pivot_cols
