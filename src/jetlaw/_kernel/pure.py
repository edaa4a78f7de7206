"""Term-level arithmetic kernel and exact sparse elimination.

A differential polynomial is stored as a dict mapping monomial keys to
nonzero rational coefficients; the empty dict is the zero polynomial.

A monomial t^a x^b prod u_(nt,nx)^e is one int key made of fields of W
bits, packed exponent vectors as in Monagan and Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors"
(CASC 2007): a in the lowest field, b in the next, then one field per
jet variable u_(nt,nx) = d^nt/dt^nt d^nx/dx^nx u, at the slot that jet
was given when first used.  The key of a product is the sum of the
keys, a derivative step adds a precomputed delta, and ONE_MONO, the
unit monomial, is 0.

Slots come from one append-only table per process, (nt, nx) -> slot
and slot -> (nt, nx), in first-use order, so it holds one entry per
distinct jet and a key is only as wide as the highest slot it uses.
Slot numbers differ between processes, so a key never leaves its
process (a DiffExpr pickles through its decoded terms).

The top bit of each field is a guard that stays 0: a field holds a
degree or exponent up to CAP = 2^(W-1) - 1, and the sum of two fields
never carries into the next.  A product whose key has a guard bit set
raises ExponentOverflow, and so does a derivative step that would raise
an exponent past CAP.  A derivative step that would create a jet of
order above MAX_JET_ORDER raises JetLawError, so a runaway chain of
derivatives stops before its keys grow wide.

encode and decode convert between a key and the tuple form
(t_deg, x_deg, jets), jets the (nt, nx, e) triples sorted by (nt, nx),
which orders monomials for printing and for the ansatz.  No other
module builds or takes apart a key: they use encode, decode and the
helpers below.  What depends on the jet part of a key alone is kept
in one record per jet part, in the Memo _parts: its units (jets,
exponents and field units) from one scan, and its sorted factors and
its D_t and D_x steps, each built from the units by its reader on
first use, so the hot loops decode a jet part only on a memo miss.
jet_part_splitter, which gives soln a key's consequence part, takes
that part with one AND by a mask of the consequence jets' fields, and
reads its greatest jet off the units of the part's record; it keeps
nothing but the mask.

Memo is the one rule for the memos of the program: here, _parts,
soln's per equation memos, and grammar's from a token to its key and
from a key to its printed monomial.  keep clears it before an entry
would take it past MEMO_CAP entries or MAX_PRODUCTS held terms, as the
re module's cache once was, so none grows without bound, and fits says
whether n entries fit in one at all.  The deltas
of single jets are kept, one per jet like the slot table, and diffops'
caches of derivatives, which a call must not drop while it uses them,
are bounded per call.

A coefficient is an int while only integers made it and a Fraction
once a Fraction takes part, as in Python's numeric tower; a Fraction is
never demoted, even when integral, and an entry that cancels is
dropped.  The arithmetic is Python's own int and Fraction operators.
int and Fraction agree in ==, hash and str, so canonical forms and
printing do not depend on the type.

rref is the one exact elimination routine.  It works on sparse rows,
dicts {col: int or Fraction} holding only the nonzero entries, and
returns the unique reduced row echelon form in the same representation.
Reduced runs the same peel and residual loop once on a block of rows,
for the reduced echelon forms of that block joined to many blocks of
new columns, each equal to rref's value for value and type for type.
Their row updates accumulate through _acc like every other routine here
but the three hot loops, mul_into, its row-major sibling mul_into_rows
that writes the solves' equations, and the jet steps of _total, which
build most terms and do the same get, add and delete inline.

There is one product loop: mul_add(out, coeff, a, b) adds coeff * a * b
into out in place, one mul_into per term of the shorter factor, so a
sum of products is built without a copy of each product, and
mul(a, b) is mul_add({}, 1, a, b).

MAX_PRODUCTS is the one bound on work and spend the one refusal:
mul_add, and so mul, prices len(a) * len(b) before it builds anything
or touches out, so pow_ is priced at each squaring, and pow_products
bounds a whole pow_ from its squaring schedule before it starts; the
hot loops mul_into and mul_into_rows are not, and their callers spend.
"""

from collections import defaultdict
from fractions import Fraction
from math import comb

from ..errors import ExponentOverflow, JetLawError

# bits per field; the largest degree or exponent a field holds
W = 16
CAP = (1 << (W - 1)) - 1
# entries at which a Memo is cleared
MEMO_CAP = 4096
# terms one product, rewrite or derivative chain may build: about a second
MAX_PRODUCTS = 250_000
# the highest jet order a derivative step may create; the kernel's tests
# create jets up to order 201, the other tests 128 and the benchmark
# workloads 9
MAX_JET_ORDER = 256
ONE_MONO = 0
_MASK = (1 << W) - 1
_GUARD = 1 << (W - 1)
# bit offset of the first jet field; the x field starts at W
_JETS = 2 * W
# (nt, nx) -> bit offset of its field, and slot -> (nt, nx)
_offset: dict = {}
_jet_at: list = []
# the guard bits of every field in use
_guards = _GUARD | _GUARD << W


def _acc(out, mono, coeff):
    """Accumulate coeff on mono, dropping the entry if it cancels."""
    s = out.get(mono)
    if s is None:
        out[mono] = coeff
    else:
        s += coeff
        if s:
            out[mono] = s
        else:
            del out[mono]


def _overflow() -> ExponentOverflow:
    return ExponentOverflow(f"a degree or exponent of a monomial exceeds {CAP}")


def spend(budget: int, n: int) -> int:
    """budget - n, or JetLawError when that is negative."""
    budget -= n
    if budget < 0:
        raise JetLawError(f"work exceeds {MAX_PRODUCTS} terms")
    return budget


def _intern(nt: int, nx: int) -> int:
    """The bit offset of the field of u_(nt,nx), giving the jet the next
    slot on its first use."""
    global _guards
    off = _offset.get((nt, nx))
    if off is None:
        off = _offset[(nt, nx)] = _JETS + W * len(_jet_at)
        _jet_at.append((nt, nx))
        _guards |= _GUARD << off
    return off


# below every jet, so max(NO_JET, j) == j
NO_JET = (-1, -1)


class Memo(dict):
    """Entries by key, each holding some number of terms, cleared before
    an entry would make it hold more than MEMO_CAP entries or
    MAX_PRODUCTS terms together; held counts those terms."""

    __slots__ = ("held",)

    def __init__(self):
        super().__init__()
        self.held = 0

    def keep(self, key, value, terms: int = 0):
        """self[key] = value, holding terms more terms; returns value."""
        if len(self) >= MEMO_CAP or self.held + terms > MAX_PRODUCTS:
            self.clear()
            self.held = 0
        self[key] = value
        self.held += terms
        return value

    @staticmethod
    def fits(n: int) -> bool:
        """Whether n entries fit in a Memo, so filing them churns none."""
        return n <= MEMO_CAP


# jet part -> its record [units, factors, steps_t, steps_x] (_part); its
# get bound once, as a Memo's is slower to look up than a dict's and
# clear keeps the object
_parts = Memo()
_known_part = _parts.get


def _part(jp: int) -> list:
    """File the record of the jet part jp = key >> _JETS.  units holds
    ((nt, nx), e, unit) for each factor u_(nt,nx)^e, sorted, with unit
    the key of u_(nt,nx) alone, so that key - unit lowers e by one; the
    scan takes the highest nonzero field off until none is left.  The
    other fields, decode's factors and _total's steps, stay None until
    their reader builds them."""
    units = []
    rest = jp
    while rest:
        off = (rest.bit_length() - 1) // W * W
        e = rest >> off
        rest -= e << off
        units.append((_jet_at[off // W], e, 1 << (off + _JETS)))
    units.sort()
    return _parts.keep(jp, [tuple(units), None, None, None])


def encode(t_deg: int, x_deg: int, jets=()) -> int:
    """The key of t^t_deg x^x_deg prod u_(nt,nx)^e over the (nt, nx, e)
    triples of jets, for non-negative degrees and distinct jets.  Raises
    ExponentOverflow for a degree or exponent above CAP."""
    if t_deg > CAP or x_deg > CAP:
        raise _overflow()
    key = t_deg | x_deg << W
    for nt, nx, e in jets:
        if e > CAP:
            raise _overflow()
        key |= e << _intern(nt, nx)
    return key


def decode(key: int) -> tuple:
    """The tuple form (t_deg, x_deg, jets) of a key, jets its
    (nt, nx, e) factors sorted by (nt, nx), kept in its jet part's
    record."""
    jp = key >> _JETS
    rec = _known_part(jp) or _part(jp)
    jets = rec[1]
    if jets is None:
        jets = rec[1] = tuple((nt, nx, e) for (nt, nx), e, _ in rec[0])
    return key & _MASK, key >> W & _MASK, jets


def mono_mul(a: int, b: int) -> int:
    """The key of the product of the monomials of keys a and b.  Raises
    ExponentOverflow for a degree or exponent above CAP."""
    key = a + b
    if key & _guards:
        raise _overflow()
    return key


def split_tx(key: int) -> tuple:
    """(t_deg, x_deg, m0) with m0 the key of the jet part alone."""
    return key & _MASK, key >> W & _MASK, key >> _JETS << _JETS


def jet_degree(key: int) -> int:
    """The total degree of a key in the jet variables."""
    jp = key >> _JETS
    return sum(e for _, e, _ in (_known_part(jp) or _part(jp))[0])


def derivative_terms(a: dict) -> int:
    """The most terms a total derivative of a builds: one per term for
    its t or x and one per jet factor."""
    # adding 2^(W-1) - 1 to every field sets the guard bit of exactly
    # the nonzero ones; a loop, as a generator costs twice as much
    guards = _guards
    lows = guards - (guards >> (W - 1))
    jets = guards >> _JETS << _JETS
    n = len(a)
    for key in a:
        n += ((key + lows) & jets).bit_count()
    return n


def split_jet(key: int, jet) -> tuple:
    """(e, base) with key = base * u_jet^e and u_jet not in base, for a
    jet index (nt, nx)."""
    off = _offset.get(jet)
    if off is None:
        return 0, key
    e = key >> off & _MASK
    return e, key - (e << off)


def times_jet(key: int, jet, k: int) -> int:
    """The key of key * u_jet^k for a jet index (nt, nx)."""
    if k > CAP:
        raise _overflow()
    key += k << _intern(*jet)
    if key & _guards:
        raise _overflow()
    return key


def jet_part_splitter(keep):
    """The function key -> (rest, part, top): part the key of the jet
    factors u_(nt,nx)^e of key with keep((nt, nx)) true, rest the key of
    the others, so that key = rest * part, and top the greatest (nt, nx)
    of part, or NO_JET when part is ONE_MONO.

    part is key & mask, mask the fields of every slot whose jet keep
    accepts; slots are append-only, so the mask only grows, when a key
    holds a slot it has not yet looked at.  The mask is all the function
    keeps: top is the greatest jet of the units of part's record in
    _parts, so a key free of kept jets costs one AND and files no
    record."""
    mask = 0
    # keys below 1 << bound hold no slot past those the mask has seen
    bound = _JETS

    def split(key):
        nonlocal mask, bound
        if key >> bound:
            for slot in range((bound - _JETS) // W, len(_jet_at)):
                if keep(_jet_at[slot]):
                    mask |= _MASK << (_JETS + W * slot)
            bound = _JETS + W * len(_jet_at)
        part = key & mask
        if not part:
            return key, ONE_MONO, NO_JET
        jp = part >> _JETS
        return key - part, part, (_known_part(jp) or _part(jp))[0][-1][0]

    return split


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
    return {mono: coeff * c for mono, coeff in a.items()}


def mul_into(out: dict, key: int, coeff, b: dict) -> None:
    """Accumulate coeff * (the monomial of key) * b into out in place,
    one coefficient product per term of b.  This is the one loop that
    adds a scaled copy of terms into a dict; key = ONE_MONO scales
    without a shift."""
    guards = _guards
    # _acc inlined: this loop and the jet steps of _total build most terms
    known = out.get
    for k, c in b.items():
        k += key
        if k & guards:
            raise _overflow()
        s = known(k)
        if s is None:
            out[k] = coeff * c
        else:
            s += coeff * c
            if s:
                out[k] = s
            else:
                del out[k]


def mul_into_rows(rows: dict, col: int, key: int, coeff, b: dict) -> None:
    """mul_into into column col of rows {monomial key: {col: coefficient}},
    the equations of a linear system, each term written into the row of
    its monomial; a row left empty is dropped."""
    guards = _guards
    known = rows.get
    for k, c in b.items():
        k += key
        if k & guards:
            raise _overflow()
        row = known(k)
        if row is None:
            rows[k] = {col: coeff * c}
        elif col not in row:
            row[col] = coeff * c
        else:
            s = row[col] + coeff * c
            if s:
                row[col] = s
            else:
                del row[col]
                if not row:
                    del rows[k]


def mul_add(out: dict, coeff, a: dict, b: dict) -> dict:
    """out += coeff * a * b in place, returning out: one mul_into per
    term of the shorter of a and b.  len(a) * len(b) is priced first, so
    a product past MAX_PRODUCTS is refused before out is touched."""
    if not coeff or not a or not b:
        return out
    spend(MAX_PRODUCTS, len(a) * len(b))
    if len(a) > len(b):
        a, b = b, a
    for key, c in a.items():
        mul_into(out, key, coeff * c, b)
    return out


def mul(a, b):
    return mul_add({}, 1, a, b)


def pow_(a, n):
    if n == 0:
        return {ONE_MONO: 1}
    if n == 1:
        return dict(a)
    half = pow_(a, n // 2)
    sq = mul(half, half)
    return mul(sq, a) if n % 2 else sq


def pow_products(terms: int, n: int) -> int:
    """An upper bound on the term products pow_ makes for the n-th power
    of a polynomial with the given number of terms.

    pow_ squares the (n // 2)-th power and, for odd n, multiplies by the
    base once more; the k-th power of a T-term polynomial has at most
    C(T + k - 1, k) terms, the number of degree-k monomials in T
    variables.
    """
    if n <= 1:
        return 0
    h = n // 2
    half = comb(terms + h - 1, h)
    products = pow_products(terms, h) + half * half
    if n % 2:
        products += comb(terms + 2 * h - 1, 2 * h) * terms
    return products


def _diff_field(a, off: int) -> dict:
    """Partial derivative by the variable whose field starts at off.
    Distinct keys differentiate to distinct keys, so no term cancels."""
    unit = 1 << off
    out = {}
    for key, coeff in a.items():
        n = key >> off & _MASK
        if n:
            out[key - unit] = coeff * n
    return out


def diff_t(a):
    """Partial derivative with respect to the explicit variable t."""
    return _diff_field(a, 0)


def diff_x(a):
    return _diff_field(a, W)


def diff_jet(a, nt, nx):
    """Partial derivative with respect to the jet variable u_(nt,nx)."""
    off = _offset.get((nt, nx))
    return {} if off is None else _diff_field(a, off)


def partials(a) -> dict:
    """{(nt, nx): da/du_(nt,nx)} over the jets of a, in ascending
    (nt, nx) order, in one pass over the terms of a.  Distinct keys
    differentiate to distinct keys, so no partial cancels a term."""
    out = {}
    for key, coeff in a.items():
        jp = key >> _JETS
        for jet, e, unit in (_known_part(jp) or _part(jp))[0]:
            d = out.get(jet)
            if d is None:
                d = out[jet] = {}
            d[key - unit] = coeff * e
    return {jet: out[jet] for jet in sorted(out)}


# (nt, nx) -> the delta of its step under D_t, and under D_x; one entry
# per jet, as in the slot table
_delta_t: dict = {}
_delta_x: dict = {}


def _steps(rec: list, field: int, deltas: dict, dt: int, dx: int) -> tuple:
    """(e, delta) for each factor u_(nt,nx)^e of rec's jet part, sorted:
    key + delta lowers that exponent by one and raises u_(nt+dt,nx+dx)
    by one.  Kept in rec[field] once none is raised past CAP.  Raises
    JetLawError for a step to a jet of order above MAX_JET_ORDER, before
    its slot is given."""
    units = rec[0]
    steps = []
    for jet, e, unit in units:
        delta = deltas.get(jet)
        if delta is None:
            if jet[0] + jet[1] >= MAX_JET_ORDER:
                raise JetLawError(f"a derivative of order above {MAX_JET_ORDER}")
            delta = deltas[jet] = (1 << _intern(jet[0] + dt, jet[1] + dx)) - unit
        steps.append((e, delta))
    # only a factor at CAP can be raised past it
    if any(e == CAP for _, e, _ in units):
        raised = {(nt + dt, nx + dx) for (nt, nx), _, _ in units}
        if any(e == CAP and jet in raised for jet, e, _ in units):
            raise _overflow()
    rec[field] = steps = tuple(steps)
    return steps


def _total(a, off: int, field: int, deltas: dict, dt: int, dx: int) -> dict:
    """Total derivative: the explicit variable whose field starts at off,
    plus the chain rule over the jets, each step (dt, dx)."""
    unit = 1 << off
    out = {}
    built = out.get
    known = _known_part
    for key, coeff in a.items():
        n = key >> off & _MASK
        if n:
            _acc(out, key - unit, coeff * n)
        jp = key >> _JETS
        rec = known(jp) or _part(jp)
        steps = rec[field]
        if steps is None:
            steps = _steps(rec, field, deltas, dt, dx)
        for e, delta in steps:
            # _acc inlined, as in mul_into
            k = key + delta
            s = built(k)
            if s is None:
                out[k] = coeff * e
            else:
                s += coeff * e
                if s:
                    out[k] = s
                else:
                    del out[k]
    return out


def total_t(a):
    """Total derivative D_t: explicit t plus the chain rule over jets."""
    return _total(a, 0, 2, _delta_t, 1, 0)


def total_x(a):
    return _total(a, W, 3, _delta_x, 0, 1)


def _sub_multiple(row, f, other):
    """row -= f * other, in place, for sparse rows {col: coefficient};
    entries that cancel are dropped.  Not mul_into: a column index is
    not a monomial key, and its guard test would reject column 2^(W-1)."""
    f = -f
    for k, v in other.items():
        _acc(row, k, f * v)


def _peel(rows) -> tuple:
    """The singleton peel of a list of sparse rows: (peels, peeled,
    holders, residual), with peels each peel row -> its column in peel
    order, peeled those columns, holders the column -> rows index and
    residual the rows left with two or more live entries, fewest first
    (Markowitz's order for sparsity).

    A row whose only nonzero entry outside the peeled columns lies in
    column c puts e_c in the row space, so c is peeled.  Every row
    holding c then loses one live entry, and a row left with one joins
    the peel, so the peel cascades; a row left with none is dead.  The
    peeled columns do not depend on the order of the rows.  No row is
    copied.  In a determining system nearly every unknown is peeled
    this way."""
    count = []
    # setdefault would build a list per entry, and on a determining
    # system this index is about half of rref
    holders = defaultdict(list)
    for i, row in enumerate(rows):
        n = 0
        for c, v in row.items():
            if v:
                n += 1
                holders[c].append(i)
        count.append(n)
    peels = {}
    peeled = set()
    stack = [i for i, n in enumerate(count) if n == 1]
    while stack:
        i = stack.pop()
        if count[i] != 1:
            continue
        for c, v in rows[i].items():
            if v and c not in peeled:
                break
        peels[i] = c
        peeled.add(c)
        for j in holders[c]:
            count[j] -= 1
            if count[j] == 1:
                stack.append(j)
    residual = sorted((i for i, n in enumerate(count) if n > 1), key=count.__getitem__)
    return peels, peeled, holders, residual


def _eliminate(rows, peeled) -> dict:
    """Pivot column -> the pivot row without its entry 1, of the reduced
    echelon form of rows with their peeled columns left out.

    The rows are consumed one at a time, in the order given.  The pivot
    rows found so far are kept fully reduced, so subtracting their
    multiples clears every pivot column of an incoming row and leaves
    only free columns.  If anything remains, its lowest column
    becomes a new pivot: the row is scaled to 1 there and that column is
    cleared from the earlier pivot rows.  After each row the pivot rows
    are the reduced echelon form of the rows seen so far, so their
    coefficients stay as small as those of that form."""
    tails = {}
    for row in rows:
        r = {c: v for c, v in row.items() if v and c not in peeled}
        for p in [c for c in r if c in tails]:
            _sub_multiple(r, r.pop(p), tails[p])
        if not r:
            continue
        p = min(r)
        pv = r.pop(p)
        if pv != 1:
            inv = Fraction(pv.denominator, pv.numerator)
            r = {k: v * inv for k, v in r.items()}
        for tail in tails.values():
            f = tail.pop(p, None)
            if f is not None:
                _sub_multiple(tail, f, r)
        tails[p] = r
    return tails


def _tails(rows: list) -> dict:
    """_eliminate for the whole of rows: the peel, then its residual
    rows.  No peeled column occurs in the residual's pivot rows, so with
    the rows e_c of the peeled columns they form the reduced echelon
    form of rows."""
    _, peeled, _, residual = _peel(rows)
    tails = _eliminate((rows[i] for i in residual), peeled)
    for c in peeled:
        tails[c] = {}
    return tails


def _echelon(tails: dict) -> tuple:
    """(rows, pivot_cols) of the reduced echelon form with these tails."""
    pivot_cols = sorted(tails)
    return [{p: 1, **tails[p]} for p in pivot_cols], pivot_cols


def rref(rows):
    """Reduced row echelon form of sparse rows over the rationals,
    returning (rows, pivot_cols).

    rows is an iterable of dicts {col: int or Fraction}, with col a
    non-negative int; absent columns and zero values are zero, and the
    dicts are not modified.  The result lists the nonzero rows of the
    unique reduced row echelon form as dicts in ascending pivot order
    (the pivot entry 1 included, zeros absent) together with their
    pivot columns, so it does not depend on the order of the input rows.

    Singleton rows are peeled first (_peel), then the residual rows are
    eliminated without their peeled columns (_eliminate).  The same peel
    and loop serve Reduced, which eliminates one block of rows once for
    the many blocks of columns joined to it.
    """
    return _echelon(_tails(list(rows)))


class Reduced:
    """Sparse rows {key: row}, eliminated once, for the rref of the same
    rows joined to many blocks of new columns (joined).

    Kept from the peel: each peel row's column, the column -> rows
    index, and the residual rows with the pivot rows they reduce to
    alone.  Added columns change the peel only on the rows they reach:
    the rows they touch and, from each peel row reached, every row
    holding its column, as in the sparse triangular solve of Gilbert and
    Peierls ("Sparse partial pivoting in time proportional to
    arithmetic operations", SIAM J. Sci. Stat. Comput. 1988)."""

    __slots__ = ("index", "rows", "peels", "peeled", "holders", "residual", "tails")

    def __init__(self, rows: dict):
        self.index = {key: i for i, key in enumerate(rows)}
        self.rows = rows = list(rows.values())
        self.peels, self.peeled, self.holders, self.residual = _peel(rows)
        self.tails = _eliminate((rows[i] for i in self.residual), self.peeled)

    def _reach(self, touched) -> set:
        """The rows touched, and every row holding the column of a peel
        row reached."""
        peels, holders = self.peels, self.holders
        reached = set(touched)
        stack = list(reached)
        while stack:
            c = peels.get(stack.pop())
            if c is not None:
                for j in holders[c]:
                    if j not in reached:
                        reached.add(j)
                        stack.append(j)
        return reached

    def joined(self, m: dict) -> tuple:
        """rref(rows | m) for rows m {key: {col: coefficient}} over
        columns that the rows do not hold, joined to the row of the same
        key, or added after the rows at a key that is not one of them;
        equal to that rref in its values and in their types.

        A column peeled from rows no added column reaches is peeled from
        the joined rows too, so it is dropped from the rows reached, and
        only those rows and the added ones are eliminated.  They hold no
        free column of the rows, unless a residual row is reached, so the
        residual's pivot rows stand in for its rows; a reached residual
        row puts all of them back."""
        index = self.index
        joined, added = {}, []
        for key, r in m.items():
            i = index.get(key)
            if i is None:
                added.append(r)
            else:
                joined[i] = r
        reached = self._reach(joined)
        drop = self.peeled.difference([self.peels[i] for i in reached if i in self.peels])
        if reached.isdisjoint(self.residual):
            rows = [{p: 1, **t} for p, t in self.tails.items()]
        else:
            rows = []
            reached.update(self.residual)
        own = self.rows
        rows += [
            {c: v for c, v in own[i].items() if v and c not in drop} | joined.get(i, {}) for i in sorted(reached)
        ]
        tails = _tails(rows + added) if reached or added else dict(self.tails)
        for c in drop:
            tails[c] = {}
        return _echelon(tails)
