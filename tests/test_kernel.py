"""The term kernel against the sympy oracle, the Fraction constructor
and a tuple-key reference of its monomial arithmetic."""

import os
import pickle
import random
import re
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy as sp

import oracle
from helpers import random_expr
from jetlaw import format_expr, parse_expr
from jetlaw._kernel import pure
from jetlaw.cli import main
from jetlaw.conslaw import Ansatz, ansatz_monomials
from jetlaw.diffops import total_derivative
from jetlaw.errors import ExponentOverflow, JetLawError, NotOnSolutionSpace
from jetlaw.expr import DiffExpr, jet, t, u, x
from jetlaw.soln import extract_operator, make_pde, restrict
from jetlaw.symmetry import solve_symmetries


def _q(v):
    return sp.Rational(v.numerator, v.denominator)


def test_arithmetic_matches_reference_fractional():
    rng = random.Random(31)
    for _ in range(12):
        f = random_expr(rng, max_terms=4, max_order=2, allow_fractions=True)
        g = random_expr(rng, max_terms=3, max_order=2, allow_fractions=True)
        c = Fraction(rng.choice([-7, -2, 3, 5]), rng.randint(1, 9))
        fs, gs = oracle.to_sympy(f), oracle.to_sympy(g)
        assert oracle.to_sympy(f + g) == sp.expand(fs + gs)
        assert oracle.to_sympy(f - g) == sp.expand(fs - gs)
        assert oracle.to_sympy(f - f) == 0
        assert oracle.to_sympy(f * g) == sp.expand(fs * gs)
        assert oracle.to_sympy(f * c) == sp.expand(fs * _q(c))
        assert oracle.to_sympy(g**3) == sp.expand(gs**3)
        for nt, nx in [(0, 0), (0, 1), (1, 0), (0, 2)]:
            got = oracle.to_sympy(f.partial((nt, nx)))
            assert got == sp.expand(sp.diff(fs, oracle.jet_sym(nt, nx)))


def _random_entry(rng):
    kind = rng.random()
    if kind < 0.35:
        return Fraction(0)
    if kind < 0.55:
        return Fraction(rng.randint(-2**80, 2**80), rng.randint(1, 2**70))
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def _sparse(rows):
    return [{j: v for j, v in enumerate(row) if v} for row in rows]


def _dense(rows, n):
    return [[row.get(j, Fraction(0)) for j in range(n)] for row in rows]


def _check_against_sympy(rows, n):
    """Kernel rref of the sparse form of dense rows against sympy: the
    same pivots, the nonzero rows equal to sympy's leading rows, and
    sympy's remaining rows zero; every stored entry nonzero, and an int
    or a Fraction reduced with a positive denominator."""
    got, pivots = pure.rref(_sparse(rows))
    want, want_pivots = sp.Matrix(len(rows), n, [_q(v) for row in rows for v in row]).rref()
    assert tuple(pivots) == want_pivots
    want_rows = want.tolist()
    assert [[_q(v) for v in row] for row in _dense(got, n)] == want_rows[: len(got)]
    assert all(v == 0 for row in want_rows[len(got) :] for v in row)
    for row in got:
        assert all(0 <= j < n for j in row)
        for v in row.values():
            assert type(v) in (int, Fraction) and v
            assert v.denominator > 0 and gcd(v.numerator, v.denominator) == 1


def test_rref_matches_reference():
    rng = random.Random(32)
    for _ in range(40):
        m, n = rng.randint(1, 6), rng.randint(1, 7)
        rows = [[_random_entry(rng) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.3:
            rows[rng.randrange(m)] = [Fraction(0)] * n
        if m > 1 and rng.random() < 0.3:
            rows[1] = [3 * v for v in rows[0]]
        _check_against_sympy(rows, n)


def _integral(rows):
    """Each row scaled by the lcm of its denominators, as ints."""
    out = []
    for row in rows:
        den = lcm(*(v.denominator for v in row))
        out.append([int(v * den) for v in row])
    return out


def test_rref_matches_reference_on_int_rows():
    # determining systems arrive as int rows; the result is the exact
    # rref of their Fraction twins
    rng = random.Random(37)
    for i in range(60):
        if i % 3 == 0:
            m, n = rng.randint(1, 6), rng.randint(1, 7)
            rows = [[Fraction(rng.choice([0, 0, -2, -1, 1, 1, 3])) for _ in range(n)] for _ in range(m)]
        else:
            rows, n = _peeling_system(rng) if i % 3 == 1 else _tall_sparse_system(rng)
        ints = _integral(rows)
        assert all(type(v) is int for row in ints for v in row)
        _check_against_sympy(ints, n)
        twins = [[Fraction(v) for v in row] for row in ints]
        assert _exact(pure.rref(_sparse(ints))) == _exact(pure.rref(_sparse(twins)))


def _tall_sparse_system(rng):
    """A tall sparse system shaped like a determining system: many more
    equations than unknowns, a few nonzeros per equation, mostly small
    integers, with zero rows, repeated and scaled rows, all-zero columns
    and occasional entries above 2**64."""
    n = rng.randint(1, 12)
    m = rng.randint(n, 5 * n + 5)
    dead = set(rng.sample(range(n), rng.randint(0, n // 3)))
    live = [j for j in range(n) if j not in dead] or [0]
    rows = []
    for _ in range(m):
        row = [Fraction(0)] * n
        kind = rng.random()
        if kind < 0.1:
            pass
        elif kind < 0.25 and rows:
            c = Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 3))
            row = [c * v for v in rng.choice(rows)]
        else:
            for j in rng.sample(live, min(len(live), rng.randint(1, 3))):
                if rng.random() < 0.05:
                    row[j] = Fraction(rng.randint(-2**80, 2**80), rng.randint(1, 2**66))
                else:
                    row[j] = Fraction(rng.choice([c for c in range(-6, 7) if c]))
        rows.append(row)
    rng.shuffle(rows)
    return rows, n


def test_rref_matches_reference_on_tall_sparse_systems():
    rng = random.Random(34)
    for _ in range(40):
        rows, n = _tall_sparse_system(rng)
        _check_against_sympy(rows, n)


def test_rref_degenerate_inputs():
    assert pure.rref([]) == ([], [])
    assert pure.rref([{}, {}]) == ([], [])
    assert pure.rref([{3: Fraction(0)}, {}]) == ([], [])
    assert pure.rref([{4: Fraction(-2, 3)}]) == ([{4: Fraction(1)}], [4])


def _peeling_system(rng):
    """A sparse system most of whose unknowns are forced to zero in
    cascades: a chain of rows e_a, a + b, b + c, ... peels one column per
    row, and the rest are random rows of two to four entries, singleton
    rows, explicit zeros, zero rows and scaled copies."""
    n = rng.randint(2, 9)
    chain = rng.sample(range(n), rng.randint(1, n))
    rows = [[Fraction(0)] * n for _ in chain]
    rows[0][chain[0]] = _random_entry(rng) or Fraction(-3)
    for row, a, b in zip(rows[1:], chain, chain[1:]):
        row[a] = _random_entry(rng) or Fraction(2)
        row[b] = _random_entry(rng) or Fraction(1, 5)
    for _ in range(rng.randint(0, 2 * n)):
        row = [Fraction(0)] * n
        kind = rng.random()
        if kind < 0.2:
            row[rng.randrange(n)] = _random_entry(rng)
        elif kind < 0.35:
            row = [Fraction(-5, 2) * v for v in rng.choice(rows)]
        elif kind > 0.45:
            for j in rng.sample(range(n), min(n, rng.randint(2, 4))):
                row[j] = _random_entry(rng)
        rows.append(row)
    rng.shuffle(rows)
    return rows, n


def test_rref_matches_reference_on_peeling_cascades():
    rng = random.Random(35)
    for _ in range(40):
        rows, n = _peeling_system(rng)
        _check_against_sympy(rows, n)


def _exact(result):
    """An rref result with every entry as its (numerator, denominator)."""
    rows, pivots = result
    return [sorted((k, v.numerator, v.denominator) for k, v in row.items()) for row in rows], pivots


def test_rref_does_not_depend_on_row_order():
    rng = random.Random(36)
    for i in range(60):
        rows, _ = _peeling_system(rng) if i % 2 else _tall_sparse_system(rng)
        rows = _sparse(rows)
        want = _exact(pure.rref(rows))
        for _ in range(3):
            rng.shuffle(rows)
            assert _exact(pure.rref(rows)) == want


def test_rref_does_not_modify_its_input():
    rows = [
        {0: Fraction(2), 2: Fraction(1)},
        {0: Fraction(1), 1: Fraction(3)},
        {3: Fraction(0), 4: Fraction(7)},
        {4: Fraction(1), 5: Fraction(-1), 6: Fraction(0)},
        {5: Fraction(2, 3), 6: Fraction(1), 7: Fraction(1)},
    ]
    copy = [dict(r) for r in rows]
    assert pure.rref(rows)[1] == [0, 1, 4, 5, 6]
    assert rows == copy
    assert [list(r) for r in rows] == [list(r) for r in copy]


def test_rref_peels_the_kdv_symmetry_system(kdv, monkeypatch):
    # nearly every unknown of a determining system is forced to zero by
    # an equation holding only it; peeling those leaves a handful of
    # rows for the fill-in loop (2,116 subtractions in column order)
    calls = []
    sub_multiple = pure._sub_multiple

    def counted(row, f, other):
        calls.append(len(other))
        sub_multiple(row, f, other)

    monkeypatch.setattr(pure, "_sub_multiple", counted)
    assert len(solve_symmetries(kdv, Ansatz(2, 2, 1, 1))) == 4
    assert len(calls) < 100


def _block_system(rng, ints):
    """Rows {key: row} over columns 0..n-1, shaped like the rows of
    P_(0,0) that a block kernel eliminates once, with peel rows, dead
    rows and residual rows, and rows {key: row} over columns n and up,
    at keys of those rows and at keys that are not.  Pivots other than
    1 are common, and the entries are ints only if ints."""

    def entry():
        if ints or rng.random() < 0.5:
            return rng.choice([1, 1, -1, 2, -3])
        return Fraction(rng.choice([-3, -1, 1, 2, 4]), rng.choice([1, 2, 3]))

    n = rng.randint(1, 8)
    rows = {}
    for key in range(0, 2 * rng.randint(1, 3 * n), 2):
        rows[key] = {c: entry() for c in rng.sample(range(n), rng.randint(1, min(n, 3)))}
    width = rng.randint(1, 3)
    m = {}
    for key in rng.sample(list(rows) + [1, 3, 5], rng.randint(0, 4)):
        m[key] = {c: entry() for c in rng.sample(range(n, n + width), rng.randint(1, width))}
    return rows, m


def _typed(echelon):
    rows, pivots = echelon
    return [[(k, v, type(v)) for k, v in row.items()] for row in rows], pivots


def test_reduced_rows_joined_equal_rref_of_the_joined_rows():
    # the rows are eliminated once; joined to new columns, they must give
    # the rref of the joined rows in its values, their types and their
    # order, whichever kind of row the new columns touch
    rng = random.Random(39)
    seen = set()
    for i in range(600):
        rows, m = _block_system(rng, ints=i % 2 == 0)
        copy = {k: dict(r) for k, r in rows.items()}
        once = pure.Reduced(rows)
        for extra in ({}, m):
            left = dict(extra)
            joined = [r | left.pop(k) if k in left else r for k, r in rows.items()] + list(left.values())
            assert _typed(once.joined(extra)) == _typed(pure.rref(joined))
        assert rows == copy
        for key in m:
            j = once.index.get(key)
            seen.add(
                "absent" if j is None
                else "peel" if j in once.peels
                else "residual" if j in once.residual
                else "dead"
            )
        if any(once.rows[j][c] != 1 for j, c in once.peels.items()):
            seen.add("ints, pivot not 1" if i % 2 == 0 else "fractions, pivot not 1")
        seen.add("empty" if not m else "joined")
    assert seen == {
        "absent", "peel", "residual", "dead", "ints, pivot not 1", "fractions, pivot not 1", "empty", "joined",
    }


def test_mul_into_rows_writes_the_transposed_images():
    # column j of the rows is the image mul_into builds for j, entry for
    # entry; entries that cancel and rows they leave empty are dropped
    rng = random.Random(47)
    for _ in range(40):
        images, rows = [], {}
        for j in range(rng.randint(1, 5)):
            image = {}
            steps = [(pure.encode(rng.randint(0, 2), rng.randint(0, 2)), rng.choice([1, -3, Fraction(2, 5)]),
                      random_expr(rng, max_terms=4, max_order=2, allow_fractions=True)._d) for _ in range(3)]
            steps += [(key, -c, b) for key, c, b in rng.sample(steps, rng.randint(0, 3))]
            for key, c, b in steps:
                pure.mul_into(image, key, c, b)
                pure.mul_into_rows(rows, j, key, c, b)
            images.append(image)
        want = {}
        for j, image in enumerate(images):
            for k, c in image.items():
                want.setdefault(k, {})[j] = c
        assert rows == want
        assert all(row and all(row.values()) for row in rows.values())


def _random_coeff(rng):
    """A small or huge int, or a random entry (a Fraction)."""
    if rng.random() < 0.4:
        return rng.choice([rng.randint(-6, 6), rng.randint(-2**80, 2**80)])
    return _random_entry(rng)


def _same_terms(got, want, as_int):
    """The kernel dict got holds the nonzero entries of want, a dict of
    exact Fraction results, each an int if as_int and a Fraction
    otherwise, equal in value, hash and str."""
    assert got.keys() == {k for k, v in want.items() if v}
    for k, c in got.items():
        assert type(c) is (int if as_int else Fraction)
        assert c == want[k] and want[k] == c
        assert hash(c) == hash(want[k]) and str(c) == str(want[k])


def test_coefficients_follow_fraction_arithmetic():
    rng = random.Random(33)
    m = pure.encode(2, 1, ((0, 1, 3),))
    n = pure.encode(0, 1, ((1, 0, 1),))
    # D_t (t^2 x u_x^3) = 2 t x u_x^3 + 3 t^2 x u_x^2 u_tx
    dt = (pure.encode(1, 1, ((0, 1, 3),)), pure.encode(2, 1, ((0, 1, 2), (1, 1, 1))))
    for _ in range(500):
        a, b = _random_coeff(rng), _random_coeff(rng)
        fa, fb = Fraction(a), Fraction(b)
        # a zero coefficient is no entry, so its type takes no part
        ints = all(type(v) is int for v in (a, b) if v)
        da = {m: a} if a else {}
        db = {m: b} if b else {}
        _same_terms(pure.add(da, db), {m: fa + fb}, ints)
        _same_terms(pure.sub(da, db), {m: fa - fb}, ints)
        _same_terms(pure.add(da, pure.neg(da)), {}, ints)
        _same_terms(pure.mul(da, {n: b} if b else {}), {m + n: fa * fb}, ints)
        _same_terms(pure.scale(da, b), {m: fa * fb}, ints)
        _same_terms(pure.total_t(da), {dt[0]: 2 * fa, dt[1]: 3 * fa}, type(a) is int)
        if not a:
            continue
        rows, cols = pure.rref([{0: a, 1: b}])
        assert cols == [0] and type(rows[0].pop(0)) is int
        _same_terms(rows[0], {1: fb / fa}, a == 1 and type(b) is int)
        k = rng.choice([1, -1, 3, -7, Fraction(2, 3)])
        _same_terms((DiffExpr._raw(da) / k)._d, {m: fa / k}, False)


def test_int_coefficients_stay_int_and_fractions_stay_fractions():
    # int op int is an int; a Fraction operand makes a Fraction, also
    # when the value is integral; an entry that cancels is dropped
    m = pure.encode(3, 0, ((0, 0, 1),))
    n = pure.encode(0, 0, ((0, 1, 1),))
    _same_terms(pure.mul({m: 6}, {n: -7}), {m + n: Fraction(-42)}, True)
    dt = {pure.encode(2, 0, ((0, 0, 1),)): Fraction(-18), pure.encode(3, 0, ((1, 0, 1),)): Fraction(-6)}
    _same_terms(pure.total_t({m: -6}), dt, True)
    assert pure.add({m: 6}, {m: -6}) == {} and pure.sub({m: 6}, {m: 6}) == {}
    for got, want in (
        (pure.scale({m: Fraction(2)}, 3), Fraction(6)),
        (pure.scale({m: 2}, Fraction(1)), Fraction(2)),
        (pure.mul({pure.ONE_MONO: 3}, {m: Fraction(1, 3)}), Fraction(1)),
        (pure.mul({pure.ONE_MONO: Fraction(2, 3)}, {m: Fraction(3, 2)}), Fraction(1)),
        (pure.add({m: Fraction(1, 2)}, {m: Fraction(1, 2)}), Fraction(1)),
        (pure.add({m: 2}, {m: Fraction(-1)}), Fraction(1)),
    ):
        _same_terms(got, {m: want}, False)
    _same_terms(pure.total_t({pure.encode(3, 0): Fraction(1, 3)}), {pure.encode(2, 0): Fraction(1)}, False)
    assert pure.add({m: Fraction(1, 6)}, {m: Fraction(-1, 6)}) == {}
    # dividing by an int, even by 1, makes every coefficient a Fraction
    f = 3 * u + 4 * t
    assert {type(c) for c in f._d.values()} == {int}
    for k in (1, 2):
        _same_terms((f / k)._d, {key: Fraction(c, k) for key, c in f._d.items()}, False)
    row = {0: 5, 1: 2, 2: Fraction(1, 2)}
    pure._sub_multiple(row, 2, {0: 1, 1: 1, 2: 1, 3: -1})
    assert row == {0: 3, 2: Fraction(-3, 2), 3: 2}
    assert [type(row[k]) for k in (0, 2, 3)] == [int, Fraction, int]
    pure._sub_multiple(row, Fraction(3), {0: 1})
    assert row == {2: Fraction(-3, 2), 3: 2}
    pure._sub_multiple(row, Fraction(1), {3: 2, 4: 1})
    assert row == {2: Fraction(-3, 2), 4: -1} and type(row[4]) is Fraction
    assert pure.pow_({pure.encode(0, 0, ((0, 0, 1),)): Fraction(2)}, 0) == {pure.ONE_MONO: 1}


# -- packed monomial keys ---------------------------------------------------
# The reference below is the kernel's former tuple-key arithmetic: a
# monomial is (t_deg, x_deg, jets) with jets the (nt, nx, e) triples
# sorted by (nt, nx).


def _ref_merge_jets(ja, jb):
    """Merge two sorted jet tuples, adding exponents of equal jets."""
    out = []
    i = j = 0
    while i < len(ja) and j < len(jb):
        at, ax, ae = ja[i]
        bt, bx, be = jb[j]
        if (at, ax) == (bt, bx):
            out.append((at, ax, ae + be))
            i += 1
            j += 1
        elif (at, ax) < (bt, bx):
            out.append(ja[i])
            i += 1
        else:
            out.append(jb[j])
            j += 1
    return tuple(out + list(ja[i:]) + list(jb[j:]))


def _ref_jets_step(jets, i, dt, dx):
    """Differentiate the i-th jet factor once, keeping the sort order."""
    jt, jx, e = jets[i]
    base = jets[:i] + (((jt, jx, e - 1),) if e > 1 else ()) + jets[i + 1 :]
    return _ref_merge_jets(base, ((jt + dt, jx + dx, 1),))


def _ref_acc(out, mono, c):
    s = out.get(mono, 0) + c
    if s:
        out[mono] = s
    else:
        out.pop(mono, None)


def _ref_mul(a, b):
    out = {}
    for (ta, xa, ja), ca in a.items():
        for (tb, xb, jb), cb in b.items():
            _ref_acc(out, (ta + tb, xa + xb, _ref_merge_jets(ja, jb)), ca * cb)
    return out


def _ref_pow(a, n):
    out = {(0, 0, ()): 1}
    for _ in range(n):
        out = _ref_mul(out, a)
    return out


def _ref_total(a, dt, dx):
    out = {}
    for (t_deg, x_deg, jets), c in a.items():
        n = t_deg if dt else x_deg
        if n:
            _ref_acc(out, (t_deg - dt, x_deg - dx, jets), c * n)
        for i, (_, _, e) in enumerate(jets):
            _ref_acc(out, (t_deg, x_deg, _ref_jets_step(jets, i, dt, dx)), c * e)
    return out


def _ref_diff(a, var):
    """Partial derivative by 't', 'x' or a jet index."""
    out = {}
    for (t_deg, x_deg, jets), c in a.items():
        if var == "t" and t_deg:
            _ref_acc(out, (t_deg - 1, x_deg, jets), c * t_deg)
        elif var == "x" and x_deg:
            _ref_acc(out, (t_deg, x_deg - 1, jets), c * x_deg)
        for i, (jt, jx, e) in enumerate(jets):
            if (jt, jx) == var:
                rest = jets[:i] + (((jt, jx, e - 1),) if e > 1 else ()) + jets[i + 1 :]
                _ref_acc(out, (t_deg, x_deg, rest), c * e)
    return out


def _tuples(d):
    """A raw kernel dict with its keys decoded."""
    return {pure.decode(k): c for k, c in d.items()}


def _fresh_jets(rng, n):
    """n jets of order 64 to 200, most of them new to the slot table,
    interned in a random order."""
    jets = set()
    while len(jets) < n:
        order = rng.randint(64, 200)
        nt = rng.randint(0, order)
        jets.add((nt, order - nt))
    jets = sorted(jets)
    rng.shuffle(jets)
    for nt, nx in jets:
        jet(nt, nx)
    return jets


def test_packed_arithmetic_matches_tuple_reference():
    rng = random.Random(38)
    high = _fresh_jets(rng, 40)
    for i in range(60):
        jets = rng.sample(high, 4) + [(0, 0), (0, 1), (1, 0), (2, 1)]
        f = random_expr(rng, max_terms=5, max_jet_degree=4, jets=jets, allow_fractions=i % 2 == 0)
        g = random_expr(rng, max_terms=4, max_jet_degree=3, jets=jets)
        a, b = _tuples(f._d), _tuples(g._d)
        assert _tuples(pure.mul(f._d, g._d)) == _ref_mul(a, b)
        assert _tuples(pure.pow_(g._d, i % 4)) == _ref_pow(b, i % 4)
        assert _tuples(pure.total_t(f._d)) == _ref_total(a, 1, 0)
        assert _tuples(pure.total_x(f._d)) == _ref_total(a, 0, 1)
        assert _tuples(pure.diff_t(f._d)) == _ref_diff(a, "t")
        assert _tuples(pure.diff_x(f._d)) == _ref_diff(a, "x")
        for nt, nx in rng.sample(jets, 3):
            assert _tuples(pure.diff_jet(f._d, nt, nx)) == _ref_diff(a, (nt, nx))
    # a jet that was never used has no slot, and nothing depends on it
    assert pure.diff_jet(f._d, 10**6, 0) == {}


def test_partials_match_diff_jet_in_ascending_jet_order():
    rng = random.Random(40)
    # keys hundreds of slots wide
    high = _fresh_jets(rng, 200)
    cap = pure.CAP
    exprs = [
        DiffExpr(),
        7 * t**2 * x + Fraction(1, 3),
        u**cap * jet(0, 2) - Fraction(5, 2) * jet(1, 0) ** cap * u,
        DiffExpr._raw({pure.encode(1, 0, ((*high[-1], cap), (0, 0, 1))): Fraction(2, 7), pure.encode(0, 3): 4}),
    ]
    for i in range(80):
        jets = rng.sample(high, 3) + [(0, 0), (0, 1), (1, 0), (2, 1)] if i % 2 else None
        exprs.append(random_expr(rng, max_terms=6, max_jet_degree=4, jets=jets, allow_fractions=i % 3 == 0))
    for f in exprs:
        got = pure.partials(f._d)
        # ascending (nt, nx), the jet-free and zero cases giving {}
        assert list(got) == sorted((idx.nt, idx.nx) for idx in f.jet_indices())
        a = _tuples(f._d)
        for jet_, d in got.items():
            want = pure.diff_jet(f._d, *jet_)
            assert d == want and [type(c) for c in d.values()] == [type(c) for c in want.values()]
            assert _tuples(d) == _ref_diff(a, jet_)
    assert pure.partials({}) == {} and pure.partials(exprs[1]._d) == {}


def test_encode_and_decode_round_trip():
    rng = random.Random(39)
    high = _fresh_jets(rng, 20)
    for _ in range(300):
        jets = sorted(
            (nt, nx, rng.choice([1, 2, 3, 255, pure.CAP]))
            for nt, nx in rng.sample(high + [(0, 0), (3, 1), (0, 5)], rng.randint(0, 5))
        )
        mono = (rng.choice([0, 1, 7, pure.CAP]), rng.choice([0, 2, pure.CAP]), tuple(jets))
        key = pure.encode(*mono)
        assert pure.decode(key) == mono
        assert pure.encode(*pure.decode(key)) == key
        a, b, m0 = pure.split_tx(key)
        assert (a, b) == mono[:2] and pure.decode(m0) == (0, 0, mono[2])
        assert pure.jet_degree(key) == sum(e for _, _, e in jets)
    assert pure.decode(pure.ONE_MONO) == (0, 0, ())


def test_print_and_ansatz_order_follow_the_tuple_order(kdv):
    # jets up to the parser's order cap, interned in a random order
    rng = random.Random(40)
    jets = [(nt, o - nt) for o in (40, 52, 64) for nt in rng.sample(range(o + 1), 4)]
    rng.shuffle(jets)
    for nt, nx in jets:
        jet(nt, nx)
    for _ in range(20):
        f = random_expr(rng, max_terms=8, jets=jets + [(0, 0), (0, 1), (1, 0)], allow_fractions=True)
        want = sorted((pure.decode(k) for k in f._d), reverse=True)
        assert [m.key for m, _ in f.sorted_terms()] == want
        text = format_expr(f)
        printed = [parse_expr(term.lstrip("-")).sorted_terms()[0][0].key for term in re.split(" [-+] ", text)]
        assert printed == want
        assert parse_expr(text) == f
    basis = ansatz_monomials(kdv, Ansatz(2, 3, 1, 1), include_consequences=True)
    keys = [pure.decode(k) for b in basis for k in b._d]
    assert keys == sorted(keys) and len(keys) == 336


def test_jet_part_memos_stay_within_their_cap(kdv):
    # more distinct jet parts than the cap pass through the table of jet
    # parts, by their factors and their D_t and D_x steps; more distinct
    # consequence parts than the cap through the splitter, which reads
    # their greatest consequence jets off that table; and through the
    # memo of their restrictions, here on u_t = u_x, where each is one
    # term.  Each memo is filled here, so the test holds on its own as
    # well as after the others
    n = pure.MEMO_CAP + 500
    f = {pure.encode(0, 0, ((0, 1, e), (0, 2, 1))): 1 for e in range(1, n + 1)}
    pure.total_t(f)
    pure.total_x(f)
    assert pure.derivative_terms(f) == 3 * n
    for k in f:
        pure.decode(k)
    assert restrict(DiffExpr._raw(f), kdv) == DiffExpr._raw(f)
    with pytest.raises(NotOnSolutionSpace):
        extract_operator(DiffExpr._raw(f), kdv)
    free = pure.encode(0, 0, ((0, 2, 1),))
    for e in range(1, n + 1):
        part = pure.encode(0, 0, ((1, 0, e), (1, 1, 1)))
        assert kdv._split(free + part) == (free, part, (1, 1))
    advection = make_pde((1, 0), jet(0, 1))
    g = {pure.encode(0, 0, ((1, 0, e), (1, 1, 1))): 1 for e in range(1, n + 1)}
    want = {pure.encode(0, 0, ((0, 1, e), (0, 2, 1))): 1 for e in range(1, n + 1)}
    assert restrict(DiffExpr._raw(g), advection) == DiffExpr._raw(want)
    for memo in (pure._parts, advection._restricted):
        assert isinstance(memo, pure.Memo)
        assert 0 < len(memo) <= pure.MEMO_CAP


def _reference_split(key, keep):
    """(rest, part, top) of key, taken factor by factor."""
    t_deg, x_deg, jets = pure.decode(key)
    kept = [f for f in jets if keep(f[:2])]
    rest = pure.encode(t_deg, x_deg, [f for f in jets if not keep(f[:2])])
    return rest, pure.encode(0, 0, kept), kept[-1][:2] if kept else pure.NO_JET


def test_jet_part_splitter_equals_the_per_factor_split():
    # the mask grows with the slot table: each round interns jets the
    # splitter has not seen, then splits keys on the old and new jets
    rng = random.Random(42)
    for lt, lx in ((1, 0), (2, 0), (1, 1), (2, 1)):

        def keep(idx, lt=lt, lx=lx):
            return idx[0] >= lt and idx[1] >= lx

        split = pure.jet_part_splitter(keep)
        jets = [(nt, nx) for nt in range(4) for nx in range(4)]
        for _ in range(3):
            fresh = []
            while len(fresh) < 4:
                idx = (rng.randint(0, 300), rng.randint(0, 300))
                if idx not in pure._offset and idx not in fresh:
                    fresh.append(idx)
            jets += fresh
            for nt, nx in fresh:
                jet(nt, nx)
            for _ in range(200):
                factors = sorted((nt, nx, rng.randint(1, 9)) for nt, nx in rng.sample(jets, rng.randint(0, 5)))
                key = pure.encode(rng.randint(0, 3), rng.randint(0, 3), factors)
                want = _reference_split(key, keep)
                if want[1] == pure.ONE_MONO:
                    # a key free of kept jets: one AND, no record filed
                    pure._parts.clear()
                    assert split(key) == want == (key, pure.ONE_MONO, pure.NO_JET)
                    assert not pure._parts
                else:
                    assert split(key) == want


def _built(jp):
    """The fields of the record of the jet part jp that are built."""
    return {i for i, field in enumerate(pure._parts[jp]) if field is not None}


def test_jet_part_memo_fields_build_in_any_first_use_order():
    # the readers of the table of jet parts meet fresh parts in random
    # orders: the first files the part's units, and each other field
    # stays None until its own reader builds it.  Every result equals
    # the tuple reference, whichever reader came first.  The table starts
    # empty, so that no clear drops a part while its readers run
    pure._parts.clear()
    rng = random.Random(44)
    high = _fresh_jets(rng, 30)
    split = pure.jet_part_splitter(lambda idx: True)
    # (name, reader of a key and its one-term dict, field it builds)
    readers = [
        ("decode", lambda key, f: pure.decode(key), 1),
        ("partials", lambda key, f: pure.partials(f), None),
        ("total_t", lambda key, f: pure.total_t(f), 2),
        ("total_x", lambda key, f: pure.total_x(f), 3),
        ("split", lambda key, f: split(key), None),
    ]
    firsts, seen = [], set()
    while len(firsts) < 100:
        jets = sorted((nt, nx, rng.randint(1, 9)) for nt, nx in rng.sample(high, rng.randint(1, 4)))
        mono = (rng.randint(0, 3), rng.randint(0, 3), tuple(jets))
        key = pure.encode(*mono)
        jp = key >> pure._JETS
        if jp in seen:
            continue
        seen.add(jp)
        pure._parts.pop(jp, None)
        coeff = Fraction(rng.choice([-7, -2, 1, 3]), rng.randint(1, 4))
        f = {key: coeff}
        order = rng.sample(readers, len(readers))
        firsts.append(order[0][0])
        got, built = {}, {0}
        for name, read, field in order:
            got[name] = read(key, f)
            if field:
                built.add(field)
            assert _built(jp) == built, name
        a = {mono: coeff}
        assert got["decode"] == mono
        assert got["split"] == (pure.encode(*mono[:2]), pure.encode(0, 0, jets), tuple(jets[-1][:2]))
        assert list(got["partials"]) == [(nt, nx) for nt, nx, _ in jets]
        for jet_, d in got["partials"].items():
            assert _tuples(d) == _ref_diff(a, jet_)
        assert _tuples(got["total_t"]) == _ref_total(a, 1, 0)
        assert _tuples(got["total_x"]) == _ref_total(a, 0, 1)
    assert set(firsts) == {name for name, _, _ in readers}


def test_jet_part_memo_keeps_no_steps_past_the_cap():
    # D_t of u_J * u_(J+(1,0))^CAP raises the second exponent past CAP:
    # total_t raises before it keeps the steps, and again on the next
    # call, whichever reader filed the part, while decode, partials and
    # total_x of the same part stay right
    pure._parts.clear()
    rng = random.Random(45)
    cap = pure.CAP
    for nt, nx in _fresh_jets(rng, 30):
        jets = [(nt, nx), (nt + 1, nx)]
        mono = (0, 1, ((nt, nx, 1), (nt + 1, nx, cap)))
        key = pure.encode(*mono)
        jp = key >> pure._JETS
        pure._parts.pop(jp, None)
        f = {key: Fraction(3, 2)}
        a = {mono: Fraction(3, 2)}

        def past_cap():
            for _ in range(2):
                with pytest.raises(ExponentOverflow, match=f"exceeds {cap}"):
                    pure.total_t(f)
                assert pure._parts[jp][2] is None
            return True

        checks = [
            past_cap,
            lambda: pure.decode(key) == mono,
            lambda: {j: _tuples(d) for j, d in pure.partials(f).items()} == {j: _ref_diff(a, j) for j in jets},
            lambda: _tuples(pure.total_x(f)) == _ref_total(a, 0, 1),
        ]
        for check in rng.sample(checks, len(checks)):
            assert check()
        assert _built(jp) == {0, 1, 3}


def test_steps_refuse_jets_past_the_order_bound():
    # a derivative step may create a jet of order MAX_JET_ORDER but none
    # above it, in either direction; the refused jet gets no slot
    top = pure.MAX_JET_ORDER
    for total, dt, dx in ((pure.total_t, 1, 0), (pure.total_x, 0, 1)):
        ((key, coeff),) = total({pure.encode(0, 0, ((99, top - 100, 1),)): 1}).items()
        assert (pure.decode(key), coeff) == ((0, 0, ((99 + dt, top - 100 + dx, 1),)), 1)
        with pytest.raises(JetLawError, match=f"order above {top}$"):
            total({pure.encode(0, 0, ((100, top - 100, 1),)): 1})
        assert (100 + dt, top - 100 + dx) not in pure._offset


def test_memo_keep_clears_at_either_cap(monkeypatch):
    # keep clears the memo and its held count before an entry would take
    # it past MEMO_CAP entries or MAX_PRODUCTS held terms, and returns
    # the value it keeps
    monkeypatch.setattr(pure, "MEMO_CAP", 3)
    monkeypatch.setattr(pure, "MAX_PRODUCTS", 10)
    memo = pure.Memo()
    value = object()
    assert memo.keep("a", value, 4) is value
    assert memo.keep("b", 1) == 1
    assert memo.keep("c", 2, 5) == 2
    assert memo == {"a": value, "b": 1, "c": 2} and memo.held == 9
    # a fourth entry clears it, though its terms would fit
    assert memo.keep("d", 3) == 3
    assert memo == {"d": 3} and memo.held == 0
    memo.keep("e", 4, 10)
    assert memo == {"d": 3, "e": 4} and memo.held == 10
    # one term more than MAX_PRODUCTS clears it, with room for entries
    memo.keep("f", 5, 1)
    assert memo == {"f": 5} and memo.held == 1
    # an entry above MAX_PRODUCTS alone is kept, and cleared by the next
    memo.keep("g", 6, 11)
    assert memo == {"g": 6} and memo.held == 11
    memo.keep("h", 7)
    assert memo == {"h": 7} and memo.held == 0


def test_exponents_and_degrees_up_to_the_cap():
    cap = pure.CAP
    assert cap == 2 ** (pure.W - 1) - 1
    assert (u**cap).sorted_terms()[0][0].jet_powers == {(0, 0): cap}
    assert (t**cap * x**cap).sorted_terms()[0][0].key == (cap, cap, ())
    u_x = jet(0, 1)
    assert total_derivative(u_x ** (cap - 1) * u, "x") == u_x**cap + (cap - 1) * u_x ** (cap - 2) * u * jet(0, 2)
    for overflow in (
        lambda: u ** (cap + 1),
        lambda: u**cap * u,
        lambda: t**cap * t,
        lambda: x**cap * x * u,
        lambda: total_derivative(u_x**cap * u, "x"),
        lambda: total_derivative(jet(1, 0) ** cap * u, "t"),
        lambda: pure.encode(cap + 1, 0),
        lambda: pure.encode(0, 0, ((5, 5, cap + 1),)),
        lambda: pure.times_jet(pure.encode(0, 0, ((0, 0, cap),)), (0, 0), 1),
        lambda: pure.mul_into_rows({}, 0, pure.encode(cap, 0), 1, (t * u)._d),
    ):
        with pytest.raises(ExponentOverflow, match=f"exceeds {cap}"):
            overflow()
    # a product at the cap stays exact
    assert u ** (cap // 2) * u ** (cap - cap // 2) == u**cap


def test_mul_add_accumulates_the_scaled_product_in_place(monkeypatch):
    rng = random.Random(37)
    for _ in range(200):
        fractions = rng.random() < 0.5
        a, b, extra = (random_expr(rng, max_terms=4, allow_fractions=fractions)._d for _ in range(3))
        coeff = _random_coeff(rng)
        prod = pure.mul(a, b)
        # out holds some entries that the product cancels, and others
        out = {k: -coeff * v for k, v in prod.items() if coeff and rng.random() < 0.5}
        out = pure.add(out, extra)
        want = pure.add(out, pure.scale(prod, coeff))
        assert pure.mul_add(out, coeff, a, b) is out
        assert out == want and 0 not in out.values()
    monkeypatch.setattr(pure, "MAX_PRODUCTS", 100)
    a11 = {pure.encode(i, 0): 1 for i in range(11)}
    b10 = {pure.encode(0, j): 1 for j in range(10)}
    out = {pure.encode(1, 0): 5}
    with pytest.raises(JetLawError, match="^work exceeds 100 terms$"):
        pure.mul_add(out, 3, a11, b10)
    assert out == {pure.encode(1, 0): 5}


def test_derivative_terms_bounds_each_step():
    # one term per term for its t or x, and one per jet factor, counted
    # from the tuple form; each total derivative builds at most that
    rng = random.Random(39)
    for _ in range(200):
        a = random_expr(rng, max_terms=6, max_order=4, max_tx_degree=3)._d
        want = len(a) + sum(len(pure.decode(k)[2]) for k in a)
        assert pure.derivative_terms(a) == want
        assert len(pure.total_t(a)) <= want and len(pure.total_x(a)) <= want


def test_one_bound_prices_every_product_before_building_it(monkeypatch):
    monkeypatch.setattr(pure, "MAX_PRODUCTS", 100)
    sizes = []
    mul_into = pure.mul_into
    monkeypatch.setattr(pure, "mul_into", lambda out, key, c, b: sizes.append(len(b)) or mul_into(out, key, c, b))
    a11 = {pure.encode(i, 0): 1 for i in range(11)}
    b10 = {pure.encode(0, j): 1 for j in range(10)}
    refused = "^work exceeds 100 terms$"
    with pytest.raises(JetLawError, match=refused):
        pure.mul(a11, b10)
    assert sizes == []
    del a11[0]
    assert len(pure.mul(a11, b10)) == 100
    assert pure.spend(100, 100) == 0
    with pytest.raises(JetLawError, match=refused):
        pure.spend(100, 101)
    # pow_ squares 4 terms, then 10, and refuses the 35 x 35 squaring of
    # the eighth power without building any of it
    base = (t + x + u + jet(0, 1))._d
    sizes.clear()
    assert len(pure.pow_(base, 4)) == 35
    assert sizes == [4] * 4 + [10] * 10
    sizes.clear()
    with pytest.raises(JetLawError, match=refused):
        pure.pow_(base, 8)
    assert sizes == [4] * 4 + [10] * 10
    with pytest.raises(JetLawError, match=refused):
        DiffExpr._raw(b10) * DiffExpr._raw({pure.encode(i, 0): 1 for i in range(11)})


@pytest.mark.parametrize(
    "T, code",
    [
        ("(u^128)^255*u^127", 1),
        ("(u^128)^256", 2),
        ("(t^128)^255*t^127*u", 1),
        ("(t^128)^256*u", 2),
        ("(x^128)^255*x^127*u", 1),
        ("(u^256)^256", 2),
    ],
)
def test_cli_exits_2_past_the_cap(capsys, T, code):
    # T at the cap is refused only as not conserved; one power more is a
    # one-line ExponentOverflow
    session = os.path.join(os.path.dirname(__file__), "data", "kdv.session")
    assert main(["-s", session, "check-conslaw", "--T", T, "--X", "0"]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err == f"error: ExponentOverflow: a degree or exponent of a monomial exceeds {pure.CAP}\n"
    else:
        assert err == ""


def test_diffexpr_pickles_across_processes():
    # keys hold slot numbers, which differ between processes; a DiffExpr
    # pickles through its decoded terms
    rng = random.Random(41)
    high = _fresh_jets(rng, 6)
    e = random_expr(rng, max_terms=6, jets=high + [(0, 0), (0, 3)], allow_fractions=True) + 3 * t * x
    script = (
        "import pickle, sys\n"
        "from jetlaw import format_expr, jet\n"
        "for n in range(300, 200, -1):\n"
        "    jet(n % 5, n)\n"
        "e = pickle.loads(sys.stdin.buffer.read())\n"
        "sys.stdout.buffer.write(pickle.dumps((format_expr(e), e * 2)))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", script], input=pickle.dumps(e), capture_output=True, env=env, check=True
    )
    text, doubled = pickle.loads(out.stdout)
    assert text == format_expr(e)
    assert doubled == e * 2
