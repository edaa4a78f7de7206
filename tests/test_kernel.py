"""The term kernel against the sympy oracle and the Fraction constructor."""

import random
from fractions import Fraction
from math import gcd, lcm

import sympy as sp

import oracle
from helpers import random_expr
from jetlaw._kernel import pure
from jetlaw.conslaw import Ansatz
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


def _same_fraction(got, want):
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert got == want and want == got
    assert hash(got) == hash(want)
    assert str(got) == str(want)
    assert bool(got) == bool(want)


def test_built_fractions_equal_constructed_ones():
    rng = random.Random(33)
    for _ in range(500):
        a, b = _random_entry(rng), _random_entry(rng)
        k = rng.randint(1, 12)
        _same_fraction(pure._add_frac(a, b), a + b)
        _same_fraction(pure._add_frac(a, -a), Fraction(0))
        _same_fraction(pure._mul_frac(a, b), a * b)
        _same_fraction(pure._mul_frac_int(a, k), a * k)
    assert pure._add_frac(Fraction(1, 6), Fraction(-1, 6)) == 0
    assert hash(pure._add_frac(Fraction(1, 6), Fraction(-1, 6))) == hash(0)
    assert pure.add({(0, 0, ()): Fraction(1, 6)}, {(0, 0, ()): Fraction(-1, 6)}) == {}


def test_int_coefficients_stay_int_and_fractions_stay_fractions():
    # int op int is an int; a Fraction operand makes a Fraction, also
    # when the value is integral
    assert type(pure._mul_frac(6, -7)) is int and pure._mul_frac(6, -7) == -42
    assert type(pure._add_frac(6, -6)) is int and pure._add_frac(6, -6) == 0
    assert type(pure._mul_frac_int(-6, 7)) is int and pure._mul_frac_int(-6, 7) == -42
    for got, want in (
        (pure._mul_frac(Fraction(2), 3), Fraction(6)),
        (pure._mul_frac(3, Fraction(1, 3)), Fraction(1)),
        (pure._mul_frac(Fraction(2, 3), Fraction(3, 2)), Fraction(1)),
        (pure._add_frac(Fraction(1, 2), Fraction(1, 2)), Fraction(1)),
        (pure._add_frac(2, Fraction(0)), Fraction(2)),
        (pure._mul_frac_int(Fraction(1, 3), 3), Fraction(1)),
    ):
        _same_fraction(got, want)
    row = {0: 5, 1: 2, 2: Fraction(1, 2)}
    pure._sub_multiple(row, 2, {0: 1, 1: 1, 2: 1, 3: -1})
    assert row == {0: 3, 2: Fraction(-3, 2), 3: 2}
    assert [type(row[k]) for k in (0, 2, 3)] == [int, Fraction, int]
    pure._sub_multiple(row, Fraction(3), {0: 1})
    assert row == {2: Fraction(-3, 2), 3: 2}
    pure._sub_multiple(row, Fraction(1), {3: 2, 4: 1})
    assert row == {2: Fraction(-3, 2), 4: -1} and type(row[4]) is Fraction
    assert pure.pow_({(0, 0, ((0, 0, 1),)): Fraction(2)}, 0) == {pure.ONE_MONO: 1}
