"""Differential polynomials on the jet space of u(t, x).

A DiffExpr is a polynomial with rational coefficients in the explicit
variables t, x and the jet variables u_(nt,nx), where u_(nt,nx) denotes
the mixed derivative d^nt/dt^nt d^nx/dx^nx u and u_(0,0) is u itself.
Expressions are kept in a canonical sparse form (monomial -> nonzero
coefficient), so equality of expressions is equality of the maps and
the zero polynomial has no terms.  A coefficient is stored as an int
while only integers made it and as a Fraction once a Fraction or a
division took part (see jetlaw._kernel); the accessors terms,
sorted_terms, coefficient and constant_value return Fractions.

Term arithmetic is delegated to jetlaw._kernel.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping, NamedTuple, Union

from ._kernel import impl as _k
from .errors import ExponentOverflow

Scalar = Union[int, Fraction]


def _scalar(v) -> Scalar:
    """The coefficient of an int or a Fraction, integers as int; any
    other value raises TypeError, as the operators do."""
    if isinstance(v, (int, Fraction)):
        return int(v) if isinstance(v, int) else v
    raise TypeError(f"a coefficient must be an int or a Fraction, not {type(v).__name__}")


class JetIndex(NamedTuple):
    """Multi-index (nt, nx) of a jet variable; orders by (nt, nx)."""

    nt: int
    nx: int

    @property
    def order(self) -> int:
        return self.nt + self.nx

    def __str__(self) -> str:
        return "u_" + "t" * self.nt + "x" * self.nx if (self.nt or self.nx) else "u"


def _as_jet_index(v) -> JetIndex:
    nt, nx = v
    if not (isinstance(nt, int) and isinstance(nx, int)):
        raise TypeError(f"a jet index must be an int pair, not ({nt!r}, {nx!r})")
    if nt < 0 or nx < 0:
        raise ValueError(f"jet index must be non-negative, got ({nt}, {nx})")
    return JetIndex(nt, nx)


class Monomial:
    """A single monomial t^a * x^b * prod u_J^e, hashable and ordered.

    Its key is the tuple (t_deg, x_deg, jets), with jets the sorted
    tuple of (nt, nx, exp) triples, compared left to right; this is the
    order used everywhere output must be deterministic.  A DiffExpr
    stores each monomial as the kernel's packed int key instead
    (jetlaw._kernel.impl.encode) and decodes it to this tuple only at
    the edges: for Monomial objects, for printing and for sorting.
    """

    __slots__ = ("key",)

    def __init__(self, t_deg: int = 0, x_deg: int = 0, jet_powers=None):
        if t_deg < 0 or x_deg < 0:
            raise ValueError("negative degree")
        jets = []
        if jet_powers:
            items = jet_powers.items() if isinstance(jet_powers, Mapping) else jet_powers
            for idx, e in items:
                nt, nx = _as_jet_index(idx)
                if e < 0:
                    raise ValueError("negative jet exponent")
                if e:
                    jets.append((nt, nx, e))
        if not all(isinstance(v, int) for v in (t_deg, x_deg, *(e for _, _, e in jets))):
            raise TypeError("a degree or exponent must be an int")
        jets.sort()
        for i in range(1, len(jets)):
            if jets[i - 1][:2] == jets[i][:2]:
                raise ValueError(f"repeated jet index {jets[i][:2]}")
        self.key = (t_deg, x_deg, tuple(jets))

    @classmethod
    def _from_key(cls, key) -> "Monomial":
        obj = object.__new__(cls)
        obj.key = key
        return obj

    @property
    def t_deg(self) -> int:
        return self.key[0]

    @property
    def x_deg(self) -> int:
        return self.key[1]

    @property
    def jet_powers(self) -> dict[JetIndex, int]:
        return {JetIndex(nt, nx): e for nt, nx, e in self.key[2]}

    @property
    def jet_degree(self) -> int:
        return sum(e for _, _, e in self.key[2])

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __lt__(self, other: "Monomial") -> bool:
        return self.key < other.key

    def __repr__(self) -> str:
        return f"Monomial(key={self.key!r})"


class DiffExpr:
    """Immutable differential polynomial.

    Supports +, -, * (by expressions and scalars), ** (non-negative
    integer), / (by a nonzero scalar), exact equality, and hashing.
    """

    __slots__ = ("_d",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        d = {}
        if terms:
            for mono, coeff in terms.items():
                c = _scalar(coeff)
                if c:
                    d[_k.encode(*mono.key)] = c
        self._d = d

    @classmethod
    def _raw(cls, d: dict) -> "DiffExpr":
        obj = object.__new__(cls)
        obj._d = d
        return obj

    # -- inspection ---------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        return {Monomial._from_key(_k.decode(k)): Fraction(c) for k, c in self._d.items()}

    @property
    def is_zero(self) -> bool:
        return not self._d

    def is_constant(self) -> bool:
        """True when the expression is a rational constant (possibly 0)."""
        return not self._d or (len(self._d) == 1 and _k.ONE_MONO in self._d)

    def constant_value(self) -> Fraction:
        if not self._d:
            return Fraction(0)
        if self.is_constant():
            return Fraction(self._d[_k.ONE_MONO])
        raise ValueError("expression is not constant")

    def coefficient(self, mono: Monomial) -> Fraction:
        try:
            key = _k.encode(*mono.key)
        except ExponentOverflow:
            # no expression holds a monomial the kernel cannot encode
            return Fraction(0)
        return Fraction(self._d.get(key, 0))

    def _decoded(self) -> list[tuple]:
        """The (t_deg, x_deg, jets) tuple of every monomial."""
        return [_k.decode(k) for k in self._d]

    def jet_indices(self) -> set[JetIndex]:
        """All jet variables occurring with nonzero exponent."""
        return {JetIndex(nt, nx) for _, _, jets in self._decoded() for nt, nx, _ in jets}

    def max_order(self) -> int:
        """Highest total order nt + nx of any jet present; -1 if jet-free."""
        return max((idx.order for idx in self.jet_indices()), default=-1)

    def depends_on(self, v) -> bool:
        """Whether the expression involves 't', 'x', or a given jet index."""
        if v == "t":
            return any(t_deg for t_deg, _, _ in self._decoded())
        if v == "x":
            return any(x_deg for _, x_deg, _ in self._decoded())
        return _as_jet_index(v) in self.jet_indices()

    def jet_degree_split(self) -> dict[int, "DiffExpr"]:
        """Split into jet-degree homogeneous parts; zero maps to {}."""
        parts: dict[int, dict] = {}
        for k, c in self._d.items():
            parts.setdefault(_k.jet_degree(k), {})[k] = c
        return {d: DiffExpr._raw(p) for d, p in sorted(parts.items())}

    # -- calculus -----------------------------------------------------

    def partial(self, v) -> "DiffExpr":
        """Partial derivative with respect to 't', 'x', or a jet index."""
        if v == "t":
            return DiffExpr._raw(_k.diff_t(self._d))
        if v == "x":
            return DiffExpr._raw(_k.diff_x(self._d))
        nt, nx = _as_jet_index(v)
        return DiffExpr._raw(_k.diff_jet(self._d, nt, nx))

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(other) -> "DiffExpr | None":
        if isinstance(other, DiffExpr):
            return other
        if isinstance(other, (int, Fraction)):
            return const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return DiffExpr._raw(_k.add(self._d, o._d))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return DiffExpr._raw(_k.sub(self._d, o._d))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return DiffExpr._raw(_k.sub(o._d, self._d))

    def __neg__(self):
        return DiffExpr._raw(_k.neg(self._d))

    def __mul__(self, other):
        if isinstance(other, DiffExpr):
            return DiffExpr._raw(_k.mul(self._d, other._d))
        if isinstance(other, (int, Fraction)):
            return DiffExpr._raw(_k.scale(self._d, _scalar(other)))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division of an expression by zero")
            return DiffExpr._raw({k: Fraction(c, other) for k, c in self._d.items()})
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError("negative exponent leaves the polynomial ring")
        return DiffExpr._raw(_k.pow_(self._d, n))

    def __eq__(self, other) -> bool:
        if isinstance(other, DiffExpr):
            return self._d == other._d
        if isinstance(other, (int, Fraction)):
            return self._d == const(other)._d
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._d.items()))

    def __bool__(self) -> bool:
        return bool(self._d)

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in descending monomial order (the printing order)."""
        items = sorted(((_k.decode(k), c) for k, c in self._d.items()), reverse=True)
        return [(Monomial._from_key(m), Fraction(c)) for m, c in items]

    def __reduce__(self):
        # keys hold slot numbers of this process; pickle the tuple form
        return _from_items, ([(_k.decode(k), c) for k, c in self._d.items()],)

    def __str__(self) -> str:
        from .grammar import format_expr

        return format_expr(self)

    def __repr__(self) -> str:
        # brief, so that a repr never fails on an unprintable coefficient
        from .grammar import format_brief

        return f"DiffExpr({format_brief(self)!r})"


def primitive_parts(*exprs: DiffExpr) -> tuple[int, tuple[DiffExpr, ...]]:
    """(d, parts) with d the least common multiple of the denominators
    of all coefficients of exprs, and parts the exprs times d (content
    and primitive part: Knuth, TAOCP vol. 2, section 4.6.1; the integer
    content is not divided out).
    With d = 1 the exprs are returned as they are, a whole Fraction
    coefficient included, so that a query keeps the numeric tower: its
    result is int where only ints made it and a Fraction where a
    Fraction took part.

    A query linear in each argument runs on the parts and divides its
    result by the d's once.  For d > 1 the parts have int coefficients,
    the kernel makes no Fraction on them, and the divided result has
    Fraction coefficients throughout.
    """
    d = lcm(*(c.denominator for e in exprs for c in e._d.values()))
    if d == 1:
        return 1, exprs
    return d, tuple(
        DiffExpr._raw({k: c.numerator * (d // c.denominator) for k, c in e._d.items()})
        for e in exprs
    )


def _from_items(items) -> DiffExpr:
    """The DiffExpr of (monomial tuple, coefficient) pairs, as pickled."""
    return DiffExpr._raw({_k.encode(*m): c for m, c in items})


def const(value: Scalar) -> DiffExpr:
    c = _scalar(value)
    return DiffExpr._raw({_k.ONE_MONO: c} if c else {})


def jet(nt: int = 0, nx: int = 0) -> DiffExpr:
    """The jet variable u_(nt,nx) as an expression."""
    idx = _as_jet_index((nt, nx))
    return DiffExpr._raw({_k.encode(0, 0, ((idx.nt, idx.nx, 1),)): 1})


ZERO = const(0)
ONE = const(1)
t = DiffExpr._raw({_k.encode(1, 0): 1})
x = DiffExpr._raw({_k.encode(0, 1): 1})
u = jet(0, 0)
