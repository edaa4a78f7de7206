"""Shared test utilities: seeded random expression generation, and
guards against building huge powers or jets."""

from fractions import Fraction
from types import SimpleNamespace

from jetlaw import grammar
from jetlaw.expr import DiffExpr, Monomial


def random_expr(
    rng,
    max_terms=5,
    max_order=3,
    max_jet_degree=3,
    max_tx_degree=2,
    coeff_bound=9,
    allow_fractions=False,
    jets=None,
):
    """A random differential polynomial within the given bounds.

    Coefficients are nonzero ints in [-coeff_bound, coeff_bound] (or
    small Fractions, some of them integral, when allow_fractions is
    set); jets have total
    order at most max_order, or are drawn from the list jets when it is
    given, and each monomial has total jet degree at most
    max_jet_degree.
    """
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        powers = {}
        for _ in range(rng.randint(0, max_jet_degree)):
            if jets:
                idx = rng.choice(jets)
            else:
                order = rng.randint(0, max_order)
                nt = rng.randint(0, order)
                idx = (nt, order - nt)
            powers[idx] = powers.get(idx, 0) + 1
        mono = Monomial(
            t_deg=rng.randint(0, max_tx_degree),
            x_deg=rng.randint(0, max_tx_degree),
            jet_powers=powers,
        )
        num = rng.choice([c for c in range(-coeff_bound, coeff_bound + 1) if c])
        terms[mono] = Fraction(num, rng.randint(1, 4)) if allow_fractions else num
    return DiffExpr(terms)


def forbid_huge_powers_and_jets(monkeypatch):
    """Make building a power above the grammar's exponent cap, or a jet
    above its order cap, fail in the kernel calls the parser builds
    them with: pow_ for a power of a parenthesized expression and encode
    for t, x or a jet and their powers.  An input the parser rejects is
    thereby shown to be rejected before its huge value is evaluated."""
    kernel = grammar._k

    def guarded_pow(a, n):
        if n > grammar.MAX_EXPONENT:
            raise AssertionError(f"built the power {n}")
        return kernel.pow_(a, n)

    def guarded_encode(t_deg, x_deg, jets=()):
        for nt, nx, e in jets:
            if nt + nx > grammar.MAX_JET_ORDER:
                raise AssertionError(f"built the jet ({nt}, {nx})")
        n = max(t_deg, x_deg, *(e for _, _, e in jets))
        if n > grammar.MAX_EXPONENT:
            raise AssertionError(f"built the power {n}")
        return kernel.encode(t_deg, x_deg, jets)

    guarded = SimpleNamespace(**{**vars(kernel), "pow_": guarded_pow, "encode": guarded_encode})
    monkeypatch.setattr(grammar, "_k", guarded)
