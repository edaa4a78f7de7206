"""Normal PDEs in solved form and restriction to their solution space.

A normal PDE is G = u_L - g where the lead L = (nt, nx) has nt >= 1 and
every jet of the right-hand side g is lexicographically below L in
(nt, nx).  The differential consequences of G solve every jet u_{L+K}
as D_t^kt D_x^kx g plus lower terms, so any expression can be rewritten
into an equivalent one free of consequence jets: that rewriting is
restrict, and f vanishes on the solution space exactly when
restrict(f) == 0.

The lex condition on g is what makes the rewriting terminate: replacing
the lex-greatest consequence jet u_{L+K} by D^K g only introduces jets
lexicographically below L + K.  The rewriting loop uses this to work in
buckets: every term is filed under its lex-greatest consequence jet,
and the buckets are emptied from the greatest down, each exactly once:
in each term base * u_m^e the power is replaced by the memoized
(D^K g)^e, whose products with base only land in lower buckets or in
the result.  The powers are memoized on the NormalPDE, each already
filed by the greatest consequence jet of its terms.  The kernel's
jet_part_splitter gives a key's consequence part as one AND with a
mask of the consequence jets' fields.  The kernel's keys give jets
slots in first-use order, not in lex order, so the greatest
consequence jet is read off the sorted units of the part's record in
the kernel's table of jet parts; a key free of consequence jets has
none to find.
Every memo here is a kernel Memo, under the kernel's one clearing rule.
The derivatives D^K g the powers are built from live for one call: each
call builds one diffops._DerivCache of g and passes it down, so it never
builds a derivative twice and keeps none.

Restriction is a ring homomorphism R onto the polynomials free of
consequence jets that fixes t, x and every other jet.  So restrict
splits each term into its free factors and its consequence part c, and
multiplies the free factors by R(c), which a memo on the NormalPDE
keeps by c.  On a miss, with u_m^e the greatest power in c, R(c) is
R(u_m^e) R(c / u_m^e), each factor read from the memo or built by the
same rule, and the loop runs only on a single power u_m^e.  So the
loop runs once per distinct consequence power, not once per term and
call, a chain of consequence jets is never restricted jet by jet, and
what building R(c) costs depends on c alone, not on what the memo
holds.

extract_operator runs the loop on f itself and keeps what each
substitution takes away.  Since u_m - D^K g = D^K G for m = L + K,

    u_m^e - (D^K g)^e = D^K G * sum_{k<e} u_m^k (D^K g)^(e-1-k),

so every replaced term base * u_m^e leaves base times that telescoped
sum as a quotient on D^K G.  The remainder is restrict(f), the one
canonical representative; when it is zero, the quotients are the
coefficients of a linear total-differential operator R with R(G) = f
identically.
"""

from __future__ import annotations

from ._kernel import impl as _k
from .diffops import _adjoint_coeffs, _adjoint_op, _apply_op, _DerivCache
from .errors import NotNormal, NotOnSolutionSpace
from .expr import DiffExpr, _as_jet_index, jet
from .grammar import format_brief


class NormalPDE:
    """A scalar PDE u_L = g in normal solved form.

    Attributes: lead (JetIndex L), rhs (g), G (u_L - g).  Instances
    memoize what restriction and operator extraction need, in kernel
    Memos: the powers of the derivatives of g, filed by the greatest
    consequence jet of their terms, and the restrictions of consequence
    parts.  So reuse one instance per equation.
    """

    __slots__ = (
        "lead", "rhs", "G", "_split", "_pow", "_restricted", "_known_pow", "_known_restricted"
    )

    def __init__(self, lead, rhs: DiffExpr):
        lead = _as_jet_index(lead)
        if lead.nt < 1:
            raise NotNormal(
                f"lead {lead} is not a t-derivative; the solved form must "
                "isolate a jet with nt >= 1"
            )
        for idx in rhs.jet_indices():
            if (idx.nt, idx.nx) >= (lead.nt, lead.nx):
                raise NotNormal(
                    f"right-hand side depends on {idx}, which is not "
                    f"lexicographically below the lead {lead}"
                )
        self.lead = lead
        self.rhs = rhs
        self.G = jet(lead.nt, lead.nx) - rhs
        # monomial key -> (free factors, consequence part, its greatest jet)
        self._split = _k.jet_part_splitter(self.is_consequence)
        # (jet, e) -> (D^K g)^e as consequence_pow returns it
        self._pow = _k.Memo()
        # consequence part c -> (R(c), the term products building it took)
        self._restricted = _k.Memo()
        # the memos' gets, bound once; a Memo keeps its object when cleared
        self._known_pow = self._pow.get
        self._known_restricted = self._restricted.get

    def is_consequence(self, idx) -> bool:
        """Whether u_idx is solved by a differential consequence of G."""
        nt, nx = idx
        return nt >= self.lead.nt and nx >= self.lead.nx

    def consequence_pow(self, idx, e: int, drhs: _DerivCache) -> tuple:
        """(n, groups) for the n raw terms of (D_t^kt D_x^kx g)^e, with
        u_idx = u_{L + (kt,kx)} and idx an (nt, nx) pair: groups lists
        (jet, terms) pairs that file the terms by their greatest
        consequence jet, in the order of first appearance.  On a miss
        the derivative is read from drhs, the calling restriction's or
        extraction's derivatives of g."""
        key = (idx, e)
        filed = self._known_pow(key)
        if filed is None:
            p = _k.pow_(drhs.get(idx[0] - self.lead.nt, idx[1] - self.lead.nx), e)
            groups: dict = {}
            for pk, pc in p.items():
                groups.setdefault(self._split(pk)[2], {})[pk] = pc
            filed = self._pow.keep(key, (len(p), list(groups.items())), len(p))
        return filed

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NormalPDE)
            and self.lead == other.lead
            and self.rhs == other.rhs
        )

    def __hash__(self) -> int:
        return hash((self.lead, self.rhs))

    def __repr__(self) -> str:
        return f"NormalPDE({self.lead} = {format_brief(self.rhs)})"

    def __str__(self) -> str:
        return f"{self.lead} = {self.rhs}"


def make_pde(lead, rhs: DiffExpr) -> NormalPDE:
    """Validate and build a NormalPDE; raises NotNormal."""
    return NormalPDE(lead, rhs)


def restrict(f: DiffExpr, pde: NormalPDE) -> DiffExpr:
    """Rewrite f modulo the PDE and its differential consequences.

    The result contains no consequence jet of the lead; it is the
    canonical representative of f on the solution space, and f vanishes
    there exactly when the result is zero.

    Each term is split into its free factors and its consequence part
    c, and the free factors are multiplied by R(c), read from the PDE's
    memo or built (see the module docstring).  The parts are taken
    greatest consequence jet first, as the bucket loop on f would meet
    them.  One budget of the kernel's MAX_PRODUCTS term products pays
    for the whole call: each distinct c is charged the products that
    building R(c) took, whether it is built now or read from the memo,
    and each term the products of its free factors with R(c).  What a
    call builds is kept in the memo only if the call is not refused, so
    a refused call leaves the memo as it found it, and a jet such as
    u[64,0] on KdV is refused with the kernel's message.  The
    derivatives of g are built in a table of the call's own and paid
    from a budget of their own, so earlier calls cost a later one
    nothing.
    """
    split = pde._split
    drhs = _DerivCache(pde.rhs._d)
    out: dict = {}
    # consequence part -> the free factors and coefficients of its terms
    parts: dict = {}
    # consequence part -> its greatest consequence jet
    tops: dict = {}
    for mono, coeff in f._d.items():
        free, cons, top = split(mono)
        if cons:
            parts.setdefault(cons, []).append((free, coeff))
            tops[cons] = top
        else:
            out[mono] = coeff
    budget = _k.MAX_PRODUCTS
    # consequence part -> (R of it, the products building it took), for
    # the parts this call builds
    built: dict = {}
    for cons in sorted(parts, key=tops.__getitem__, reverse=True):
        r, cost = _restricted_part(cons, pde, drhs, budget, built)
        budget -= cost
        for free, coeff in parts[cons]:
            budget = _k.spend(budget, len(r))
            _k.mul_into(out, free, coeff, r)
    for cons, entry in built.items():
        pde._restricted.keep(cons, entry, len(entry[0]))
    return DiffExpr._raw(out)


def _restricted_part(cons: int, pde: NormalPDE, drhs: _DerivCache, budget: int, built: dict) -> tuple[dict, int]:
    """(R(c), cost) for the key c of a consequence part, cost the term
    products building R(c) took, from the PDE's memo, from built or
    built into built, with the call's derivatives of g in drhs.  With
    u_m^e the greatest power in c and c = u_m^e rest, R(c) is
    R(u_m^e) R(rest), each factor known or built by the same rule, and
    a single power u_m^e is built by the bucket loop on it alone.  The
    rests are walked down in a loop, not a recursion, so a part of any
    number of jets is built at a depth of two calls.  A known entry
    spends its cost from budget, and a build spends as it goes, so
    either raises when budget runs out."""
    # (part, its greatest power) from c down to a rest known or a power
    chain = []
    while (known := built.get(cons) or pde._known_restricted(cons)) is None:
        m = pde._split(cons)[2]
        e, rest = _k.split_jet(cons, m)
        if not rest:
            r, left = _rewrite({cons: 1}, pde, drhs, None, budget)
            known = built[cons] = r, budget - left
            break
        chain.append((cons, _k.times_jet(_k.ONE_MONO, m, e)))
        cons = rest
    r, cost = known
    left = _k.spend(budget, cost)
    for cons, power in reversed(chain):
        p, pcost = _restricted_part(power, pde, drhs, left, built)
        left = _k.spend(left - pcost, len(p) * len(r))
        r = _k.mul(p, r)
        built[cons] = r, budget - left
    return r, budget - left


def _rewrite(d: dict, pde: NormalPDE, drhs: _DerivCache, quotients: dict | None, budget: int) -> tuple[dict, int]:
    """The rewriting loop: (rest, budget left) with rest the raw terms d
    modulo the PDE and its differential consequences, emptying one
    bucket per consequence jet as the module docstring describes, every
    term product spent from budget and the derivatives of g read from
    drhs.

    When quotients is a dict, each replaced term base * u_m^e, with
    m = L + K, also adds the telescoped quotient

        base * sum_{k<e} u_m^k (D^K g)^(e-1-k)

    into quotients[K], so that d = rest + sum_K quotients[K] D^K G
    exactly.
    """
    lt, lx = pde.lead
    part_of, split, mul_into = pde._split, _k.split_jet, _k.mul_into
    out: dict = {}
    # greatest consequence jet -> terms; the terms without one are the rest
    buckets: dict = {_k.NO_JET: out}
    for mono, coeff in d.items():
        buckets.setdefault(part_of(mono)[2], {})[mono] = coeff
    while True:
        m = max(buckets)
        if m == _k.NO_JET:
            return out, budget
        quotient = None
        if quotients is not None:
            quotient = quotients.setdefault((m[0] - lt, m[1] - lx), {})
        for mono, coeff in buckets.pop(m).items():
            e, base = split(mono, m)
            btop = part_of(base)[2]
            n, groups = pde.consequence_pow(m, e, drhs)
            budget = _k.spend(budget, n)
            for ptop, terms in groups:
                dest = btop if btop > ptop else ptop
                tgt = buckets.get(dest)
                if tgt is None:
                    tgt = buckets[dest] = {}
                mul_into(tgt, base, coeff, terms)
            if quotient is not None:
                for k in range(e):
                    n, groups = pde.consequence_pow(m, e - 1 - k, drhs)
                    budget = _k.spend(budget, n)
                    key = _k.times_jet(base, m, k) if k else base
                    for _, terms in groups:
                        mul_into(quotient, key, coeff, terms)


class LinDiffOp:
    """A linear total-differential operator sum_K c_K D_t^kt D_x^kx,
    stored as a map from multi-indices K = (kt, kx) to coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[tuple[int, int], DiffExpr]):
        self.coeffs = {K: c for K, c in coeffs.items() if not c.is_zero}

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def _raw_coeffs(self) -> dict:
        return {K: c._d for K, c in self.coeffs.items()}

    def order(self) -> int:
        return max((kt + kx for kt, kx in self.coeffs), default=-1)

    def apply(self, f: DiffExpr) -> DiffExpr:
        """R(f) = sum_K c_K D^K f."""
        return DiffExpr._raw(_apply_op(self._raw_coeffs(), f._d))

    def adjoint(self, h: DiffExpr) -> DiffExpr:
        """R*(h) = sum_K (-D_t)^kt (-D_x)^kx (c_K h)."""
        return DiffExpr._raw(_adjoint_op(self._raw_coeffs(), h._d))

    def adjoint_coeffs(self) -> dict[tuple[int, int], DiffExpr]:
        """Standard-form coefficients of the adjoint operator.

        Expanding R*(h) by the Leibniz rule collects, for each
        multi-index A, the coefficient

            a_A = sum_{K >= A} (-1)^|K| C(kt, at) C(kx, ax) D^{K-A} c_K.
        """
        if not self.coeffs:
            return {}
        kmax = tuple(map(max, zip(*self.coeffs)))
        return {A: DiffExpr._raw(d) for A, d in _adjoint_coeffs(self._raw_coeffs(), kmax).items()}

    def __eq__(self, other) -> bool:
        return isinstance(other, LinDiffOp) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        if not self.coeffs:
            return "LinDiffOp(0)"
        bits = []
        for (kt, kx), c in sorted(self.coeffs.items()):
            op = "D_t^%d D_x^%d" % (kt, kx) if (kt or kx) else "1"
            bits.append(f"({format_brief(c)}) {op}")
        return "LinDiffOp(" + " + ".join(bits) + ")"


def extract_operator(f: DiffExpr, pde: NormalPDE) -> LinDiffOp:
    """Write f, assumed to vanish on the solution space, as R(G).

    The rewriting loop runs once on f and collects, for every
    consequence jet u_{L+K} it empties, the telescoped quotient of the
    terms it replaces (see _rewrite), so that

        f = restrict(f) + sum_K c_K D_t^kt D_x^kx G    identically.

    If the remainder restrict(f) is nonzero the function raises
    NotOnSolutionSpace, which carries it; otherwise R = sum_K c_K D^K.
    Polynomial rings have no zero divisors, so each c_K is unique: it is
    the part of f, written in the variables D^K G in place of the
    consequence jets, whose greatest such variable is D^K G, divided by
    it.  Different
    valid operators for the same f differ only by operators whose
    coefficients vanish on the solution space.
    """
    quotients: dict = {}
    rest, _ = _rewrite(f._d, pde, _DerivCache(pde.rhs._d), quotients, _k.MAX_PRODUCTS)
    if rest:
        raise NotOnSolutionSpace(DiffExpr._raw(rest))
    return LinDiffOp({K: DiffExpr._raw(q) for K, q in quotients.items()})
