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
lexicographically below L + K.  restrict uses this to rewrite in
buckets: every term is filed under its lex-greatest consequence jet,
and the buckets are emptied from the greatest down, each exactly once,
because the products of a bucket's terms with powers of D^K g only land
in lower buckets or in the result.  The powers (D^K g)^e are memoized
on the NormalPDE, next to the derivatives D^K g themselves.

extract_operator inverts the other direction of that coin: for f with
restrict(f) == 0 it produces a linear total-differential operator R
with R(G) = f identically (coefficients may involve G's consequences).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from ._kernel import impl as _k
from .diffops import _DerivCache
from .errors import NotNormal, NotOnSolutionSpace
from .expr import DiffExpr, JetIndex, Monomial, _as_jet_index

_acc = _k._acc


def _acc_all(out: dict, d: dict) -> None:
    for mono, coeff in d.items():
        _acc(out, mono, coeff)


class NormalPDE:
    """A scalar PDE u_L = g in normal solved form.

    Attributes: lead (JetIndex L), rhs (g), G (u_L - g).  Instances
    memoize the total derivatives of g and of G, and the powers of the
    derivatives of g, that restriction and operator extraction need, so
    reuse one instance per equation.  The memos grow only with the jets
    and exponents the inputs use.
    """

    __slots__ = ("lead", "rhs", "G", "_drhs", "_dG", "_pow")

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
        lead_expr = DiffExpr._raw({(0, 0, ((lead.nt, lead.nx, 1),)): Fraction(1)})
        self.G = lead_expr - rhs
        self._drhs = _DerivCache(rhs)
        self._dG = _DerivCache(self.G)
        self._pow: dict = {}

    def is_consequence(self, idx) -> bool:
        """Whether u_idx is solved by a differential consequence of G."""
        nt, nx = idx
        return nt >= self.lead.nt and nx >= self.lead.nx

    def consequence_raw(self, idx) -> dict:
        """Raw terms of D_t^kt D_x^kx g for u_idx = u_{L + (kt,kx)}."""
        nt, nx = idx
        return self._drhs.get(nt - self.lead.nt, nx - self.lead.nx)

    def consequence_pow(self, idx, e: int) -> dict:
        """Raw terms of (D_t^kt D_x^kx g)^e for u_idx = u_{L + (kt,kx)};
        idx is an (nt, nx) pair."""
        key = (idx, e)
        p = self._pow.get(key)
        if p is None:
            p = _k.pow_(self.consequence_raw(idx), e)
            self._pow[key] = p
        return p

    def dG_raw(self, K) -> dict:
        """Raw terms of D_t^kt D_x^kx G."""
        return self._dG.get(K[0], K[1])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NormalPDE)
            and self.lead == other.lead
            and self.rhs == other.rhs
        )

    def __hash__(self) -> int:
        return hash((self.lead, self.rhs))

    def __repr__(self) -> str:
        return f"NormalPDE({self.lead} = {self.rhs})"

    def __str__(self) -> str:
        return f"{self.lead} = {self.rhs}"


def make_pde(lead, rhs: DiffExpr) -> NormalPDE:
    """Validate and build a NormalPDE; raises NotNormal."""
    return NormalPDE(lead, rhs)


def _max_consequence(d: dict, pde: NormalPDE):
    lt, lx = pde.lead
    best = None
    for key in d:
        for nt, nx, _ in key[2]:
            if nt >= lt and nx >= lx and (best is None or (nt, nx) > best):
                best = (nt, nx)
    return best


# below every jet, so max(_NO_JET, j) == j
_NO_JET = (-1, -1)


def _top_consequence(jets: tuple, lt: int, lx: int):
    """The lex-greatest consequence jet (nt, nx) of a sorted jet tuple
    for the lead (lt, lx), or _NO_JET if there is none."""
    for nt, nx, _ in reversed(jets):
        if nt < lt:
            break
        if nx >= lx:
            return (nt, nx)
    return _NO_JET


def restrict(f: DiffExpr, pde: NormalPDE) -> DiffExpr:
    """Rewrite f modulo the PDE and its differential consequences.

    The result contains no consequence jet of the lead; it is the
    canonical representative of f on the solution space, and f vanishes
    there exactly when the result is zero.

    Each term is filed in a bucket under its lex-greatest consequence
    jet, or straight into the result if it has none.  The greatest
    bucket m is then emptied: in each of its terms u_m^e is replaced by
    the memoized (D^K g)^e, and each product term is filed by its own
    greatest consequence jet, merging like terms as they arrive.  D^K g
    only has jets below m, so every product lands in a lower bucket and
    each bucket is emptied once, with its cancellations already done.
    """
    lt, lx = pde.lead
    acc, mul_frac, merge = _acc, _k._mul_frac, _k._merge_jets
    out: dict = {}
    # greatest consequence jet -> terms; the terms without one are the result
    buckets: dict = {_NO_JET: out}
    for mono, coeff in f._d.items():
        buckets.setdefault(_top_consequence(mono[2], lt, lx), {})[mono] = coeff
    while True:
        m = max(buckets)
        if m == _NO_JET:
            return DiffExpr._raw(out)
        mt, mx = m
        # exponent -> terms of (D^K g)^e with their greatest consequence jets
        powers: dict = {}
        for (td, xd, jets), coeff in buckets.pop(m).items():
            for i, (nt, nx, e) in enumerate(jets):
                if nt == mt and nx == mx:
                    break
            base = jets[:i] + jets[i + 1 :]
            btop = _top_consequence(base, lt, lx)
            terms = powers.get(e)
            if terms is None:
                terms = powers[e] = [
                    (pt, px, pj, pc, _top_consequence(pj, lt, lx))
                    for (pt, px, pj), pc in pde.consequence_pow(m, e).items()
                ]
            for pt, px, pj, pc, ptop in terms:
                top = btop if btop > ptop else ptop
                tgt = buckets.get(top)
                if tgt is None:
                    tgt = buckets[top] = {}
                acc(tgt, (td + pt, xd + px, merge(base, pj)), mul_frac(coeff, pc))


class LinDiffOp:
    """A linear total-differential operator sum_K c_K D_t^kt D_x^kx,
    stored as a map from multi-indices K = (kt, kx) to coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[tuple[int, int], DiffExpr]):
        self.coeffs = {K: c for K, c in coeffs.items() if not c.is_zero}

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def order(self) -> int:
        return max((kt + kx for kt, kx in self.coeffs), default=-1)

    def apply(self, f: DiffExpr) -> DiffExpr:
        """R(f) = sum_K c_K D^K f."""
        df = _DerivCache(f)
        out: dict = {}
        for (kt, kx), c in self.coeffs.items():
            _acc_all(out, _k.mul(c._d, df.get(kt, kx)))
        return DiffExpr._raw(out)

    def adjoint(self, h: DiffExpr) -> DiffExpr:
        """R*(h) = sum_K (-D_t)^kt (-D_x)^kx (c_K h)."""
        out: dict = {}
        for (kt, kx), c in self.coeffs.items():
            w = _k.mul(c._d, h._d)
            for _ in range(kt):
                w = _k.total_t(w)
            for _ in range(kx):
                w = _k.total_x(w)
            if (kt + kx) % 2:
                w = _k.neg(w)
            _acc_all(out, w)
        return DiffExpr._raw(out)

    def adjoint_coeffs(self) -> dict[tuple[int, int], DiffExpr]:
        """Standard-form coefficients of the adjoint operator.

        Expanding R*(h) by the Leibniz rule collects, for each
        multi-index A, the coefficient

            a_A = sum_{K >= A} (-1)^|K| C(kt, at) C(kx, ax) D^{K-A} c_K.
        """
        out: dict = {}
        for (kt, kx), c in self.coeffs.items():
            sign = -1 if (kt + kx) % 2 else 1
            dc = _DerivCache(c)
            for at in range(kt + 1):
                for ax in range(kx + 1):
                    w = _k.scale(
                        dc.get(kt - at, kx - ax),
                        Fraction(sign * comb(kt, at) * comb(kx, ax)),
                    )
                    if w:
                        _acc_all(out.setdefault((at, ax), {}), w)
        return {
            A: DiffExpr._raw(d) for A, d in out.items() if d
        }

    def __eq__(self, other) -> bool:
        return isinstance(other, LinDiffOp) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        if not self.coeffs:
            return "LinDiffOp(0)"
        bits = []
        for (kt, kx), c in sorted(self.coeffs.items()):
            op = "D_t^%d D_x^%d" % (kt, kx) if (kt or kx) else "1"
            bits.append(f"({c}) {op}")
        return "LinDiffOp(" + " + ".join(bits) + ")"


def _smono_raise(sm: tuple, K, k: int) -> tuple:
    """Multiply the s-monomial sm by s_K^k, keeping sorted order."""
    if k == 0:
        return sm
    out = []
    placed = False
    for idx, e in sm:
        if idx == K:
            out.append((idx, e + k))
            placed = True
        elif not placed and idx > K:
            out.append((K, k))
            placed = True
            out.append((idx, e))
        else:
            out.append((idx, e))
    if not placed:
        out.append((K, k))
        out.sort()
    return tuple(out)


def extract_operator(f: DiffExpr, pde: NormalPDE) -> LinDiffOp:
    """Write f, assumed to vanish on the solution space, as R(G).

    Every consequence jet u_{L+K} equals D^K g + D^K G exactly; the
    rewriting of restrict is replayed while tracking, per monomial, the
    symbols s_K standing for the D^K G parts.  When no consequence jet
    remains, the symbol-free part is restrict(f): if it is nonzero the
    function raises NotOnSolutionSpace.  Each surviving monomial is
    linear in its lex-greatest symbol s_K after re-expanding the others
    to literal D^K G factors, which yields coefficients c_K with

        f = sum_K c_K D_t^kt D_x^kx G    identically.

    The construction is deterministic; different valid operators for
    the same f differ only by operators whose coefficients vanish on
    the solution space.
    """
    lt, lx = pde.lead
    sdict: dict[tuple, dict] = {(): dict(f._d)}
    while True:
        m = None
        for dd in sdict.values():
            cand = _max_consequence(dd, pde)
            if cand is not None and (m is None or cand > m):
                m = cand
        if m is None:
            break
        K = (m[0] - lt, m[1] - lx)
        new: dict[tuple, dict] = {}
        for sm, dd in sdict.items():
            for (td, xd, jets), coeff in dd.items():
                for i, (nt, nx, e) in enumerate(jets):
                    if (nt, nx) == m:
                        base = {(td, xd, jets[:i] + jets[i + 1 :]): coeff}
                        for k in range(e + 1):
                            piece = _k.mul(base, pde.consequence_pow(m, e - k))
                            c = comb(e, k)
                            if c != 1:
                                piece = _k.scale(piece, Fraction(c))
                            tgt = new.setdefault(_smono_raise(sm, K, k), {})
                            _acc_all(tgt, piece)
                        break
                else:
                    _acc(new.setdefault(sm, {}), (td, xd, jets), coeff)
        sdict = {sm: dd for sm, dd in new.items() if dd}
    sfree = sdict.pop((), None)
    if sfree:
        raise NotOnSolutionSpace(
            f"does not vanish on the solution space: {DiffExpr._raw(sfree)}"
        )
    coeffs: dict[tuple[int, int], dict] = {}
    for sm, dd in sdict.items():
        k_star = max(idx for idx, _ in sm)
        extra: dict | None = None
        for idx, e in sm:
            power = e - 1 if idx == k_star else e
            if power:
                p = _k.pow_(pde.dG_raw(idx), power)
                extra = p if extra is None else _k.mul(extra, p)
        piece = dd if extra is None else _k.mul(dd, extra)
        _acc_all(coeffs.setdefault(k_star, {}), piece)
    return LinDiffOp({K: DiffExpr._raw(d) for K, d in coeffs.items()})
