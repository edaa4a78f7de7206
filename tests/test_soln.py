import math
import random

import pytest

import oracle
from helpers import random_expr
from jetlaw._kernel import impl as kernel
from jetlaw.conslaw import Ansatz, ansatz_monomials
from jetlaw.diffops import euler, frechet, total_derivative
from jetlaw import soln
from jetlaw.errors import JetLawError, NotNormal, NotOnSolutionSpace
from jetlaw.expr import ONE, ZERO, const, jet, t, u, x
from jetlaw.grammar import parse_expr
from jetlaw.soln import LinDiffOp, extract_operator, make_pde, restrict

u_t = jet(1, 0)
u_x = jet(0, 1)
u_xx = jet(0, 2)


def test_make_pde_validates_the_lead():
    with pytest.raises(NotNormal):
        make_pde((0, 2), u)  # solved for an x-derivative
    with pytest.raises(ValueError):
        make_pde((-1, 0), u)


def test_make_pde_rejects_rhs_not_below_lead():
    with pytest.raises(NotNormal):
        make_pde((1, 0), u_t)
    with pytest.raises(NotNormal):
        make_pde((1, 1), jet(2, 0))  # u_tt is lexicographically above u_tx
    with pytest.raises(NotNormal):
        make_pde((1, 0), jet(1, 1))


def test_make_pde_accepts_lower_t_derivatives():
    pde = make_pde((2, 0), u_t + u_xx)
    assert pde.G == jet(2, 0) - u_t - u_xx


def test_is_consequence(kdv, wave):
    assert kdv.is_consequence((1, 0))
    assert kdv.is_consequence((3, 2))
    assert not kdv.is_consequence((0, 5))
    assert wave.is_consequence((2, 0))
    assert not wave.is_consequence((1, 4))


def test_restrict_examples(kdv):
    assert restrict(u_t, kdv) == kdv.rhs
    assert restrict(kdv.G, kdv) == ZERO
    assert restrict(jet(1, 1), kdv) == total_derivative(kdv.rhs, "x")
    # second consequence needs the first one substituted inside D_t(rhs)
    dt_rhs = total_derivative(kdv.rhs, "t")
    assert restrict(jet(2, 0), kdv) == restrict(dt_rhs, kdv)
    # expressions free of consequences pass through
    f = t * u + u_x**2
    assert restrict(f, kdv) == f


def test_restrict_is_idempotent_and_linear(kdv, wave):
    rng = random.Random(21)
    for pde in (kdv, wave):
        for _ in range(8):
            f = random_expr(rng, max_terms=3)
            g = random_expr(rng, max_terms=3)
            rf = restrict(f, pde)
            assert restrict(rf, pde) == rf
            assert restrict(f + g, pde) == rf + restrict(g, pde)
            # restriction is evaluation, so it respects products too
            assert restrict(f * g, pde) == restrict(rf * restrict(g, pde), pde)


def _reference_pdes(kdv, wave):
    # leads (1,0), (2,0), (1,1), (2,1); right-hand sides with t, x and
    # fractional coefficients
    return [
        kdv,
        wave,
        make_pde((1, 0), parse_expr("t*u_xx/2 - 2/3*x*u*u_x + t")),
        make_pde((2, 0), parse_expr("x*u_tx - u_t*u/3 + t^2*u_xx")),
        make_pde((1, 1), parse_expr("u_t*u/2 - t*x*u_xxx + 3/4*u")),
        make_pde((2, 1), parse_expr("u_tt/3 + x*u_txx - t*u_x*u_t + 1/2")),
    ]


def test_restrict_matches_reference(kdv, wave):
    # fractional inputs on the reference PDEs
    rng = random.Random(22)
    for pde in _reference_pdes(kdv, wave):
        lead = (pde.lead.nt, pde.lead.nx)
        rhs_s = oracle.to_sympy(pde.rhs)
        for i in range(6):
            f = random_expr(
                rng, max_terms=3, max_order=3, max_jet_degree=2, allow_fractions=i % 2
            )
            assert oracle.to_sympy(restrict(f, pde)) == oracle.restrict(
                oracle.to_sympy(f), lead, rhs_s
            )


def test_restrict_is_independent_of_memo_state(kdv, wave):
    # the session fixtures have memoized derivatives and powers from the
    # restricts of earlier tests; fresh PDEs start empty
    rng = random.Random(27)
    for warm in (kdv, wave):
        for _ in range(6):
            restrict(random_expr(rng, max_terms=3, max_order=3), warm)
        inputs = [
            random_expr(rng, max_terms=3, max_order=4, allow_fractions=True)
            for _ in range(8)
        ]
        inputs.append(jet(warm.lead.nt + 1, 2) ** 3 + u)
        for f in inputs:
            before = dict(f._d)
            fresh = make_pde(warm.lead, warm.rhs)
            assert restrict(f, warm) == restrict(f, fresh)
            assert restrict(f, warm) == restrict(f, fresh)
            assert f._d == before


def _filed_powers(pde) -> set:
    """The ids of the term dicts of the PDE's memoized powers."""
    return {id(terms) for _, groups in pde._pow.values() for _, terms in groups}


def _record_mul_into(monkeypatch) -> list:
    """Patch the kernel's mul_into to record the terms it multiplies by."""
    seen = []

    def recorded(out, key, coeff, b, _fn=kernel.mul_into):
        seen.append(b)
        return _fn(out, key, coeff, b)

    monkeypatch.setattr(kernel, "mul_into", recorded)
    return seen


def test_restrict_reuses_memoized_powers(monkeypatch):
    # the images of a KdV symmetries solve: a second pass over them on
    # the same PDE computes no power and no product through the kernel;
    # and once the restrictions are forgotten, a third pass rebuilds them
    # from the memoized powers as filed, without filing them again
    pde = make_pde((1, 0), parse_expr("-u*u_x - u_xxx"))
    basis = ansatz_monomials(pde, Ansatz(2, 2, 1, 1), include_consequences=True)
    images = [frechet(pde.G, m) for m in basis]
    calls = {"pow_": 0, "mul": 0}
    for name in calls:

        def counted(*args, _name=name, _fn=getattr(kernel, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(kernel, name, counted)
    first = [restrict(f, pde) for f in images]
    assert calls["pow_"] > 0
    calls.update(pow_=0, mul=0)
    assert [restrict(f, pde) for f in images] == first
    assert calls == {"pow_": 0, "mul": 0}
    pde._restricted.clear()
    filed = _filed_powers(pde)
    seen = _record_mul_into(monkeypatch)
    assert [restrict(f, pde) for f in images] == first
    assert calls["pow_"] == 0 and _filed_powers(pde) == filed
    # every product is by a memoized power or by a restriction now kept
    kept = {id(r) for r, _ in pde._restricted.values()}
    assert sum(id(b) in filed for b in seen) > 100
    assert all(id(b) in filed or id(b) in kept for b in seen)


def test_per_equation_memos_are_cleared_at_their_caps(monkeypatch):
    # the restrictions of consequence parts and the powers (D^K g)^e are
    # cleared before an entry would take them past MEMO_CAP entries or
    # MAX_PRODUCTS terms, here patched down below what the inputs fill
    # them with; results do not depend on it
    kdv = make_pde((1, 0), parse_expr("-u*u_x - u_xxx"))
    inputs = [jet(1, k) ** e * jet(0, e) + jet(2, 0) * jet(1, k) for k in range(3) for e in range(1, 4)]
    inputs += [jet(1, 1) ** 4 * u, jet(1, 0) ** 8]
    want = [restrict(f, kdv) for f in inputs]
    ops = [extract_operator(f - r, kdv) for f, r in zip(inputs, want)]
    for f, r, op in zip(inputs, want, ops):
        assert op.apply(kdv.G) == f - r
    for memo in (kdv._restricted, kdv._pow):
        assert len(memo) > 3 and memo.held > 100
    for cap, bound in ((3, 250_000), (4096, 100)):
        monkeypatch.setattr(kernel, "MEMO_CAP", cap)
        monkeypatch.setattr(kernel, "MAX_PRODUCTS", bound)
        pde = make_pde(kdv.lead, kdv.rhs)
        for f, r, op in zip(inputs, want, ops):
            assert restrict(f, pde) == r
            assert extract_operator(f - r, pde) == op
            for memo in (pde._restricted, pde._pow):
                assert 0 < len(memo) <= cap and memo.held <= bound
            for n, groups in pde._pow.values():
                assert n == sum(len(terms) for _, terms in groups)
            assert pde._pow.held == sum(n for n, _ in pde._pow.values())
            assert pde._restricted.held == sum(len(r) for r, _ in pde._restricted.values())


def test_each_call_gets_the_derivative_budget(monkeypatch):
    # on u_tt = u u_x u_xx, R(u[2,10]) needs D_x^1..10 g, 106 terms, and
    # R(u[3,2]) needs D_t D_x^0..2 g, 20 more: each call may build up to
    # MAX_PRODUCTS of them, here 110, whatever earlier calls built
    pde = make_pde((2, 0), parse_expr("u*u_x*u_xx"))
    want = [restrict(jet(2, 10), pde), restrict(jet(3, 2), pde), restrict(jet(3, 0), pde)]
    monkeypatch.setattr(kernel, "MAX_PRODUCTS", 110)
    pde = make_pde(pde.lead, pde.rhs)
    with pytest.raises(JetLawError, match="^work exceeds 110 terms$"):
        restrict(jet(2, 10) + jet(3, 2), pde)
    pde = make_pde(pde.lead, pde.rhs)
    assert [restrict(jet(2, 10), pde), restrict(jet(3, 2), pde)] == want[:2]
    assert restrict(jet(3, 0), pde) == want[2]


def test_every_cache_kept_between_calls_is_a_kernel_memo(kdv):
    # the derivatives of g live for one call; what a NormalPDE keeps
    # past a call is under the kernel's one clearing rule
    pde = make_pde(kdv.lead, kdv.rhs)
    for f in (jet(2, 3) * u_x, jet(1, 4) ** 2 + u * jet(3, 0)):
        r = restrict(f, pde)
        assert extract_operator(f - r, pde).apply(pde.G) == f - r
    for name in type(pde).__slots__:
        if name in ("lead", "rhs", "G"):
            continue
        v = getattr(pde, name)
        if callable(v) and not isinstance(v, kernel.Memo):
            v = getattr(v, "memo", None) or getattr(v, "__self__", None)
        assert isinstance(v, kernel.Memo), name


def _linear_restriction(a, b, shift):
    """R(u_(a,b)) on the linear u_tx = u_t + D_x^shift u by its recursion
    R(u_(a,b)) = R(u_(a,b-1)) + R(u_(a-1,b-1+shift)), as {jet: coefficient}."""
    table = {}
    # every (i, j) the recursion reaches, each after both it needs
    for i in range(a + 1):
        for j in range(b + max(shift - 1, 0) * (a - i) + 1):
            if i == 0 or j == 0:
                table[i, j] = {(i, j): 1}
            else:
                row = dict(table[i, j - 1])
                for idx, c in table[i - 1, j - 1 + shift].items():
                    row[idx] = row.get(idx, 0) + c
                table[i, j] = row
    return table[a, b]


def test_restrict_follows_long_chains_of_jets():
    # u[64,0] and u[32,32], the highest jets the grammar takes, restrict
    # through chains of 32 to 128 consequence jets, each needing the next
    # lower, without recursion and with the answers of the recursions
    heat = make_pde((1, 0), u_xx)
    assert restrict(jet(64, 0), heat) == jet(0, 128)
    assert restrict(jet(32, 32), heat) == jet(0, 96)
    # u_t = u_xx + u: R(u_(a,0)) = (D_x^2 + 1)^a u
    damped = make_pde((1, 0), u_xx + u)
    assert restrict(jet(64, 0), damped) == sum((math.comb(64, k) * jet(0, 2 * k) for k in range(65)), ZERO)
    for shift in (0, 3):
        # u_tx = u_t + D_x^shift u
        mixed = make_pde((1, 1), jet(1, 0) + jet(0, shift))
        assert restrict(jet(64, 0), mixed) == jet(64, 0)
        want = sum((c * jet(*idx) for idx, c in _linear_restriction(32, 32, shift).items()), ZERO)
        assert len(want._d) == {0: 33, 3: 126}[shift]
        assert restrict(jet(32, 32), mixed) == want
    mixed = make_pde((1, 1), jet(1, 0) + u)
    f = jet(32, 32) * jet(64, 0)
    r = restrict(f, mixed)
    assert not any(mixed.is_consequence(idx) for idx in r.jet_indices())
    assert extract_operator(f - r, mixed).apply(mixed.G) == f - r


def test_refusals_repeat_and_leave_the_memo_alone(monkeypatch):
    # R(u_ttt) on KdV takes 51 term products to build and has 13 terms,
    # so u_ttt costs 64 and u_ttt (1 + u + u^2 + u^3) 51 + 4 * 13 = 103;
    # a memo hit is charged what the entry took to build, so the second
    # is refused at a bound of 80 however often it is tried, and after
    # the first has filled the memo
    monkeypatch.setattr(kernel, "MAX_PRODUCTS", 80)
    kdv = make_pde((1, 0), parse_expr("-u*u_x - u_xxx"))
    f = jet(3, 0) * (1 + u + u**2 + u**3)
    for _ in range(2):
        with pytest.raises(JetLawError, match="^work exceeds 80 terms$"):
            restrict(f, kdv)
        assert not kdv._restricted
    r = restrict(jet(3, 0), kdv)
    assert len(r._d) == 13
    assert list(kdv._restricted.values()) == [(r._d, 51)]
    with pytest.raises(JetLawError, match="^work exceeds 80 terms$"):
        restrict(f, kdv)
    monkeypatch.setattr(kernel, "MAX_PRODUCTS", 103)
    assert restrict(f, kdv) == r * (1 + u + u**2 + u**3)
    # u_ttt + u_tt^2 costs 64 + 81: refused at 100 after R(u_ttt) is
    # built, which the refused call does not keep
    monkeypatch.setattr(kernel, "MAX_PRODUCTS", 100)
    kdv = make_pde((1, 0), parse_expr("-u*u_x - u_xxx"))
    for _ in range(2):
        with pytest.raises(JetLawError, match="^work exceeds 100 terms$"):
            restrict(jet(3, 0) + jet(2, 0) ** 2, kdv)
        assert not kdv._restricted
    assert restrict(jet(3, 0), kdv) == r
    assert len(restrict(jet(2, 0) ** 2, kdv)._d) == 21
    assert len(kdv._restricted) == 2


def test_lin_diff_op_apply_and_order():
    R = LinDiffOp({(0, 0): u, (0, 1): const(-1)})
    assert R.order() == 1
    assert R.apply(u) == u**2 - u_x
    assert LinDiffOp({}).apply(u) == ZERO
    assert LinDiffOp({}).order() == -1
    # zero coefficients are dropped at construction
    assert LinDiffOp({(1, 0): ZERO}) == LinDiffOp({})


def test_adjoint_pairing_is_a_divergence():
    # h R(g) - g R*(h) must be a total divergence for any R, g, h
    rng = random.Random(23)
    for _ in range(8):
        R = LinDiffOp(
            {
                (rng.randint(0, 2), rng.randint(0, 2)): random_expr(rng, max_terms=2)
                for _ in range(rng.randint(1, 3))
            }
        )
        g = random_expr(rng, max_terms=2)
        h = random_expr(rng, max_terms=2)
        assert euler(h * R.apply(g) - g * R.adjoint(h)) == ZERO


def test_adjoint_coeffs_reproduce_adjoint():
    rng = random.Random(24)
    for _ in range(8):
        R = LinDiffOp(
            {
                (rng.randint(0, 2), rng.randint(0, 2)): random_expr(rng, max_terms=2)
                for _ in range(rng.randint(1, 3))
            }
        )
        Rstar = LinDiffOp(R.adjoint_coeffs())
        h = random_expr(rng, max_terms=2)
        assert Rstar.apply(h) == R.adjoint(h)


def test_adjoint_is_an_involution():
    rng = random.Random(25)
    for _ in range(8):
        R = LinDiffOp(
            {
                (rng.randint(0, 2), rng.randint(0, 2)): random_expr(rng, max_terms=2)
                for _ in range(rng.randint(1, 3))
            }
        )
        Rss = LinDiffOp(LinDiffOp(R.adjoint_coeffs()).adjoint_coeffs())
        assert Rss == R


def test_extract_operator_is_exact(kdv, heat, wave):
    rng = random.Random(26)
    for pde in (kdv, heat, wave):
        G = pde.G
        for _ in range(6):
            a = random_expr(rng, max_terms=2, max_order=1)
            b = random_expr(rng, max_terms=2, max_order=1)
            c = random_expr(rng, max_terms=2, max_order=1)
            f = a * G + b * total_derivative(G, "t") + c * total_derivative(G, "x")
            R = extract_operator(f, pde)
            assert R.apply(G) == f
    # f = h - restrict(h) for h holding up to the cube of a consequence
    # jet, on the reference PDEs and fifth-order KdV; fractional inputs
    kdv5 = make_pde(
        (1, 0), parse_expr("-u_xxxxx - 10*u*u_xxx - 25*u_x*u_xx - 20*u^2*u_x")
    )
    for pde in _reference_pdes(kdv, wave) + [kdv5]:
        lt, lx = pde.lead
        for i in range(6):
            e = i % 3 + 1
            kt, kx = rng.choice([(0, 0), (1, 0), (0, 1)] + [(1, 1), (2, 0)] * (e < 3))
            fractions = bool(i % 2)
            h = random_expr(
                rng, max_terms=3, max_order=3, max_jet_degree=2, allow_fractions=fractions
            ) + jet(lt + kt, lx + kx) ** e * random_expr(
                rng, max_terms=2, max_order=1, max_jet_degree=1, allow_fractions=fractions
            )
            f = h - restrict(h, pde)
            R = extract_operator(f, pde)
            assert R.apply(pde.G) == f


def test_extract_operator_handles_products_of_consequences(kdv):
    f = kdv.G * kdv.G
    R = extract_operator(f, kdv)
    assert R.apply(kdv.G) == f
    assert R.coeffs == {(0, 0): kdv.G}
    # a cubed higher consequence jet; coefficients frozen from the
    # earlier symbol-tracking construction
    h = parse_expr("t*u*u_tx^3 - 2/3*u_tt*u_x")
    R = extract_operator(h - restrict(h, kdv), kdv)
    assert R.coeffs == {
        (0, 0): parse_expr("2/3*u_x^2"),
        (0, 1): parse_expr(
            "t*u^3*u_xx^2 - t*u^2*u_xx*u_tx + 2*t*u^2*u_xx*u_xxxx"
            " + 2*t*u^2*u_x^2*u_xx + t*u*u_tx^2 + t*u*u_xxxx^2"
            " - t*u*u_xxxx*u_tx + t*u*u_x^4 - t*u*u_x^2*u_tx"
            " + 2*t*u*u_x^2*u_xxxx + 2/3*u*u_x"
        ),
        (0, 3): parse_expr("2/3*u_x"),
        (1, 0): parse_expr("-2/3*u_x"),
    }


def test_extract_operator_reuses_memoized_powers(monkeypatch):
    # the quotients read the same power memo as the rewriting, so a
    # second extraction on the same PDE computes no power
    pde = make_pde((1, 0), parse_expr("-u*u_x - u_xxx"))
    f = pde.G**2
    calls = []

    def counted(*args, _fn=kernel.pow_):
        calls.append(args)
        return _fn(*args)

    monkeypatch.setattr(kernel, "pow_", counted)
    first = extract_operator(f, pde)
    assert calls
    calls.clear()
    filed = _filed_powers(pde)
    seen = _record_mul_into(monkeypatch)
    assert extract_operator(f, pde) == first
    assert calls == []
    # the rewriting and the quotients multiply by the memoized powers as
    # filed, and file none again
    assert seen and all(id(b) in filed for b in seen)
    assert _filed_powers(pde) == filed


def test_extract_operator_known_coefficients(kdv):
    # scaling characteristic: frechet(G, P) = R(G) with
    # R = -5 - 3t D_t - x D_x
    P = -2 * u - 3 * t * u_t - x * u_x
    R = extract_operator(frechet(kdv.G, P), kdv)
    assert R.coeffs == {
        (0, 0): const(-5),
        (1, 0): -3 * t,
        (0, 1): -x,
    }
    assert R.adjoint(ONE) == const(-1)


def test_extract_operator_rejects_off_solution_input(kdv):
    with pytest.raises(NotOnSolutionSpace):
        extract_operator(kdv.G + u, kdv)
    with pytest.raises(NotOnSolutionSpace):
        extract_operator(ONE, kdv)


def test_rewriting_work_is_bounded(monkeypatch):
    # restricting u_(64,0) to KdV, or a high power of u_tx, expands far
    # beyond any budget; the rewrite refuses them instead of running out
    # of memory, and the work it does is bounded by the kernel's
    # MAX_PRODUCTS
    monkeypatch.setattr(kernel, "MAX_PRODUCTS", 5_000)
    kdv = make_pde((1, 0), parse_expr("-u*u_x - u_xxx"))
    # every term product, of the rewrite and of the powers it takes,
    # goes through mul_into, one coefficient product per term of b
    calls = []
    mul_into = kernel.mul_into
    monkeypatch.setattr(kernel, "mul_into", lambda out, key, c, b: calls.append(len(b)) or mul_into(out, key, c, b))
    for f in (jet(64, 0), jet(1, 1) ** 200, jet(2, 0) ** 30):
        for rewrite in (restrict, extract_operator):
            calls.clear()
            with pytest.raises(JetLawError, match="^work exceeds 5000 terms$"):
                rewrite(f, kdv)
            assert sum(calls) <= 5_000
    f = u * jet(2, 0) ** 3
    assert extract_operator(f - restrict(f, kdv), kdv).apply(kdv.G) == f - restrict(f, kdv)


def test_pde_str(kdv):
    assert str(kdv) == "u_t = -u_xxx - u*u_x"
    assert repr(parse_expr("u") * 0 + kdv.G) == repr(kdv.G)


def test_repr_never_raises():
    # the printer refuses coefficients above 4300 digits; a repr shows
    # them abbreviated instead, and short expressions in full
    huge = const(10**5000) * u
    assert repr(huge) == "DiffExpr('<~5001 digits>*u')"
    assert repr(u * u + t) == "DiffExpr('t + u^2')"
    assert repr(LinDiffOp({(0, 1): huge, (0, 0): u})) == "LinDiffOp((u) 1 + (<~5001 digits>*u) D_t^0 D_x^1)"
    assert repr(make_pde((1, 0), huge)) == "NormalPDE(u_t = <~5001 digits>*u)"
