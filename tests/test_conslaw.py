import pickle
import random
import time
from math import comb

import pytest
import sympy as sp

import oracle
from helpers import random_expr
from jetlaw import conslaw
from jetlaw.conslaw import (
    Ansatz,
    ansatz_monomials,
    check_adjoint_symmetry,
    check_multiplier,
    current_from_multiplier,
    helmholtz_check,
    is_trivial_current,
    multiplier_from_current,
    solve_determining_system,
    solve_multipliers,
    verify_conservation_law,
)
from jetlaw.diffops import ConservedCurrent, euler
from jetlaw.errors import AnsatzError, NotAdjointSymmetry, NotAMultiplier, NotConserved
from jetlaw.expr import ONE, ZERO, jet, t, u, x
from jetlaw.soln import restrict

u_t = jet(1, 0)
u_x = jet(0, 1)
u_xx = jet(0, 2)


def test_ansatz_validation():
    a = Ansatz()
    assert (a.max_order, a.max_jet_degree, a.max_t_degree, a.max_x_degree) == (1, 1, 1, 1)
    with pytest.raises(AnsatzError):
        Ansatz(max_order=-1)
    with pytest.raises(AnsatzError):
        Ansatz(max_jet_degree=-2)
    with pytest.raises(AnsatzError, match="max_order must be a non-negative integer, got '1'"):
        Ansatz("1")
    with pytest.raises(AnsatzError, match="max_x_degree must be a non-negative integer, got 1.0"):
        Ansatz(max_x_degree=1.0)
    # a value record: repr, positional and keyword construction, pickling
    # and read-only fields
    assert repr(a) == "Ansatz(max_order=1, max_jet_degree=1, max_t_degree=1, max_x_degree=1)"
    b = Ansatz(2, 3, max_x_degree=0)
    assert (b.max_order, b.max_jet_degree, b.max_t_degree, b.max_x_degree) == (2, 3, 1, 0)
    assert b == Ansatz(max_order=2, max_jet_degree=3, max_t_degree=1, max_x_degree=0)
    c = pickle.loads(pickle.dumps(b))
    assert type(c) is Ansatz and c == b
    with pytest.raises(AttributeError):
        b.max_order = 5
    assert b.max_order == 2


def test_ansatz_monomials_counts(kdv, wave):
    monos = ansatz_monomials(kdv, Ansatz(2, 2, 1, 1))
    assert len(monos) == 40
    # deterministic ascending order, starting from the constant
    assert monos[0] == ONE
    assert monos == sorted(monos, key=lambda m: min(m.terms))
    # on the solution space u_t and above are excluded from candidates
    assert all(not m.depends_on((1, 0)) for m in monos)
    with_cons = ansatz_monomials(wave, Ansatz(2, 1, 0, 0), include_consequences=True)
    without = ansatz_monomials(wave, Ansatz(2, 1, 0, 0))
    assert len(with_cons) > len(without)


def test_kdv_multiplier_basis(kdv):
    basis = solve_multipliers(kdv, Ansatz(2, 2, 1, 1))
    assert basis == [ONE, u, u_xx + u**2 / 2, t * u - x]
    for q in basis:
        assert check_multiplier(q, kdv)
        assert check_adjoint_symmetry(q, kdv)
        assert helmholtz_check(q, kdv)


def test_kdv_rejects_non_multipliers(kdv):
    for q in (u_x, u**2, t + 0 * u):
        assert not check_multiplier(q, kdv)
        assert not check_adjoint_symmetry(q, kdv)


def test_heat_multiplier_basis(heat):
    basis = solve_multipliers(heat, Ansatz(0, 1, 3, 3))
    assert basis == [ONE, x + 0 * u, t - x**2 / 2, t * x - x**3 / 6]
    # the classical quadratic and cubic representatives lie in the span
    assert x**2 - 2 * t == -2 * basis[2]
    assert x**3 - 6 * t * x == -6 * basis[3]
    for q in basis:
        # jet-free multipliers of the heat equation solve the backward
        # heat equation q_t + q_xx = 0 identically
        assert q.partial("t") + q.partial("x").partial("x") == ZERO
        assert check_multiplier(q, heat)


def test_heat_dimension_matches_reference(heat):
    monos = ansatz_monomials(heat, Ansatz(0, 1, 3, 3))
    dim = oracle.multiplier_space_dimension(
        oracle.to_sympy(heat.G), (1, 0), [oracle.to_sympy(m) for m in monos]
    )
    assert dim == 4


def test_burgers_has_only_the_constant(burgers):
    basis = solve_multipliers(burgers, Ansatz(1, 2, 2, 2))
    assert basis == [ONE]
    assert not check_multiplier(u, burgers)


def test_wave_multiplier_basis(wave):
    basis = solve_multipliers(wave, Ansatz(1, 2, 1, 1))
    assert basis == [u_x, u_t, t * u_x + x * u_t]
    for q in basis:
        assert check_multiplier(q, wave)
        assert helmholtz_check(q, wave)


def test_wave_scaling_is_adjoint_symmetry_but_not_multiplier(wave):
    # the scaling characteristic solves the adjoint determining
    # equation yet fails the Helmholtz condition
    p = -u - t * u_t - x * u_x
    assert check_adjoint_symmetry(p, wave)
    assert not check_multiplier(p, wave)
    assert not helmholtz_check(p, wave)


def test_helmholtz_requires_an_adjoint_symmetry(kdv):
    with pytest.raises(NotAdjointSymmetry):
        helmholtz_check(u**2, kdv)


def test_current_round_trip(kdv):
    for q in (ONE, u, u_xx + u**2 / 2, t * u - x):
        cur = current_from_multiplier(q, kdv)
        assert verify_conservation_law(cur, kdv)
        back = multiplier_from_current(cur, kdv)
        assert restrict(back - q, kdv) == ZERO


def test_current_from_multiplier_rejects_non_multiplier(kdv):
    with pytest.raises(NotAMultiplier):
        current_from_multiplier(u_x, kdv)


def test_multiplier_from_current_examples(kdv):
    assert multiplier_from_current(ConservedCurrent(u, u_xx + u**2 / 2), kdv) == ONE
    with pytest.raises(NotConserved):
        multiplier_from_current(ConservedCurrent(u, ZERO), kdv)


def test_verify_conservation_law(kdv):
    assert verify_conservation_law(ConservedCurrent(u, u_xx + u**2 / 2), kdv)
    assert not verify_conservation_law(ConservedCurrent(u, u), kdv)


def test_trivial_currents(kdv):
    # identically closed curl pair
    assert is_trivial_current(ConservedCurrent(u_x, -u_t), kdv)
    # vanishes on the solution space
    assert is_trivial_current(ConservedCurrent(u * kdv.G, ZERO), kdv)
    # genuine laws are not trivial
    assert not is_trivial_current(ConservedCurrent(u, u_xx + u**2 / 2), kdv)
    assert not is_trivial_current(current_from_multiplier(u, kdv), kdv)


def test_ansatz_size_is_capped_before_building(kdv, monkeypatch):
    # (T+1)(X+1) C(n + D, D) monomials in the n = 3 jets u, u_x, u_xx
    assert len(ansatz_monomials(kdv, Ansatz(2, 2, 1, 1))) == 4 * comb(3 + 2, 2)
    monkeypatch.setattr(conslaw, "MAX_ANSATZ", 40)
    assert len(ansatz_monomials(kdv, Ansatz(2, 2, 1, 1))) == 40
    monkeypatch.setattr(conslaw, "MAX_ANSATZ", 39)
    with pytest.raises(AnsatzError, match="more than 39 monomials"):
        ansatz_monomials(kdv, Ansatz(2, 2, 1, 1))
    monkeypatch.undo()
    # counted in closed form, so even absurd bounds are refused at once
    for ansatz, consequences in (
        (Ansatz(1, 1, 100000, 0), False),
        (Ansatz(2, 400, 1, 1), False),
        (Ansatz(2, 60, 1, 1), True),
        (Ansatz(10**6, 10**6, 0, 0), False),
        (Ansatz(10**6, 10**6, 0, 0), True),
        (Ansatz(0, 10**4000, 0, 0), True),
    ):
        start = time.perf_counter()
        with pytest.raises(AnsatzError, match="more than 10000 monomials"):
            ansatz_monomials(kdv, ansatz, include_consequences=consequences)
        assert time.perf_counter() - start < 1


def test_ansatz_must_stay_below_equation_order(heat, kdv):
    with pytest.raises(AnsatzError):
        solve_multipliers(heat, Ansatz(2, 1, 1, 1))
    with pytest.raises(AnsatzError):
        solve_multipliers(kdv, Ansatz(3, 1, 1, 1))


def test_determining_system_with_explicit_basis(kdv):
    monos = ansatz_monomials(kdv, Ansatz(2, 2, 1, 1))
    images = [euler(m * kdv.G) for m in monos]
    sols = solve_determining_system(monos, images)
    assert sols == solve_determining_system(monos, images)
    assert len(sols) == 4


def test_solved_multipliers_are_deterministic(kdv):
    assert solve_multipliers(kdv, Ansatz(2, 2, 1, 1)) == solve_multipliers(
        kdv, Ansatz(2, 2, 1, 1)
    )


def test_determining_system_random_kernels():
    # basis: distinct monomials; images: random combinations of a few
    # random expressions, so that the kernel is often nontrivial
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(1, 9)
        basis = [t**i * x**j for i in range(3) for j in range(3)][:n]
        gens = [random_expr(rng, max_terms=4, max_order=2, allow_fractions=True)
                for _ in range(rng.randint(1, 4))]
        images = []
        for _ in range(n):
            img = ZERO
            for g in gens:
                c = rng.choice([0, 0, 1, -2, 3])
                img = img + g * c
            images.append(img)
        monos = sorted({k for img in images for k in img._d})
        if monos:
            M = sp.Matrix([[sp.Rational(str(img._d.get(k, 0))) for img in images] for k in monos])
            want_rank = M.rank()
        else:
            want_rank = 0
        kernel = solve_determining_system(basis, images)
        assert len(kernel) == n - want_rank
        for q in kernel:
            coeffs = [q.coefficient(next(iter(b.terms))) for b in basis]
            assert q == sum((c * b for c, b in zip(coeffs, basis)), ZERO)
            assert sum((c * img for c, img in zip(coeffs, images)), ZERO) == ZERO
        if not monos:
            assert kernel == basis
