from fractions import Fraction

import pytest

from jetlaw.conslaw import (
    Ansatz,
    current_from_multiplier,
    is_trivial_current,
    multiplier_from_current,
    solve_multipliers,
    verify_conservation_law,
)
from jetlaw.errors import (
    AnsatzError,
    NotAMultiplier,
    NotASymmetry,
    NotClosed,
    NotConserved,
    TrivialMultiplier,
)
from jetlaw.expr import ONE, ZERO, const, jet, t, u, x
from jetlaw.ratlin import QMatrix, rank, solve
from jetlaw.soln import restrict
from jetlaw.symmetry import (
    SymmetryGen,
    act_on_current,
    act_on_multiplier,
    action_matrix,
    characteristic,
    check_symmetry,
    classify,
    psi_current,
    solve_symmetries,
)

u_t = jet(1, 0)
u_x = jet(0, 1)
u_xx = jet(0, 2)

F = Fraction


def galilean():
    return SymmetryGen.evolutionary(ONE - t * u_x)


def scaling():
    return SymmetryGen.evolutionary(-2 * u - 3 * t * u_t - x * u_x)


def test_characteristic_of_full_generator():
    gen = SymmetryGen(tau=3 * t + 0 * u, xi=x + 0 * u, eta=-2 * u)
    assert not gen.is_evolutionary
    assert characteristic(gen) == -2 * u - 3 * t * u_t - x * u_x
    evo = SymmetryGen.evolutionary(u_x)
    assert evo.is_evolutionary
    assert characteristic(evo) == u_x


def test_check_symmetry_fixtures(kdv):
    assert check_symmetry(SymmetryGen.evolutionary(-u_x), kdv)
    assert check_symmetry(SymmetryGen.evolutionary(-u_t), kdv)
    assert check_symmetry(galilean(), kdv)
    assert check_symmetry(scaling(), kdv)
    assert check_symmetry(SymmetryGen(tau=3 * t + 0 * u, xi=x + 0 * u, eta=-2 * u), kdv)
    assert not check_symmetry(SymmetryGen.evolutionary(u**2), kdv)
    assert not check_symmetry(SymmetryGen.evolutionary(u), kdv)


def test_solve_symmetries_kdv(kdv):
    basis = solve_symmetries(kdv, Ansatz(1, 1, 1, 1))
    assert basis == [
        u_x,
        u_t,
        t * u_x - 1,
        t * u_t + x * u_x / 3 + 2 * u / 3,
    ]
    for p in basis:
        assert check_symmetry(SymmetryGen.evolutionary(p), kdv)


def test_solve_symmetries_wave(wave):
    basis = solve_symmetries(wave, Ansatz(1, 1, 1, 1))
    assert basis == [
        u_x,
        u_t,
        t * u_x + x * u_t,
        t * u_t + x * u_x + u,
    ]
    for p in basis:
        assert check_symmetry(SymmetryGen.evolutionary(p), wave)


def test_solve_symmetries_respects_order_bound(kdv):
    with pytest.raises(AnsatzError):
        solve_symmetries(kdv, Ansatz(3, 1, 1, 1))


def test_act_on_multiplier_galilean_table(kdv):
    gen = galilean()
    assert restrict(act_on_multiplier(gen, u, kdv), kdv) == ONE
    assert restrict(act_on_multiplier(gen, ONE, kdv), kdv) == ZERO
    assert restrict(act_on_multiplier(gen, t * u - x, kdv), kdv) == ZERO


def test_act_on_multiplier_validates_inputs(kdv):
    with pytest.raises(NotASymmetry):
        act_on_multiplier(SymmetryGen.evolutionary(u**2), u, kdv)
    with pytest.raises(NotAMultiplier):
        act_on_multiplier(galilean(), u_x, kdv)


def test_acted_multiplier_is_again_a_multiplier(kdv):
    # the action preserves the multiplier determining equations
    from jetlaw.conslaw import check_multiplier

    for gen in (galilean(), scaling()):
        for q in (ONE, u, u_xx + u**2 / 2, t * u - x):
            dq = act_on_multiplier(gen, q, kdv)
            assert check_multiplier(dq, kdv)


def test_act_on_current_full_generator_scaling(kdv):
    mass = current_from_multiplier(ONE, kdv)
    gen = SymmetryGen(tau=3 * t + 0 * u, xi=x + 0 * u, eta=-2 * u)
    acted = act_on_current(gen, mass, kdv)
    assert acted.T == -u
    assert acted.X == -u_xx - u**2 / 2
    assert verify_conservation_law(acted, kdv)
    # the generator must be a symmetry and then the current conserved
    not_symmetric = "^determining equation fails for P = -x\\*u_t$"
    for cur in (mass, (u, u)):
        with pytest.raises(NotASymmetry, match=not_symmetric):
            act_on_current(SymmetryGen(x, ZERO, ZERO), cur, kdv)
    with pytest.raises(NotConserved, match="^not conserved: D_t T \\+ D_x X = u_t \\+ u_x off"):
        act_on_current(gen, (u, u), kdv)


def test_act_on_current_forms_agree_up_to_trivial(kdv):
    # full-generator and evolutionary transport give the same
    # multiplier class
    mass = current_from_multiplier(ONE, kdv)
    full = SymmetryGen(tau=3 * t + 0 * u, xi=x + 0 * u, eta=-2 * u)
    evo = SymmetryGen.evolutionary(characteristic(full))
    a = act_on_current(full, mass, kdv)
    b = act_on_current(evo, mass, kdv)
    assert verify_conservation_law(a, kdv)
    assert verify_conservation_law(b, kdv)
    qa = multiplier_from_current(a, kdv)
    qb = multiplier_from_current(b, kdv)
    assert restrict(qa - qb, kdv) == ZERO
    assert restrict(qa, kdv) == const(-1)


def test_psi_current_is_conserved_and_matches_the_action(kdv):
    # the boundary current of (P, Q) realizes the acted multiplier
    gens = [SymmetryGen.evolutionary(-u_x), galilean(), scaling()]
    qs = [ONE, u, u_xx + u**2 / 2, t * u - x]
    for gen in gens:
        for q in qs:
            psi = psi_current(gen, q, kdv)
            assert verify_conservation_law(psi, kdv)
            lhs = restrict(multiplier_from_current(psi, kdv), kdv)
            rhs = restrict(act_on_multiplier(gen, q, kdv), kdv)
            assert lhs == rhs


def test_psi_current_validates_inputs(kdv):
    from jetlaw.errors import NotAdjointSymmetry

    with pytest.raises(NotASymmetry):
        psi_current(SymmetryGen.evolutionary(u**2), u, kdv)
    with pytest.raises(NotAdjointSymmetry):
        psi_current(galilean(), u**2, kdv)


def test_every_query_decides_p_by_extracting_r_p(kdv, monkeypatch):
    # the extraction of R_P decides the determining equation in all five
    # queries, so none reaches the boolean check; a fractional P that is
    # no symmetry is refused by each with the same message, which shows
    # the caller's P, not its primitive part
    from jetlaw import symmetry

    def forbidden(gen, pde):
        raise AssertionError("check_symmetry called")

    monkeypatch.setattr(symmetry, "check_symmetry", forbidden)
    mass = current_from_multiplier(ONE, kdv)
    queries = {
        psi_current: lambda gen: psi_current(gen, u, kdv),
        act_on_multiplier: lambda gen: act_on_multiplier(gen, u, kdv),
        classify: lambda gen: classify(gen, u, kdv),
        action_matrix: lambda gen: action_matrix(gen, [ONE, u], kdv),
        act_on_current: lambda gen: act_on_current(gen, mass, kdv),
    }
    for name, query in queries.items():
        for p in (ONE - t * u_x, (ONE - t * u_x) / 3):
            assert query(SymmetryGen.evolutionary(p)) is not None, name
        with pytest.raises(NotASymmetry, match="^determining equation fails for P = 1/3\\*u\\^2$"):
            query(SymmetryGen.evolutionary(u**2 / 3))
    assert restrict(act_on_multiplier(galilean(), u, kdv), kdv) == ONE
    assert classify(galilean(), ONE, kdv).verdict == "Invariant"
    assert action_matrix(galilean(), [ONE, u], kdv).matrix == QMatrix([[0, 1], [0, 0]])


def test_translations_act_trivially(kdv):
    # x- and t-translations send every low-order law to a trivial one
    for p in (-u_x, -u_t):
        gen = SymmetryGen.evolutionary(p)
        for q in (ONE, u, u_xx + u**2 / 2):
            psi = psi_current(gen, q, kdv)
            assert is_trivial_current(psi, kdv)
            assert restrict(act_on_multiplier(gen, q, kdv), kdv) == ZERO


def test_classify_scaling_weights(kdv):
    gen = scaling()
    expected = {
        str(ONE): F(-1),
        str(u): F(-3),
        str(u_xx + u**2 / 2): F(-5),
    }
    for q, lam in [(ONE, F(-1)), (u, F(-3)), (u_xx + u**2 / 2, F(-5))]:
        res = classify(gen, q, kdv)
        assert res.verdict == "Homogeneous"
        assert res.lam == lam
        assert expected[str(q)] == lam
    # the line the README quick start prints
    assert repr(classify(gen, u, kdv)) == (
        "ClassificationResult(verdict='Homogeneous', lam=Fraction(-3, 1), action=DiffExpr('-3*u'))"
    )
    res = classify(gen, t * u - x, kdv)
    assert res.verdict == "Invariant"
    assert res.lam == 0


def test_classify_galilean_mixes(kdv):
    res = classify(galilean(), u, kdv)
    assert res.verdict == "NotHomogeneous"
    assert res.lam is None
    res = classify(galilean(), ONE, kdv)
    assert res.verdict == "Invariant"


def test_classify_strict_off_e(kdv):
    # scaling multiplies the energy multiplier exactly, even off the
    # solution space, so the strict comparison agrees
    res = classify(scaling(), u_xx + u**2 / 2, kdv, strict_off_e=True)
    assert res.verdict == "Homogeneous"
    assert res.lam == F(-5)


def test_classify_rejects_trivial_multiplier(kdv):
    with pytest.raises(TrivialMultiplier):
        classify(scaling(), ZERO, kdv)


def test_wave_self_adjoint_invariance(wave):
    # for the self-adjoint wave operator the energy multiplier is its
    # own characteristic, and the law is invariant under it
    gen = SymmetryGen.evolutionary(-u_t)
    assert check_symmetry(gen, wave)
    res = classify(gen, -u_t, wave)
    assert res.verdict == "Invariant"


def test_action_matrix_galilean(kdv):
    act = action_matrix(galilean(), [ONE, u, t * u - x], kdv)
    assert act.matrix == QMatrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    assert act.eigenpairs == [(F(0), [(F(1), F(0), F(0)), (F(0), F(0), F(1))])]


def test_action_matrix_scaling_diagonal(kdv):
    basis = solve_multipliers(kdv, Ansatz(2, 2, 1, 1))
    act = action_matrix(scaling(), basis, kdv)
    n = len(basis)
    expect = [[0] * n for _ in range(n)]
    for i, lam in enumerate((-1, -3, -5, 0)):
        expect[i][i] = lam
    assert act.matrix == QMatrix(expect)
    assert [lam for lam, _ in act.eigenpairs] == [F(-5), F(-3), F(-1), F(0)]
    for lam, vecs in act.eigenpairs:
        for v in vecs:
            image = tuple(sum(a * vi for a, vi in zip(row, v)) for row in act.matrix.rows)
            assert image == tuple(lam * vi for vi in v)


def test_action_matrix_not_closed(kdv):
    with pytest.raises(NotClosed):
        action_matrix(galilean(), [u], kdv)


def test_action_matrix_rejects_bad_bases(kdv):
    with pytest.raises(AnsatzError):
        action_matrix(galilean(), [], kdv)
    with pytest.raises(AnsatzError):
        action_matrix(galilean(), [u, 2 * u], kdv)


def _action_matrix_reference(gen, basis, pde):
    """The action matrix by the dense route: rank of B, then one solve
    per acted element; raises as action_matrix does."""
    restricted = [restrict(b, pde) for b in basis]
    acted = [restrict(act_on_multiplier(gen, b, pde), pde) for b in basis]
    monos = sorted({k for e in restricted + acted for k in e._d})
    b_matrix = QMatrix([[e._d.get(k, 0) for e in restricted] for k in monos])
    if rank(b_matrix) != len(basis):
        raise AnsatzError("multiplier basis is linearly dependent on the solution space")
    cols = []
    for j, img in enumerate(acted):
        coords = solve(b_matrix, [img._d.get(k, 0) for k in monos])
        if coords is None:
            raise NotClosed(f"action leaves the span of the basis on element {basis[j]}")
        cols.append(coords)
    return QMatrix([[c[i] for c in cols] for i in range(len(basis))])


def test_action_matrix_matches_the_dense_route(kdv):
    full = solve_multipliers(kdv, Ansatz(2, 2, 1, 1))
    bases = [
        full,
        full[::-1],
        [full[3], full[0], full[1]],
        [full[2]],
        [full[0], full[2]],
        [full[1], full[2], full[0]],
        [full[0], full[1], full[0] + full[1]],
        [2 * full[1], full[3]],
    ]
    gens = [galilean(), scaling(), SymmetryGen.evolutionary(-u_x)]
    outcomes = set()
    for gen in gens:
        for basis in bases:
            try:
                want = _action_matrix_reference(gen, basis, kdv)
            except (AnsatzError, NotClosed) as exc:
                with pytest.raises(type(exc)) as info:
                    action_matrix(gen, basis, kdv)
                assert str(info.value) == str(exc)
                outcomes.add(type(exc))
                continue
            assert action_matrix(gen, basis, kdv).matrix == want
            outcomes.add(QMatrix)
    assert outcomes == {AnsatzError, NotClosed, QMatrix}


def test_solves_build_no_dense_matrix(kdv, burgers, monkeypatch):
    # a return to the dense QMatrix path in the solvers fails here
    def forbidden(self, rows):
        raise AssertionError("QMatrix built")

    monkeypatch.setattr(QMatrix, "__init__", forbidden)
    assert solve_multipliers(kdv, Ansatz(2, 2, 1, 1)) == [
        ONE,
        u,
        u_xx + u**2 / 2,
        t * u - x,
    ]
    assert solve_symmetries(burgers, Ansatz(1, 1, 2, 2)) == [
        u_x,
        u_t,
        t * u_x - 1,
        t * u_t + x * u_x / 2 + u / 2,
        t**2 * u_t + t * x * u_x + t * u - x,
    ]
    monkeypatch.undo()
    for p in solve_symmetries(burgers, Ansatz(1, 1, 2, 2)):
        assert check_symmetry(p, burgers)
