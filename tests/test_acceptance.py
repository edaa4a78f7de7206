"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS or FAIL line (run
with -s to see them).  Every expected value here was recomputed with
an independent method before being frozen: the calculus identities are
exact symbolic statements, the solved bases were cross-checked against
a sympy transcription of the determining equations, and the CLI
fixtures are byte captures of verified runs.
"""

import functools
import os
import random
from fractions import Fraction

from helpers import random_expr
from jetlaw.cli import main
from jetlaw.conslaw import (
    Ansatz,
    check_adjoint_symmetry,
    check_multiplier,
    current_from_multiplier,
    helmholtz_check,
    is_trivial_current,
    multiplier_from_current,
    solve_multipliers,
    verify_conservation_law,
)
from jetlaw.diffops import (
    ConservedCurrent,
    boundary_current,
    divergence,
    euler,
    frechet,
    frechet_adjoint,
    invert_divergence,
    total_derivative,
)
from jetlaw.expr import ONE, ZERO, jet, t, u, x
from jetlaw.ratlin import QMatrix, solve
from jetlaw.soln import restrict
from jetlaw.symmetry import (
    SymmetryGen,
    act_on_current,
    act_on_multiplier,
    action_matrix,
    classify,
    psi_current,
    solve_symmetries,
)

u_t = jet(1, 0)
u_x = jet(0, 1)
u_xx = jet(0, 2)

F = Fraction

DATA = os.path.join(os.path.dirname(__file__), "data")


def criterion(n, text):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL {n}: {text}")
                raise
            print(f"PASS {n}: {text}")

        return wrapper

    return deco


def in_span(q, basis):
    """Whether q is a rational linear combination of the basis."""
    monos = set(q.terms)
    for b in basis:
        monos.update(b.terms)
    monos = sorted(monos, key=lambda m: m.key)
    M = QMatrix([[b.coefficient(m) for b in basis] for m in monos])
    return solve(M, [q.coefficient(m) for m in monos]) is not None


@criterion(1, "exact calculus identities hold on 100 random expressions")
def test_random_exact_identities():
    rng = random.Random(1234)
    checks = 0
    for _ in range(25):
        f = random_expr(rng, max_terms=4, max_order=3, max_jet_degree=3, coeff_bound=9)
        g = random_expr(rng, max_terms=3, max_order=2, max_jet_degree=2, coeff_bound=9)
        h = random_expr(rng, max_terms=3, max_order=2, max_jet_degree=2, coeff_bound=9)

        assert euler(total_derivative(f, "t")) == ZERO
        checks += 1
        assert euler(total_derivative(f, "x")) == ZERO
        checks += 1
        residual = (
            h * frechet(f, g)
            - g * frechet_adjoint(f, h)
            - divergence(boundary_current(f, g, h))
        )
        assert residual == ZERO
        checks += 1
        div = total_derivative(g, "t") + total_derivative(h, "x")
        assert divergence(invert_divergence(div)) == div
        checks += 1
    assert checks == 100


@criterion(2, "KdV multipliers: dimension 4, the four classical laws, "
              "all three characterizations agree")
def test_kdv_multiplier_space(kdv):
    basis = solve_multipliers(kdv, Ansatz(2, 2, 1, 1))
    assert len(basis) == 4
    classical = [ONE, u, u**2 / 2 + u_xx, t * u - x]
    for q in classical:
        assert in_span(q, basis)
    for q in list(basis) + classical:
        assert check_multiplier(q, kdv)
        assert check_adjoint_symmetry(q, kdv)
        assert helmholtz_check(q, kdv)


@criterion(3, "heat multipliers of order 0: dimension 4, "
              "backward heat polynomials")
def test_heat_multiplier_space(heat):
    basis = solve_multipliers(heat, Ansatz(0, 1, 3, 3))
    assert len(basis) == 4
    for q in basis:
        assert q.max_order() <= 0
        assert q.partial("t") + q.partial("x").partial("x") == ZERO
    for q in (ONE, x + 0 * u, x**2 - 2 * t, x**3 - 6 * t * x):
        assert in_span(q, basis)
        assert check_multiplier(q, heat)


@criterion(4, "boundary currents realize the multiplier action on all "
              "KdV symmetry/multiplier pairs")
def test_psi_matches_action(kdv):
    symmetries = solve_symmetries(kdv, Ansatz(1, 1, 1, 1))
    multipliers = solve_multipliers(kdv, Ansatz(2, 2, 1, 1))
    assert len(symmetries) == 4 and len(multipliers) == 4
    for p in symmetries:
        gen = SymmetryGen.evolutionary(p)
        for q in multipliers:
            psi = psi_current(gen, q, kdv)
            assert verify_conservation_law(psi, kdv)
            lhs = restrict(multiplier_from_current(psi, kdv), kdv)
            rhs = restrict(act_on_multiplier(gen, q, kdv), kdv)
            assert lhs == rhs


@criterion(5, "translations act trivially on the translation-invariant "
              "KdV laws")
def test_translations_trivial(kdv):
    for p in (-u_x, -u_t):
        gen = SymmetryGen.evolutionary(p)
        for q in (ONE, u, u**2 / 2 + u_xx):
            psi = psi_current(gen, q, kdv)
            assert is_trivial_current(psi, kdv)
            cur = current_from_multiplier(q, kdv)
            acted = act_on_current(gen, cur, kdv)
            assert verify_conservation_law(acted, kdv)
            assert is_trivial_current(acted, kdv)


@criterion(6, "KdV scaling weights are -1, -3, -5 and the action matrix "
              "is diagonal")
def test_scaling_weights(kdv):
    # Hand expansion of R_P*(Q) - R_Q*(P) for the scaling
    # characteristic P = -2u - 3t u_t - x u_x on G = u_t + u u_x + u_xxx:
    #
    #   frechet(G, P) = R_P(G) with  R_P = -5 - 3t D_t - x D_x
    #   so  R_P*(h) = -5h + D_t(3t h) + D_x(x h) = -h + 3t D_t h + x D_x h.
    #
    #   Q = 1:          frechet_adjoint(G, 1) = 0, so R_Q = 0 and
    #                   acted = R_P*(1) = -1.
    #   Q = u:          frechet_adjoint(G, u) = -G, so R_Q = -1 and
    #                   acted = (-u + 3t u_t + x u_x) + P = -3u.
    #   Q = u^2/2+u_xx: Q' = u + D_x^2 is self-adjoint and
    #                   frechet_adjoint(G, Q) = -Q'(G), so
    #                   R_Q = -(u + D_x^2); with
    #                   D_x^2 P = -4u_xx - 3t u_txx - x u_xxx,
    #                   acted = R_P*(Q) + uP + D_x^2 P = -5(u^2/2 + u_xx).
    gen = SymmetryGen.evolutionary(-2 * u - 3 * t * u_t - x * u_x)
    classical = [ONE, u, u**2 / 2 + u_xx]
    for q, lam in zip(classical, (F(-1), F(-3), F(-5))):
        res = classify(gen, q, kdv)
        assert res.verdict == "Homogeneous"
        assert res.lam == lam
    res = classify(gen, t * u - x, kdv)
    assert res.verdict == "Invariant"

    act = action_matrix(gen, classical, kdv)
    assert act.matrix == QMatrix([[-1, 0, 0], [0, -3, 0], [0, 0, -5]])
    assert [lam for lam, _ in act.eigenpairs] == [F(-5), F(-3), F(-1)]

    # the four-dimensional solved basis just appends the invariant law
    basis = solve_multipliers(kdv, Ansatz(2, 2, 1, 1))
    act4 = action_matrix(gen, basis, kdv)
    expected = [[0] * 4 for _ in range(4)]
    for i, lam in enumerate((-1, -3, -5, 0)):
        expected[i][i] = lam
    assert act4.matrix == QMatrix(expected)
    assert [lam for lam, _ in act4.eigenpairs] == [F(-5), F(-3), F(-1), F(0)]


@criterion(7, "the cubic wave operator is self-adjoint and its energy "
              "law is invariant under time translation")
def test_wave_self_adjointness(wave):
    rng = random.Random(777)
    for _ in range(10):
        w = random_expr(rng, max_terms=3, max_order=2, max_jet_degree=2)
        assert frechet(wave.G, w) == frechet_adjoint(wave.G, w)
    gen = SymmetryGen.evolutionary(-u_t)
    res = classify(gen, -u_t, wave)
    assert res.verdict == "Invariant"


@criterion(8, "multiplier/current round trips close up to trivial laws "
              "on all fixture equations")
def test_round_trips(kdv, heat, burgers, wave):
    rng = random.Random(88)
    fixtures = [
        (kdv, solve_multipliers(kdv, Ansatz(2, 2, 1, 1))),
        (heat, solve_multipliers(heat, Ansatz(0, 1, 3, 3))),
        (burgers, solve_multipliers(burgers, Ansatz(1, 2, 2, 2))),
        (wave, solve_multipliers(wave, Ansatz(1, 2, 1, 1))),
    ]
    for pde, basis in fixtures:
        for q in basis:
            cur = current_from_multiplier(q, pde)
            back = multiplier_from_current(cur, pde)
            assert restrict(back - q, pde) == ZERO

            # perturb by an explicit trivial current and close the loop
            s = random_expr(rng, max_terms=2, max_order=1, max_jet_degree=2)
            a = random_expr(rng, max_terms=2, max_order=1, max_jet_degree=1)
            pert = ConservedCurrent(
                cur.T + total_derivative(s, "x") + a * pde.G,
                cur.X - total_derivative(s, "t"),
            )
            assert verify_conservation_law(pert, pde)
            q2 = restrict(multiplier_from_current(pert, pde), pde)
            assert q2 == restrict(q, pde)
            cur2 = current_from_multiplier(q2, pde)
            diff = ConservedCurrent(pert.T - cur2.T, pert.X - cur2.X)
            assert is_trivial_current(diff, pde)


@criterion(9, "CLI reports are byte-identical to the frozen fixtures "
              "with the documented exit codes")
def test_cli_reports(capsys):
    session = os.path.join(DATA, "kdv.session")
    # explicit t in G: both solves write and eliminate the whole
    # determining system instead of taking its kernel level by level
    nonautonomous = os.path.join(DATA, "nonautonomous.session")
    headers = {session: "rhs = -u_xxx - u*u_x", nonautonomous: "rhs = t*u_x + u_xxx"}
    cases = [
        (["classify", "--P", "-u_x", "--Q", "u"], "report_classify_translation.txt", 0),
        (
            ["multipliers", "--order", "2", "--jet-degree", "2",
             "--t-degree", "1", "--x-degree", "1"],
            "report_multipliers.txt",
            0,
        ),
        (["check-conslaw", "--T", "u", "--X", "u"], "report_check_false.txt", 1),
        (["multiplier-of", "--T", "u", "--X", "u^2/2 + u_xx"], "report_multiplier_of.txt", 0),
        (["symmetries"], "report_symmetries.txt", 0),
        (["current", "--Q", "energy"], "report_current_energy.txt", 0),
        (["act", "--P", "galilean", "--Q", "mass"], "report_act_multiplier.txt", 0),
        (["act", "--P", "-u_x", "--T", "u", "--X", "u^2/2 + u_xx"], "report_act_current.txt", 0),
        (["psi", "--P", "galilean", "--Q", "mass"], "report_psi.txt", 0),
        (["classify", "--P", "galilean", "--Q", "u"], "report_classify_not_homogeneous.txt", 1),
        (["action-matrix", "--P", "-2*u - 3*t*u_t - x*u_x", "--basis", "mass;energy"],
         "report_action_matrix_basis.txt", 0),
        (["action-matrix", "--P", "-2*u - 3*t*u_t - x*u_x"], "report_action_matrix_ansatz.txt", 0),
    ]
    cases = [(session, *case) for case in cases] + [
        (nonautonomous, ["multipliers"], "report_nonautonomous_multipliers.txt", 0),
        (nonautonomous, ["symmetries"], "report_nonautonomous_symmetries.txt", 0),
    ]
    for path, argv, fixture, expected_code in cases:
        code = main(["-s", path] + argv)
        out = capsys.readouterr().out
        with open(os.path.join(DATA, fixture)) as fh:
            assert out == fh.read(), fixture
        assert code == expected_code, fixture
        # every report opens with the header that main prints
        assert out.splitlines()[:3] == [
            f"command = {argv[0]}", "lead = u_t", headers[path]
        ], fixture
