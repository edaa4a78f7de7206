"""Typed errors keep their type whatever the expression they report: the
messages are built by the bounded printer, so an oversized coefficient
or a long expression cannot turn them into a printing failure."""

import pytest

from jetlaw.conslaw import current_from_multiplier, helmholtz_check, multiplier_from_current
from jetlaw.diffops import invert_divergence
from jetlaw.errors import (
    NotADivergence,
    NotAdjointSymmetry,
    NotAMultiplier,
    NotASymmetry,
    NotConserved,
    NotOnSolutionSpace,
)
from jetlaw.expr import ZERO, const, jet, u, x
from jetlaw.soln import extract_operator
from jetlaw.symmetry import act_on_multiplier

HUGE = const(10**5000)
u_x = jet(0, 1)


@pytest.mark.parametrize(
    "error, call",
    [
        (NotOnSolutionSpace, lambda pde: extract_operator(HUGE * u, pde)),
        (NotConserved, lambda pde: multiplier_from_current((HUGE * u_x**2, ZERO), pde)),
        (NotAMultiplier, lambda pde: current_from_multiplier(HUGE * x * u, pde)),
        (NotASymmetry, lambda pde: act_on_multiplier(HUGE * u, u, pde)),
        (NotAdjointSymmetry, lambda pde: helmholtz_check(HUGE * u_x**2, pde)),
        (NotADivergence, lambda pde: invert_divergence(HUGE * u_x**2)),
    ],
)
def test_oversized_coefficients_keep_the_error_type(kdv, error, call):
    with pytest.raises(error) as info:
        call(kdv)
    assert type(info.value) is error
    assert "<~5001 digits>" in str(info.value)
    assert len(str(info.value)) < 200


def test_long_expressions_are_cut_in_messages(kdv):
    q = sum((x**k * u_x**2 for k in range(200)), ZERO)
    with pytest.raises(NotAMultiplier) as info:
        current_from_multiplier(q, kdv)
    assert str(info.value).endswith("+ ... (188 more terms)")
    assert len(str(info.value)) < 400
