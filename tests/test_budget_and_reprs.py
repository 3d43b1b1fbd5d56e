"""The integrator's step budget and the reprs of backgrounds, series and free data."""

from fractions import Fraction

import pytest

from nahmpole import oracle
from nahmpole.algebra import vierbein
from nahmpole.geometry import builtin
from nahmpole.series import FreeData, PhgSeries, expand

_ZERO_ROW = "(Fraction(0, 1), Fraction(0, 1), Fraction(0, 1))"
_ZERO_FORM = f"GForm(degree=1, coeffs=({_ZERO_ROW}, {_ZERO_ROW}, {_ZERO_ROW}))"


def test_step_budget_exceeded(monkeypatch):
    # a fixed step marches a known number of steps; one iteration each, plus the
    # one that finds y_target reached
    sol = oracle.closed_solution("s3")
    init = oracle.profile_state(sol, 0.2)
    steps = len(oracle.integrate_flow(sol.background, init, 0.5, fixed_step=0.01)) - 1
    assert steps == 30
    monkeypatch.setattr(oracle, "_MAX_STEPS", steps)
    with pytest.raises(RuntimeError, match="^step budget exceeded$"):
        oracle.integrate_flow(sol.background, init, 0.5, fixed_step=0.01)
    monkeypatch.setattr(oracle, "_MAX_STEPS", steps + 1)
    assert len(oracle.integrate_flow(sol.background, init, 0.5, fixed_step=0.01)) == steps + 1


def test_background_repr(field):
    assert repr(builtin("round-s3", field=field)) == "FrameBackground('round-s3')"
    assert repr(builtin("berger-s3", Fraction(3, 7), field)) == \
        "FrameBackground('berger-s3?squash=3/7')"


def test_series_repr(field):
    table = expand(builtin("h2xr", field=field), N=2)  # b_1 and the log term b_{1,1}
    assert table.addresses() == [(1, 0), (1, 1)]
    assert repr(table) == "PhgSeries('h2xr', order=2, entries=2)"
    assert repr(PhgSeries(field=field)) == "PhgSeries('?', order=0, entries=0)"


def test_free_data_repr(field):
    assert repr(FreeData.zero(field)) == \
        f"FreeData(c_plus={_ZERO_FORM}, c_zero={_ZERO_FORM}, c_minus={_ZERO_FORM})"
    third = "Fraction(1, 3)"
    e = (f"GForm(degree=1, coeffs=(({third}, Fraction(0, 1), Fraction(0, 1)), "
         f"(Fraction(0, 1), {third}, Fraction(0, 1)), (Fraction(0, 1), Fraction(0, 1), {third})))")
    assert repr(FreeData(c_minus=vierbein(field).scale(Fraction(1, 3)))) == \
        f"FreeData(c_plus={_ZERO_FORM}, c_zero={_ZERO_FORM}, c_minus={e})"
