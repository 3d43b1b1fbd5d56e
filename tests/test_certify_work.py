"""What the exact certify path builds, and the exact views of a flow state.

A verified residual cell returns the series' shared zero readings, so a
second ``check_residuals`` on a stored table builds a form only where a
residual is nonzero: the unchecked ``b`` equation at K = order + 1.  The
``verify identities`` draws are made as readings and take the same random
stream as ``Fraction(rng.randint(-9, 9), rng.randint(1, 7))`` draws.  A flow
state's views are exact forms whose entries are its row's float64 values, and
scale by a factor exactly; a block holding an inf or a NaN has no exact view.
"""

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from nahmpole import cli
from nahmpole.algebra import GForm
from nahmpole.geometry import _BLOCKS, load_background
from nahmpole.oracle import FlowState, closed_solution, profile_state
from nahmpole.scalars import RationalField
from nahmpole.series import check_residuals, from_json, residual_at

_FIELD = RationalField()
_TABLE = (Path(__file__).resolve().parents[1] / "benchmarks" / "refs" / "tables"
          / "berger-s3-squash-2.json")


@pytest.mark.parametrize("seed", (0, 20240901, 7))
def test_identities_draws_are_the_old_stream(seed):
    rng, twin = random.Random(seed), random.Random(seed)
    for _ in range(200):
        form = cli._rand_one_form(rng, _FIELD)
        want = [Fraction(twin.randint(-9, 9), twin.randint(1, 7)) for _ in range(9)]
        assert form._coeffs is None
        assert list(form.entries()) == want
        assert form == GForm.one_form(_FIELD, [want[:3], want[3:6], want[6:]])
    assert rng.getstate() == twin.getstate()


def test_a_verified_check_builds_almost_no_forms(monkeypatch):
    table = from_json(_TABLE.read_text(),
                      background=load_background("builtin:berger-s3?squash=2", _FIELD))
    assert check_residuals(table) == []
    built, init = [], GForm.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)
    monkeypatch.setattr(GForm, "__init__", counting)
    assert check_residuals(table) == []
    monkeypatch.undo()
    # three forms per cell at K = order + 1, whose b residual is not checked;
    # every other cell is the series' shared zeros
    depths = table.max_p() + 2
    assert len(built) <= 3 * depths
    zeros = residual_at(table, 4, 0)
    assert zeros is residual_at(table, 6, 1) and all(R.is_zero() for R in zeros)


@pytest.mark.parametrize("factor", (2, -3, Fraction(1, 2), Fraction(-3, 7), 0.25))
def test_flow_state_views_are_exact_forms_of_the_row(factor):
    state = profile_state(closed_solution("s3"), 0.5)
    for view, r in zip((state.A, state.phi, state.phi_y), _BLOCKS):
        assert view.field.exact
        assert all(type(v) is float for v in view.entries())
        assert list(view.entries()) == state.v[r].tolist()
        exact = [Fraction(v) for v in view.entries()]
        assert list(view.scale(factor).entries()) == [v * Fraction(factor) for v in exact]
        assert list(view.divide(factor).entries()) == [v / Fraction(factor) for v in exact]
    assert state.phi_y.is_zero()


@pytest.mark.parametrize("bad", (math.inf, -math.inf, math.nan))
@pytest.mark.parametrize("slot", (0, 13, 20))
def test_a_non_finite_block_has_no_view(bad, slot):
    # a fixed-step integration into a blow-up can return such a row: the view of
    # its block is refused in one line naming the entry, the others and v stay
    row = [0.25 * n for n in range(21)]
    row[slot] = bad
    state = FlowState(0.5, row)
    assert repr(state.v.tolist()[slot]) == repr(bad)
    for name, r in zip(("A", "phi", "phi_y"), _BLOCKS):
        if slot in r:
            with pytest.raises(ValueError, match=f"non-finite entry {bad!r}") as err:
                getattr(state, name)
            assert "\n" not in str(err.value)
        else:
            assert list(getattr(state, name).entries()) == row[r.start:r.stop]
