"""The residual's integer sums against a plain ``GForm`` reference, and a
replaced or deleted table entry read afresh."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nahmpole import algebra, geometry, series as series_module
from nahmpole.algebra import GForm, _kernel_sum, star_wedge
from nahmpole.geometry import (FRAME_TERMS, PAIR_TERMS, POLE_TERMS, builtin,
                               load_background)
from nahmpole.scalars import FloatField, RationalField
from nahmpole.series import (PhgSeries, check_residuals, expand, from_json, residual_at,
                             to_json)

from conftest import CATALOG, rand_one_form, rand_zero_form

_FIELD = RationalField()
_BACKGROUNDS = {uri: load_background(uri, _FIELD) for uri, _ in CATALOG}

#: Entry denominators: pairwise coprime, so a sum's common denominator has
#: to be widened by the lcm as terms of other forms arrive.
_DENOMINATORS = (1, 2, 3, 5, 7, 11, 13)


def plain_residual(series, K, p):
    """``residual_at`` as plain ``GForm`` sums of the same table rows, each
    row built as a form and scaled by its coefficient: no integer sums."""
    field, bg = series.field, series.background
    tables = (series._a, series._b, series._phi)
    here, up, down = ([t.get(at) for t in tables]
                      for at in ((K, p), (K, p + 1), (K - 1, p)))
    R = [GForm.zero(field, degree) for degree in (1, 1, 0)]
    for n, at in ((K, here), (p + 1, up)):
        for i, x in enumerate(at):
            if x is not None:
                R[i] = R[i] + x.scale(Fraction(n))
    for i, op, j, coefficient in POLE_TERMS:
        if here[j] is not None:
            R[i] = R[i] - op(here[j]).scale(Fraction(coefficient))
    for i, op, j, coefficient in FRAME_TERMS:
        if down[j] is not None:
            R[i] = R[i] - op(bg, down[j]).scale(Fraction(coefficient))
    if (K, p) == (1, 0):
        R[1] = R[1] - bg.starF
    for k1 in range(1, K - 1):
        for p1 in range(p + 1):
            v1 = [t.get((k1, p1)) for t in tables]
            v2 = [t.get((K - 1 - k1, p - p1)) for t in tables]
            for i, op, (j1, j2), coefficient in PAIR_TERMS:
                if v1[j1] is not None and v2[j2] is not None:
                    R[i] = R[i] - op(v1[j1], v2[j2]).scale(Fraction(coefficient))
    return tuple(R)


_entry = st.builds(Fraction, st.integers(-9, 9), st.sampled_from(_DENOMINATORS))
_one_form = st.lists(_entry, min_size=9, max_size=9).map(
    lambda v: GForm.from_entries(_FIELD, v))
_zero_form = st.lists(_entry, min_size=3, max_size=3).map(
    lambda v: GForm.from_entries(_FIELD, v))
_entry_forms = st.fixed_dictionaries({}, optional={
    "a": _one_form, "b": _one_form, "phi_y": _zero_form})


#: A catalog member, as listed or at a rational scale or squash (whose frame
#: operators have denominators of their own).
_background = st.one_of(
    st.sampled_from(sorted(_BACKGROUNDS)).map(_BACKGROUNDS.get),
    st.builds(lambda name, q: builtin(name, q, _FIELD),
              st.sampled_from(["round-s3", "hyperbolic-h3", "berger-s3"]),
              st.fractions(Fraction(1, 9), 9, max_denominator=9)))


@st.composite
def random_tables(draw):
    """A catalog background and a table of random rational forms (not a
    solution, so residuals are nonzero) at a few addresses k <= 6, p <= 3."""
    series = PhgSeries(background=draw(_background), order=6)
    addresses = draw(st.sets(st.tuples(st.integers(1, 6), st.integers(0, 3)),
                             min_size=1, max_size=8))
    for k, p in sorted(addresses):
        forms = draw(_entry_forms)
        series._store(k, p, list(forms.values()), **forms)
    return series


@given(random_tables())
def test_residual_is_the_plain_sum_of_its_rows(series):
    for K in range(1, 7):
        for p in range(4):
            assert residual_at(series, K, p) == plain_residual(series, K, p), (K, p)


def test_form_sum_widens_and_halves():
    # 1/3 e ^ e + 1/2 (1/5 e ^ 1/7 e) over coprime denominators, then a float sum
    e = GForm.from_entries(_FIELD, [Fraction(int(i % 4 == 0)) for i in range(9)])
    total = _kernel_sum(_FIELD, 9, [
        (Fraction(1, 3), e, star_wedge, e),
        (Fraction(1, 2), e.scale(Fraction(1, 5)), star_wedge, e.scale(Fraction(1, 7)))])
    assert total == star_wedge(e, e).scale(Fraction(1, 3) + Fraction(1, 70))
    field = FloatField(64)
    x = GForm.from_entries(field, [field.from_fraction(v) for v in e.entries()])
    total = _kernel_sum(field, 9, [(Fraction(1, 2), x, star_wedge, x)])
    assert total == star_wedge(x, x).scale(field.from_fraction(Fraction(1, 2)))


def test_no_stale_integer_view(rng):
    # the integer view of the table lasts one call: a replaced or deleted
    # entry is read afresh by the next residual_at and check_residuals
    s = expand(_BACKGROUNDS["builtin:berger-s3?squash=2"], N=6)
    assert check_residuals(s) == []
    before = residual_at(s, 4, 0)
    s._b[(3, 0)] = s.get_b(3, 0) + rand_one_form(rng, _FIELD)
    after = residual_at(s, 4, 0)
    assert after != before and after == plain_residual(s, 4, 0)
    assert (3, 0, "b") in check_residuals(s)
    del s._b[(3, 0)]
    assert residual_at(s, 4, 0) == plain_residual(s, 4, 0)
    assert (3, 0, "b") in check_residuals(s)
    del s._a[(2, 0)]
    assert residual_at(s, 4, 0) == plain_residual(s, 4, 0)


def test_check_residuals_flags_the_nonzero_residuals(rng):
    # on a perturbed table, check_residuals lists exactly the addresses
    # where standalone residual_at calls are nonzero
    s = expand(_BACKGROUNDS["builtin:berger-s3?squash=2"], N=8)
    s._b[(5, 1)] = s.get_b(5, 1) + rand_one_form(rng, _FIELD)
    s._a[(4, 0)] = rand_one_form(rng, _FIELD)
    s._phi[(3, 1)] = rand_zero_form(rng, _FIELD)
    del s._a[(6, 1)]
    want = [(K, p, name) for K in range(1, 10) for p in range(s.max_p() + 1, -1, -1)
            for R, name in zip(residual_at(s, K, p), ("a", "b", "phi_y"))
            if (name != "b" or K <= 8) and not R.is_zero()]
    assert want and check_residuals(s) == want


_BERGER = "builtin:berger-s3?squash=2"


@pytest.mark.parametrize("bits", [64, 128])
def test_float_residual_is_the_exact_residual_rounded_once(bits, rng):
    # a float table's residual is the exact residual of its decimals (the
    # table read as rationals), each nonzero total rounded once, and it flags
    # the cells a perturbed b entry reaches
    field = FloatField(bits)
    s = expand(load_background(_BERGER, field), N=8)
    s._b[(5, 1)] = s.get_b(5, 1) + rand_one_form(rng, field)
    exact = from_json(to_json(s), background=_BACKGROUNDS[_BERGER])
    nonzero = 0
    for K in range(1, 10):
        for p in range(s.max_p() + 2):
            for got, want in zip(residual_at(s, K, p), residual_at(exact, K, p)):
                for g, w in zip(got.entries(), want.entries()):
                    if g:
                        nonzero += 1
                        assert g == field.from_fraction(w), (K, p)
    assert nonzero == 99
    assert check_residuals(s) == [(5, 1, "b"), (5, 0, "b"), (6, 1, "a"), (6, 1, "phi_y"),
                                  (7, 2, "b"), (8, 2, "a"), (8, 2, "phi_y"), (8, 1, "a"),
                                  (8, 1, "phi_y")]


@pytest.mark.parametrize("bits, tiny", [(64, "1e-20"), (128, "1e-36")])
def test_float_residual_scale_sums_its_terms(bits, tiny):
    # a float cell whose terms cancel below tolerance * their per-slot sum is
    # zero, though the cell stores nothing: Gamma of a nearly symmetric a (pole
    # rows, no phi_y stored) and a^a of a nearly rank-one a (pairs, no b
    # stored); a relative 1e-10 is flagged in both
    field = FloatField(bits)
    bg = load_background("builtin:flat", field)
    for delta, zero in ((Fraction(tiny), True), (Fraction(1, 10**10), False)):
        a = [i * j for i in (1, 2, 3) for j in (1, 2, 3)]  # u u^T, then antisymmetric delta
        a[1], a[3] = a[1] + delta, a[3] - delta
        s = PhgSeries(background=bg, order=2)
        s._a[(1, 0)] = GForm.from_entries(field, [field.from_fraction(v) for v in a])
        for R in (residual_at(s, 1, 0)[2], residual_at(s, 3, 0)[1]):
            assert (not any(R.entries())) == zero, (bits, delta)


#: The kernels and frame operators a form route would call.
_OPERATORS = ("L_op", "gamma_op", "e_bracket", "times", "star_wedge", "bracket_0_1",
              "star_bracket_star", "star_d", "star_d_omega", "d_omega", "d_omega_star",
              "_kernel_sum")


@pytest.mark.parametrize("bits", [64, 128])
def test_float_check_takes_one_route(bits, monkeypatch):
    # once a first check has built the columns, a float check is integer sums
    # over readings, on a kept table and on a fresh one: it calls no kernel
    # sum, kernel or frame operator
    bg = load_background(_BERGER, FloatField(bits))
    s = expand(bg, N=8)
    assert check_residuals(s) == []
    fresh = from_json(to_json(s), background=bg)

    def refuse(*args, **kwargs):
        raise AssertionError("the float residual took a form route")

    for module in (algebra, geometry, series_module):
        for name in _OPERATORS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert check_residuals(s) == [] and check_residuals(fresh) == []
