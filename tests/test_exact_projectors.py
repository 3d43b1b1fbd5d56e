"""The exact projectors and the seed step in integers: ``project`` against
its closed forms on rational and int entries, the seed coefficients against
the chain of projections that defines them, in rational and float scalars,
and ``GForm`` subtraction against adding the negation."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nahmpole.algebra import EigenPart, GForm, L_op, gamma_op, project
from nahmpole.geometry import (builtin, d_omega_star, is_einstein,
                               load_background, star_d_omega)
from nahmpole.scalars import FloatField, RationalField
from nahmpole.series import FreeData, seed_leading

from conftest import CATALOG

_FIELD = RationalField()
_FIELDS = [RationalField(), FloatField(64), FloatField(128)]
_FIELD_IDS = ["rational", "f64", "f128"]

#: Entry denominators: 1 and pairwise coprime primes, so the common
#: divisor of a form widens with each new one.
_DENOMINATORS = (1, 2, 3, 5, 7, 11, 13, 17, 19, 23)

_entry = st.builds(Fraction, st.integers(-30, 30), st.sampled_from(_DENOMINATORS))
_entries = st.lists(_entry, min_size=9, max_size=9)
_one_form = _entries.map(lambda v: GForm.from_entries(_FIELD, v))
_int_one_form = st.lists(st.integers(-30, 30), min_size=9, max_size=9).map(
    lambda v: GForm.from_entries(_FIELD, v))

#: The catalog, as listed and at a rational scale or squash (so the
#: structure constants bring denominators of their own).
_BACKGROUNDS = [(uri, None) for uri, _ in CATALOG] + [
    ("round-s3", Fraction(2, 3)), ("hyperbolic-h3", Fraction(5, 4)),
    ("berger-s3", Fraction(3, 7))]


def closed_form(x, part):
    """The projection of ``x`` in plain ``Fraction`` arithmetic, entry by
    entry, in :meth:`GForm.entries` order."""
    c = [[Fraction(v) for v in row] for row in x.coeffs]
    third = (c[0][0] + c[1][1] + c[2][2]) / 3

    def entry(i, j):
        if part is EigenPart.Minus:
            return third if i == j else Fraction(0)
        if part is EigenPart.Zero:
            return (c[i][j] - c[j][i]) / 2
        return (c[i][j] + c[j][i]) / 2 - (third if i == j else 0)
    return [entry(i, j) for i in range(3) for j in range(3)]


def bits(form):
    """The entries of ``form`` as exactly compared values: a ``Fraction``
    itself, a float scalar its decimal digits and exponent."""
    return [v.as_tuple() if isinstance(v, Decimal) else v
            for v in form.entries()]


@given(st.one_of(_one_form, _int_one_form))
def test_project_is_its_closed_form(x):
    parts = {part: project(x, part) for part in EigenPart}
    for part, y in parts.items():
        assert list(y.entries()) == closed_form(x, part)
        assert all(type(v) is Fraction for v in y.entries())
        assert L_op(y) == y.scale(part.eigenvalue())
    assert parts[EigenPart.Minus] + parts[EigenPart.Zero] + parts[EigenPart.Plus] == x


def seed_formulas(bg, free):
    """The seed coefficients as the chain of projections, scalings and sums
    that defines them (see :func:`~nahmpole.series.seed_leading`), as
    ``{(table, k, p): form}``; a form the seed does not store is None."""
    plus, zero, minus = EigenPart.Plus, EigenPart.Zero, EigenPart.Minus
    starF, field = bg.starF, bg.field
    third = Fraction(1, 3)

    def stored(form, terms):
        scale = field.scale(v for t in terms for v in t.entries())
        return None if form.is_zero(scale) else form

    def read(form):
        return GForm.zero(field, 1) if form is None else form

    b11 = None if is_einstein(bg) else project(starF, plus)
    b1 = stored(free.c_plus + project(starF, zero).scale(Fraction(1, 2))
                + project(starF, minus).scale(third), [starF, free.c_plus])
    sdb11, dsb11 = star_d_omega(bg, read(b11)), d_omega_star(bg, read(b11))
    sdb1 = star_d_omega(bg, read(b1))
    a2 = (project(sdb11, plus).scale(Fraction(-1, 9))
          + project(sdb1, plus).scale(third)
          + free.c_zero + free.c_minus
          + project(sdb11, zero).scale(Fraction(-1, 3))
          + project(sdb1, zero))
    terms_21 = [sdb11, dsb11, read(b11)]
    terms_20 = [sdb11, sdb1, read(b11), read(b1), free.c_zero, free.c_minus]
    return {
        ("b", 1, 1): b11,
        ("b", 1, 0): b1,
        ("a", 2, 1): stored((project(sdb11, plus) + project(sdb11, zero)).scale(third),
                            terms_21),
        ("phi", 2, 1): stored(dsb11.scale(third), terms_21),
        ("a", 2, 0): stored(a2, terms_20),
        ("phi", 2, 0): stored(gamma_op(free.c_zero).scale(Fraction(-1, 2)), terms_20),
    }


@pytest.mark.parametrize("field", _FIELDS, ids=_FIELD_IDS)
@pytest.mark.parametrize("name,param", _BACKGROUNDS,
                         ids=[n.split(":")[-1] + (f"?{q}" if q else "") for n, q in _BACKGROUNDS])
@settings(max_examples=5)
@given(_entries, _entries, _entries)
def test_seed_is_its_formulas(field, name, param, plus, zero, minus):
    bg = load_background(name, field) if param is None else builtin(name, param, field)
    free = FreeData(field, **{
        key: GForm.from_entries(field, [
            field.from_fraction(v)
            for v in project(GForm.from_entries(_FIELD, rows), part).entries()])
        for key, rows, part in (("c_plus", plus, EigenPart.Plus),
                                ("c_zero", zero, EigenPart.Zero),
                                ("c_minus", minus, EigenPart.Minus))})
    series, formulas = seed_leading(bg, free), seed_formulas(bg, free)
    tables = {"a": series._a, "b": series._b, "phi": series._phi}
    for (table, k, p), want in formulas.items():
        got = tables[table].get((k, p))
        assert (got is None) == (want is None), (table, k, p)
        if got is not None:
            assert bits(got) == bits(want), (table, k, p)
    assert series.addresses() == sorted(
        {(k, p) for (_, k, p), want in formulas.items() if want is not None})


@pytest.mark.parametrize("field", _FIELDS, ids=_FIELD_IDS)
@given(st.sampled_from([0, 1]), _entries, _entries)
def test_difference_is_the_sum_with_the_negation(field, degree, u, v):
    x, y = (GForm.from_entries(field, [field.from_fraction(q) for q in w[:3 + 6 * degree]])
            for w in (u, v))
    assert bits(x - y) == bits(x + (-y))


def test_difference_of_degrees_raises():
    with pytest.raises(ValueError, match="degree mismatch"):
        GForm.zero(_FIELD, 1) - GForm.zero(_FIELD, 0)
    with pytest.raises(ValueError, match="degree mismatch"):
        GForm.zero(_FIELD, 0) - GForm.zero(_FIELD, 1)
