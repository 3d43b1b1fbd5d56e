"""The direct ``to_json`` writer against the document it replaced.

``to_json`` writes its text itself.  The oracle here is the construction it
replaced: a dict of lists of printed scalars, each rational rebuilt as a
``Fraction`` first, through ``json.dumps(doc, indent=2) + "\\n"``.  The
series are drawn with zero, negative, ``int`` and thousand-digit rational
entries, integer readings made by ``algebra._form`` whose entries were never
built (zero, negative and thousand-digit numerators, totals that share
factors with their denominator), 64- and 128-bit float entries (``-0`` and
exponents near both ends of the context's range among them), empty tables,
and background names that JSON must escape.
"""

import json
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from nahmpole.algebra import GForm, _form
from nahmpole.scalars import FloatField, RationalField
from nahmpole.series import PhgSeries, from_json, to_json

RATIONAL, FLOAT64, FLOAT128 = RationalField(), FloatField(64), FloatField(128)
NAMES = ('say "hi"', "back\\slash", "two\nlines", "café", "snow ☃")


def dumps_oracle(series):
    """The ``to_json`` the writer replaced: the document as a dict, then ``json.dumps``."""
    field = series.field

    def printed(v):
        if isinstance(field, RationalField):
            v = Fraction(v)
            return f"{v.numerator}/{v.denominator}"
        return field.format(v)

    def form(f):
        if f.degree == 0:
            return [printed(v) for v in f.coeffs]
        return [[printed(v) for v in row] for row in f.coeffs]

    entries = [{"k": k, "p": p, "a": form(series.get_a(k, p)),
                "b": form(series.get_b(k, p)), "phi_y": form(series.get_phi(k, p))}
               for k, p in series.addresses()]
    doc = {"background": series.background_name, "order": series.order,
           "entries": entries}
    return json.dumps(doc, indent=2) + "\n"


_small = st.integers(-10**6, 10**6)
_huge = st.builds(lambda sign, n: sign * n, st.sampled_from((1, -1)),
                  st.integers(10**1000, 10**1100))
_rationals = st.one_of(
    st.sampled_from((0, Fraction(0))), _small, _huge,
    st.builds(Fraction, st.one_of(_small, _huge),
              st.one_of(st.integers(1, 10**6), _huge.map(abs))))


def _readings(n):
    """``(totals, den)`` of an ``n``-slot reading: zero, negative and
    thousand-digit numerators, and a common factor of totals and ``den``
    that ``_form`` takes out."""
    return st.builds(lambda totals, den, f: ([t * f for t in totals], den * f),
                     st.lists(st.one_of(st.just(0), _small, _huge), min_size=n, max_size=n),
                     st.one_of(st.integers(1, 10**6), _huge.map(abs)), st.integers(1, 10**6))


def _decimals(field):
    """Field elements with at most the field's digits, so they print and
    parse back exactly; exponents near ``Emax``, near and below ``Emin``."""
    exponent = st.one_of(st.integers(-40, 40),
                         st.integers(field.ctx.Emax - 100, field.ctx.Emax - field.digits),
                         st.integers(field.ctx.Emin - field.digits - 40, field.ctx.Emin + 100))
    finite = st.builds(lambda sign, m, e: field.ctx.plus(Decimal(f"{sign}{m}E{e}")),
                       st.sampled_from("+-"), st.integers(0, 10**field.digits - 1), exponent)
    return st.one_of(st.sampled_from((Decimal(0), Decimal("-0"))), finite)


@st.composite
def series_specs(draw):
    """``(field, name, order, [(k, p, a, b, phi_y)])``; a form is a list of
    its entries, a ``(totals, den)`` reading, or None when it is absent."""
    field = draw(st.sampled_from((RATIONAL, FLOAT64, FLOAT128)))
    scalars = _rationals if field.exact else _decimals(field)
    name = draw(st.one_of(st.sampled_from(NAMES), st.text(max_size=8)))
    addresses = draw(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 5)),
                              unique=True, max_size=5))

    def form(n):
        listed = st.lists(scalars, min_size=n, max_size=n)
        return st.none() | (listed | _readings(n) if field.exact else listed)
    entries = [(k, p, *(draw(form(n)) for n in (9, 9, 3))) for k, p in addresses]
    return field, name, draw(st.integers(0, 30)), entries


def build(field, name, order, entries):
    """The series of a spec, stored as the solver and ``from_json`` store."""
    series = PhgSeries(field=field, order=order, background_name=name)
    for k, p, *values in entries:
        forms = [GForm.zero(field, degree) if v is None
                 else _form(field, *v) if type(v) is tuple else GForm.from_entries(field, v)
                 for v, degree in zip(values, (1, 1, 0))]
        series._store(k, p, forms, a=forms[0], b=forms[1], phi_y=forms[2])
    return series


def _tables(series):
    return series._a, series._b, series._phi


@settings(max_examples=30)
@given(series_specs())
@example((RATIONAL, 'q"\\\né☃', 12, [(3, 1, [0, -7, 10**1001, Fraction(-3, 10**1002 + 1),
                                                 Fraction(0), 5, -1, 2, 0], None, [0, 1, -1])]))
@example((FLOAT128, "☃", 4, [(2, 0, [Decimal("-0"), Decimal("1E+9999950"),
                                      Decimal("-1.5E-10000000"), Decimal("7E-10000040"),
                                      Decimal(0), Decimal("-3.25"), Decimal(1), Decimal(2),
                                      Decimal(3)], None, [Decimal("-0")] * 3)]))
@example((RATIONAL, "r", 5, [(1, 0, ([0, -4, 6 * 10**1000, 3, 0, -9, 0, 0, 12], 6), None,
                                ([0, 0, 0], 5)), (2, 1, None, ([-2, 0, 0] * 3, 1), ([7, 0, -7], 7))]))
@example((FLOAT64, "", 0, []))
def test_writer_matches_json_dumps_and_round_trips(spec):
    series = build(*spec)
    text = to_json(series)
    assert text == dumps_oracle(series)
    back = from_json(text, field=series.field)
    assert to_json(back) == text
    assert _tables(back) == _tables(series)
    assert (back.background_name, back.order) == (series.background_name, series.order)


@pytest.mark.parametrize("field", (RATIONAL, FLOAT64, FLOAT128), ids=repr)
@pytest.mark.parametrize("name", NAMES)
def test_empty_table_and_escaped_names(field, name):
    series = PhgSeries(field=field, order=7, background_name=name)
    text = to_json(series)
    assert text == dumps_oracle(series)
    assert '"entries": []' in text
    assert from_json(text, field=field).background_name == name


@pytest.mark.parametrize("value", (Decimal("0.125"), Decimal("-2.5E+3"), Decimal("-0"),
                                   0.1, -0.0, 1e300, -5e-324))
def test_rational_format_rebuilds_other_types(value):
    x = Fraction(value)
    assert RationalField().format(value) == f"{x.numerator}/{x.denominator}"
