"""Where float arithmetic rounds, and what the exact verdicts leave unbuilt.

The float kernel sums of ``algebra._kernel_sum`` and the frame table of
``_float._star_d`` round through the methods of the field's context, not
through operators under an entered context.  Those methods round as the
operators do under that context, so a sum must come out digit for digit as
the operators give it inside ``decimal.localcontext(field.ctx)``, whatever
the thread's own context is.  The term coefficients of the engine's tables
are converted once per field, into a bounded table.
"""

import contextlib
import decimal
import json
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nahmpole import _float, cli, scalars
from nahmpole.algebra import (_TABLES, GForm, _kernel_sum, bracket_0_1, star_bracket_star,
                              star_wedge)
from nahmpole.geometry import einstein_undecided, is_einstein, load_background
from nahmpole.scalars import FloatField, RationalField
from nahmpole.series import expand

from conftest import SEED0_FREE_DATA


@contextlib.contextmanager
def hostile():
    """The thread's context at 3 digits, trapping any rounding, for the block."""
    with decimal.localcontext(decimal.Context(
            prec=3, traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation,
                           decimal.DivisionByZero, decimal.Overflow])):
        yield


def test_float_path_calls_star_d_through_the_module(monkeypatch):
    # test_series.py::test_float_residual_scale_covers_frame_products swaps
    # _float._star_d for another summation order; it is void unless the
    # float path reaches *dx through that module global
    calls = []
    real = _float._star_d

    def counted(field, terms, x):
        calls.append(terms)
        return real(field, terms, x)

    monkeypatch.setattr(_float, "_star_d", counted)
    bg = load_background("builtin:berger-s3?squash=2", FloatField(64))
    loaded = len(calls)
    expand(bg, N=6)
    assert 0 < loaded < len(calls)
    # every call reads the background's own frame: the *d terms of its c
    assert all(terms is bg._frame for terms in calls)
    assert bg._frame == _float._star_d_terms(bg.field, bg.c)


_value = st.one_of(st.just(0), st.builds(lambda n, d, e: Fraction(n, d) * Fraction(10) ** e,
                                         st.integers(-10**6, 10**6), st.integers(1, 97),
                                         st.integers(-40, 40)))
_entries = st.lists(_value, min_size=9, max_size=9)
_coefficient = st.sampled_from((1, -1, Fraction(1, 2), Fraction(-1, 2)))
_OPS = {1: (star_wedge, bracket_0_1), 0: (star_bracket_star,)}


def _reference(field, degree, terms):
    """The sum of ``terms`` by operators inside ``localcontext(field.ctx)``:
    a +-1 kernel term product by product into the slots in table order, any
    other term built whole, scaled, and added slot by slot."""
    slots = None
    with decimal.localcontext(field.ctx):
        for coefficient, x, op, y in terms:
            xs, ys = x.entries(), y.entries()
            unit = coefficient in (1, -1)
            sign = coefficient if unit else 1
            out = slots if unit and slots is not None else [field.zero] * (9 if degree else 3)
            for i, xi in enumerate(xs):
                if xi:
                    for j, o, s in _TABLES[op][i]:
                        if ys[j]:
                            out[o] = out[o] + xi * ys[j] if s == sign else out[o] - xi * ys[j]
            if not unit:
                half = field.from_fraction(coefficient)
                out = [v * half for v in out]
                out = out if slots is None else [s + v for s, v in zip(slots, out)]
            slots = out
    return slots


@given(st.sampled_from((64, 128)), st.sampled_from((0, 1)),
       st.lists(st.tuples(_coefficient, st.integers(0, 1), _entries, _entries),
                min_size=1, max_size=5))
def test_float_kernel_terms_round_as_the_operators(bits, degree, raw):
    field = FloatField(bits)
    terms = []
    for coefficient, pick, x, y in raw:
        op = _OPS[degree][pick % len(_OPS[degree])]
        x = x[:3] if op is bracket_0_1 else x
        terms.append((coefficient, GForm.from_entries(field, [field.from_fraction(v) for v in x]),
                      op, GForm.from_entries(field, [field.from_fraction(v) for v in y])))
    want = _reference(field, degree, terms)
    with hostile():
        got = _kernel_sum(field, 9 if degree else 3, terms)
    assert [v.as_tuple() for v in got.entries()] == [v.as_tuple() for v in want]


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_constants_are_fresh_divisions(bits):
    field = FloatField(bits)
    for q in (Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 3),
              Fraction(-1, 9), *range(-13, 0), *range(2, 14)):
        got = field.constant(q)
        want = field.ctx.divide(Decimal(q.numerator), Decimal(q.denominator))
        assert got.as_tuple() == want.as_tuple(), q
        assert field.constant(q) is got, q


def test_constant_table_stays_bounded(tmp_path):
    field = FloatField(64)
    expand(load_background("builtin:berger-s3?squash=2", field), N=12)
    kept = dict(field._constants)
    assert kept
    path = tmp_path / "free.json"
    path.write_text(json.dumps(SEED0_FREE_DATA))
    cli._load_free_data(str(path), field)
    for n in range(1, 200):
        field.parse(f"{n}/7")
        field.parse(f"{n}.25")
    assert field._constants == kept
    for n in range(1, 500):
        field.constant(Fraction(n, 11))
    assert len(field._constants) == scalars._CONSTANTS


@pytest.mark.parametrize("uri", ["builtin:round-s3", "builtin:berger-s3?squash=2"])
def test_exact_verdicts_build_no_entries(uri):
    # over exact scalars no zero test reads a scale, so neither the curvature
    # scale nor the undecided test builds the Fraction entries of W or *F
    bg = load_background(uri, RationalField())
    assert bg.W._coeffs is None and bg.starF._coeffs is None
    assert is_einstein(bg) is (uri == "builtin:round-s3")
    assert einstein_undecided(bg) is False
    assert bg.W._coeffs is None and bg.starF._coeffs is None
