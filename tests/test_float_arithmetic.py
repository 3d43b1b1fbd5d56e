"""Where float arithmetic rounds, and what the exact verdicts leave unbuilt.

Every float body of :mod:`nahmpole._float` (the kernel sums of
``algebra._kernel_sum``, the frame table of ``star_d``, the frame operators,
the slot sums of ``_sum`` and ``residual_at``'s ``_rounded``) enters its
field's context once per call and rounds by the ``Decimal`` operators under
it, so each result must come out digit for digit as those operators give it
inside ``decimal.localcontext(field.ctx)``, whatever the thread's own context
is.  A coefficient enters a field only through ``from_fraction`` and an
element leaves it by ``Fraction(x)``: neither field offers the context's
methods, a table of converted constants or a second way in or out.
"""

import ast
import contextlib
import decimal
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from nahmpole import _float, scalars
from nahmpole.algebra import (_TABLES, EigenPart, GForm, _kernel_sum, bracket_0_1,
                              invert_cal_L, project, resolve_coupled, star_bracket_star,
                              star_wedge)
from nahmpole.geometry import (FrameBackground, d_omega_star, einstein_undecided, is_einstein,
                               load_background, star_d, star_d_omega)
from nahmpole.scalars import FloatField, RationalField
from nahmpole.series import expand, residual_at

from conftest import rand_frame_c, rand_one_form, rand_zero_form


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


def _residuals(bg, x, y):
    """``residual_at`` over every cell of a float table whose b at (3, 0) is off by ``x``,
    so the totals are not round-off and ``_rounded`` divides them."""
    table = expand(bg, N=4)
    table._b[(3, 0)] = table.get_b(3, 0) + x
    cells = [residual_at(table, K, p) for K in range(1, 6) for p in range(table.max_p() + 2)]
    return [R for cell in cells if cell is not table._zeros for R in cell]


def _sum_and_parts(bg, x, y):
    """``_float._sum`` of an image and of terms with each kind of coefficient: its total
    and its parts."""
    total, parts = _float._sum(bg.field, 1, [(1, x), (-1, y), (Fraction(-1, 9), x), (3, y)],
                               [(star_d_omega, y)], bg)
    return [total, *parts]


#: Each float body whose rounding route is stated here: its results on a background, a
#: degree-1 form ``x`` and a second one ``y``, as forms or slot lists.
_BODIES = {
    "star_d": lambda bg, x, y: [_float.star_d(bg, x)],
    "star_d_omega": lambda bg, x, y: [_float.star_d_omega(bg, x)],
    "d_omega_star": lambda bg, x, y: [_float.d_omega_star(bg, x)],
    "_sum": _sum_and_parts,
    "_rounded": _residuals,
}


@pytest.mark.parametrize("bits", [64, 128])
@pytest.mark.parametrize("body", list(_BODIES))
def test_float_bodies_round_in_their_context(body, bits):
    # on a rotated h2xr, every c^k_ij is filled and the frame is not unimodular,
    # so the trace terms of d_omega_star are read too
    rng, field = random.Random(bits), FloatField(bits)
    bg = FrameBackground.from_structure_constants(
        "rotated-h2xr", rand_frame_c(rng, "builtin:h2xr"), field)
    x, y = rand_one_form(rng, field), rand_one_form(rng, field)

    def digits():
        return [v.as_tuple() for out in _BODIES[body](bg, x, y)
                for v in (out.entries() if isinstance(out, GForm) else out)]

    with decimal.localcontext(field.ctx):
        want = digits()
    with hostile():
        got = digits()
    assert got == want and any(t.digits != (0,) for t in want)


def test_one_rounding_route():
    # neither field offers its context's methods or a table of converted
    # constants, and _float reaches no decimal context but through ``context``
    for field in (RationalField(), FloatField(64)):
        assert not hasattr(field, "ops") and not hasattr(field, "constant"), field
        # one way in, and no conversion out: an element leaves by Fraction(x)
        assert [a for a in dir(field) if a.startswith(("from_", "to_"))] == ["from_fraction"]
    assert not hasattr(FloatField(64), "_constants") and not hasattr(scalars, "_CONSTANTS")
    tree = ast.parse(Path(_float.__file__).read_text())
    assert not [ast.unparse(n) for n in ast.walk(tree)
                if isinstance(n, ast.Attribute) and n.attr in {"ctx", "ops", "constant"}
                or isinstance(n, ast.Name) and n.id in {"ctx", "decimal", "localcontext"}
                or isinstance(n, ast.withitem) and n.optional_vars is not None]


@pytest.mark.parametrize("bits", [64, 128])
def test_each_float_call_enters_one_context(bits, monkeypatch):
    # a helper (_products, _star_d) computes under its caller's context, and no
    # body enters a second one around a helper's work
    entered, real = [], _float.context

    def counted(field):
        entered.append(field)
        return real(field)

    rng, field = random.Random(bits), FloatField(bits)
    bg = load_background("builtin:berger-s3?squash=2", field)
    x, y, z = rand_one_form(rng, field), rand_one_form(rng, field), rand_zero_form(rng, field)
    calls = {"star_d": lambda: star_d(bg, x), "star_d_omega": lambda: star_d_omega(bg, x),
             "d_omega_star": lambda: d_omega_star(bg, x),
             **{f"project {part.name}": lambda part=part: project(x, part)
                for part in EigenPart},
             "invert_cal_L": lambda: invert_cal_L(5, x),
             "resolve_coupled int": lambda: resolve_coupled(4, x, z),
             "resolve_coupled Fraction": lambda: resolve_coupled(Fraction(7, 2), x, z),
             "star_wedge": lambda: star_wedge(x, y), "+": lambda: x + y,
             "scale": lambda: x.scale(Fraction(-1, 3)), "trace": x.trace}
    monkeypatch.setattr(_float, "context", counted)
    for name, call in calls.items():
        entered.clear()
        call()
        assert entered == [field], name


@pytest.mark.parametrize("uri", ["builtin:round-s3", "builtin:berger-s3?squash=2"])
def test_exact_verdicts_build_no_entries(uri):
    # over exact scalars no zero test reads a scale, so neither the curvature
    # scale nor the undecided test builds the Fraction entries of W or *F
    bg = load_background(uri, RationalField())
    assert bg.W._coeffs is None and bg.starF._coeffs is None
    assert is_einstein(bg) is (uri == "builtin:round-s3")
    assert einstein_undecided(bg) is False
    assert bg.W._coeffs is None and bg.starF._coeffs is None
