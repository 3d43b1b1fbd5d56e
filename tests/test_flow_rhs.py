"""``oracle.flow_rhs`` and ``oracle.flow_residual`` read the compiled rows.

The right-hand side is checked against the kernel statement of the flow
(:mod:`flow_terms`): equal over rationals, and within a stated relative
round-off bound over ``FloatField`` backgrounds and native floats.  The
residual of the closed forms calls no kernel sum and no kernel, and a
kernel term that pairs exact with scalar operands is refused.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from nahmpole import algebra, geometry, oracle, series
from nahmpole.algebra import GForm, _kernel_sum, star_wedge
from nahmpole.geometry import load_background
from nahmpole.oracle import closed_solution, flow_residual, flow_rhs
from nahmpole.scalars import FloatField, RationalField

import flow_terms
from conftest import CATALOG, rand_one_form, rand_zero_form

#: The catalog, and a squash whose structure constants are no float64 numbers.
CASES = [uri for uri, _ in CATALOG] + ["builtin:berger-s3?squash=3/7"]
IDS = [uri.split(":")[1] for uri in CASES]


def _operands(rng):
    """Three rational ``y`` in (0, 9] with random exact ``(a, b, phi_y)`` each."""
    rat = RationalField()
    return [(Fraction(rng.randint(1, 9), rng.randint(1, 9)), rand_one_form(rng, rat),
             rand_one_form(rng, rat), rand_zero_form(rng, rat)) for _ in range(3)]


def _entries(forms):
    return [v for form in forms for v in form.entries()]


def _scale(y, forms, bg):
    """What a right-hand side entry is made of, in magnitude: ``1``, ``|*F|``,
    ``|v| / y`` and ``|v|^2``, with ``|v|`` the largest operand entry."""
    v = max(abs(Fraction(x)) for x in _entries(forms))
    return 1 + max(map(abs, bg.starF.entries())) + v / abs(Fraction(y)) + v * v


@pytest.mark.parametrize("uri", CASES, ids=IDS)
def test_exact_flow_rhs_is_the_kernel_statement(uri):
    bg = load_background(uri, RationalField())
    for y, *forms in _operands(random.Random(37)):
        got = flow_rhs(bg, y, *forms)
        assert _entries(got) == _entries(flow_terms.flow_rhs(bg, y, *forms))
        assert all(type(v) is Fraction for v in _entries(got))


@pytest.mark.parametrize("bits", [64, 128])
@pytest.mark.parametrize("uri", CASES, ids=IDS)
def test_float_flow_rhs_is_the_kernel_statement(uri, bits):
    # both sums round each term in the field's context, in different orders:
    # they agree to 10 units in the last of its digits, relative to _scale
    field = FloatField(bits)
    bg, rat_bg = load_background(uri, field), load_background(uri, RationalField())
    tol = Fraction(10, 10 ** (field.digits - 1))
    for y, *forms in _operands(random.Random(38)):
        floats = [GForm.from_entries(field, [field.from_fraction(v) for v in f.entries()])
                  for f in forms]
        yf = field.from_fraction(y)
        got, want = flow_rhs(bg, yf, *floats), flow_terms.flow_rhs(bg, yf, *floats)
        bound = tol * _scale(y, forms, rat_bg)
        for g, w in zip(_entries(got), _entries(want)):
            assert type(g) is type(w)
            assert abs(Fraction(g) - Fraction(w)) <= bound


@pytest.mark.parametrize("uri", CASES, ids=IDS)
def test_native_float_flow_rhs_is_the_kernel_statement(uri):
    # native float operands over the rational background: the kernel statement
    # of the same floats read exactly, to 2^-48 relative to _scale; so is the
    # integrator's float64 rhs, the same columns made dense, on the same 21 floats
    bg = load_background(uri, RationalField())
    rhs = oracle._flow_rhs(bg)
    for y, *forms in _operands(random.Random(39)):
        floats = [GForm.from_entries(bg.field, [float(v) for v in f.entries()]) for f in forms]
        exact = [GForm.from_entries(bg.field, [Fraction(v) for v in f.entries()])
                 for f in floats]
        yf = float(y)
        got = flow_rhs(bg, yf, *floats)
        want = flow_terms.flow_rhs(bg, Fraction(yf), *exact)
        bound = Fraction(1, 2 ** 48) * _scale(yf, floats, bg)
        dense = rhs(yf, np.array(_entries(floats))).tolist()
        for g, d, w in zip(_entries(got), dense, _entries(want)):
            assert isinstance(g, (float, Fraction))
            assert abs(Fraction(g) - w) <= bound
            assert abs(Fraction(d) - w) <= bound


#: The kernels and frame operators a form route would call.
_OPERATORS = ("L_op", "gamma_op", "e_bracket", "star_wedge", "bracket_0_1",
              "star_bracket_star", "star_d", "star_d_omega", "d_omega", "d_omega_star",
              "_kernel_sum")


def test_flow_residual_takes_one_route(monkeypatch):
    # once a first call has built the columns, the residual of a closed form is
    # sums over the compiled rows: no kernel sum, kernel or frame operator
    sols = [closed_solution(name) for name in ("s3", "hyperbolic")]
    points = (0.1, 0.5, 1.0, 2.0)
    want = [flow_residual(sol, y) for sol in sols for y in points]
    flat = closed_solution("flat")
    flow_residual(flat, Fraction(1, 3))

    def refuse(*args, **kwargs):
        raise AssertionError("the flow residual took a form route")

    for module in (algebra, geometry, series, oracle):
        for name in _OPERATORS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert [flow_residual(sol, y) for sol in sols for y in points] == want
    got = flow_residual(flat, Fraction(1, 3))
    assert got == (0, 0, 0) and all(type(r) is Fraction for r in got)


def test_exact_beside_scalar_operands_are_refused():
    rng, f64, rat = random.Random(40), FloatField(64), RationalField()
    exact, scalar = rand_one_form(rng, rat), rand_one_form(rng, f64)
    for field in (f64, rat):  # on either field, in either order, at any coefficient
        for c in (1, -1, Fraction(1, 2)):
            for x, y in ((exact, scalar), (scalar, exact)):
                with pytest.raises(TypeError, match="pairs an exact operand with a scalar"):
                    _kernel_sum(field, 9, [(c, x, star_wedge, y)])
