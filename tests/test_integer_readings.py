"""Exact kernels hand integer readings to each other.

Each exact kernel returns its result as an integer reading (numerators over
one denominator) and builds ``Fraction`` entries only when they are read.
The oracle is plain ``Fraction`` arithmetic of each definition, term by
term.  Every result must have the oracle's entries, and a reading equal to
the one :func:`nahmpole.algebra._ratios` makes of those entries, which a
fresh form holds: the denominator positive and sharing no factor with every
numerator.  The forms are drawn with ints, negatives, zero slots and
thousand-digit entries.
"""

import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nahmpole.algebra import (
    _EPS, EigenPart, GForm, L_op, _form, _kernel_sum, _ratios, bracket_0_1, e_bracket,
    gamma_op, invert_cal_L, project, resolve_coupled, star_bracket_star, star_wedge, vierbein,
)
from nahmpole.geometry import (builtin, d_omega, d_omega_star, load_background, star_d,
                               star_d_omega)
from nahmpole.scalars import FloatField, RationalField
from nahmpole.series import _sum, expand

from conftest import CATALOG, rand_one_form, rand_zero_form

_FIELD = RationalField()

_huge = st.builds(lambda sign, n: sign * n, st.sampled_from((1, -1)),
                  st.integers(10**999, 10**1000))
_numerator = st.one_of(st.just(0), st.integers(-40, 40), _huge)
_entry = st.one_of(st.just(0), st.integers(-40, 40), _huge,
                   st.builds(Fraction, _numerator,
                             st.one_of(st.integers(1, 60), _huge.map(abs))))
_one_form = st.lists(_entry, min_size=9, max_size=9)
_zero_form = st.lists(_entry, min_size=3, max_size=3)
_background = st.one_of(
    st.sampled_from([uri for uri, _ in CATALOG]).map(lambda uri: load_background(uri, _FIELD)),
    st.builds(lambda name, q: builtin(name, q, _FIELD),
              st.sampled_from(["round-s3", "hyperbolic-h3", "berger-s3"]),
              st.fractions(Fraction(1, 9), 9, max_denominator=9)))


def eps(i, j, k):
    return (i - j) * (j - k) * (k - i) // 2


def form(entries):
    return GForm.from_entries(_FIELD, list(entries))


def assert_reads_as(got, want):
    """``got`` holds the oracle's values ``want`` and their canonical reading."""
    reading = got._ints
    assert reading == _ratios(want)
    assert reading[1] > 0
    assert list(got.entries()) == [Fraction(v) for v in want]


# -- the plain-Fraction oracle ----------------------------------------------

def o_star_wedge(x, y):
    return [sum(eps(i, j, k) * eps(a, b, c) * Fraction(x[3 * a + i]) * y[3 * b + j]
                for i in range(3) for j in range(3) for a in range(3) for b in range(3))
            for c in range(3) for k in range(3)]


def o_bracket_0_1(phi, x):
    return [sum(eps(a, b, c) * Fraction(phi[a]) * x[3 * b + i]
                for a in range(3) for b in range(3)) for c in range(3) for i in range(3)]


def o_star_bracket_star(x, y):
    return [sum(eps(a, b, c) * Fraction(x[3 * a + i]) * y[3 * b + i]
                for a in range(3) for b in range(3) for i in range(3)) for c in range(3)]


def o_trace(x):
    return Fraction(x[0]) + x[4] + x[8]


def o_L(x):
    return [(o_trace(x) if r == s else 0) - Fraction(x[3 * s + r])
            for r in range(3) for s in range(3)]


def o_project(x, part):
    third = o_trace(x) / 3
    if part is EigenPart.Minus:
        return [third if i == j else 0 for i in range(3) for j in range(3)]
    if part is EigenPart.Zero:
        return [(Fraction(x[3 * i + j]) - x[3 * j + i]) / 2 for i in range(3) for j in range(3)]
    return [(Fraction(x[3 * i + j]) + x[3 * j + i]) / 2 - (third if i == j else 0)
            for i in range(3) for j in range(3)]


def o_invert_cal_L(k, r):
    return [Fraction(r[4 * i]) / (k - 1) - o_trace(r) / ((k + 2) * (k - 1)) if i == j
            else (k * Fraction(r[3 * i + j]) + r[3 * j + i]) / (k * k - 1)
            for i in range(3) for j in range(3)]


def o_resolve_coupled(lam, R, S):
    t, d = o_trace(R) / 3, Fraction((lam - 2) * (lam + 1))
    a, phi = [None] * 9, [None] * 3
    for i in range(3):
        a[4 * i] = (R[4 * i] - t) / (lam + 1) + t / (lam - 2)
    for i, j, m, _ in _EPS[:3]:
        theta = (Fraction(R[3 * i + j]) - R[3 * j + i]) / 2
        sym = (Fraction(R[3 * i + j]) + R[3 * j + i]) / (2 * (lam + 1))
        a[3 * i + j] = sym + (lam * theta - S[m]) / d
        a[3 * j + i] = sym - (lam * theta - S[m]) / d
        phi[m] = ((lam - 1) * Fraction(S[m]) - 2 * theta) / d
    return a, phi


def o_star_d(bg, x):
    return [-Fraction(1, 2) * sum(x[3 * a + i] * bg.c[i][j][k] * eps(j, k, m)
                                  for i in range(3) for j in range(3) for k in range(3))
            for a in range(3) for m in range(3)]


def o_d_omega_star(bg, x):
    W = list(bg.W.entries())
    trace = [sum(x[3 * a + i] * bg.c[k][i][k] for i in range(3) for k in range(3))
             for a in range(3)]
    return [t - s for t, s in zip(trace, o_star_bracket_star(W, x))]


# -- the kernels ---------------------------------------------------------------

@given(_one_form, _one_form, _zero_form)
def test_bilinear_kernels(x, y, phi):
    assert_reads_as(star_wedge(form(x), form(y)), o_star_wedge(x, y))
    assert_reads_as(bracket_0_1(form(phi), form(x)), o_bracket_0_1(phi, x))
    assert_reads_as(star_bracket_star(form(x), form(y)), o_star_bracket_star(x, y))


@given(_one_form, _zero_form)
def test_linear_kernels(x, phi):
    assert_reads_as(L_op(form(x)), o_L(x))
    for part in EigenPart:
        assert_reads_as(project(form(x), part), o_project(x, part))
    e = [1, 0, 0, 0, 1, 0, 0, 0, 1]
    assert_reads_as(e_bracket(form(phi)), [-v for v in o_bracket_0_1(phi, e)])
    assert_reads_as(gamma_op(form(x)), o_star_bracket_star(x, e))


def _kernel_gamma_and_e_bracket(x, phi):
    """``Gamma(x)`` and ``[e, phi]`` by their kernel definitions on the vierbein."""
    e = vierbein(x.field)
    return (star_bracket_star(x, e),
            _kernel_sum(phi.field, 9, [(-1, phi, bracket_0_1, e)]))


@given(_one_form, _zero_form)
def test_gamma_and_e_bracket_are_their_kernel_definitions(x, phi):
    got = gamma_op(form(x)), e_bracket(form(phi))
    for g, want in zip(got, _kernel_gamma_and_e_bracket(form(x), form(phi))):
        assert g._ints == want._ints and g == want


@pytest.mark.parametrize("bits", [64, 128])
def test_float_gamma_and_e_bracket_are_their_kernel_definitions(bits):
    # over floats the two keep the kernel route: the same entries, bit for bit
    field, rng = FloatField(bits), random.Random(bits)
    for _ in range(40):
        x, phi = rand_one_form(rng, field), rand_zero_form(rng, field)
        for g, want in zip((gamma_op(x), e_bracket(phi)), _kernel_gamma_and_e_bracket(x, phi)):
            assert list(g.entries()) == list(want.entries())
            assert all(type(v) is Decimal for v in g.entries())


@given(st.integers(-30, 30).filter(lambda k: k not in (-2, -1, 1)), _one_form)
def test_invert_cal_L(k, r):
    assert_reads_as(invert_cal_L(k, form(r)), o_invert_cal_L(k, r))


@given(st.one_of(st.integers(-30, 30), st.fractions(-30, 30, max_denominator=30)).filter(
    lambda lam: lam not in (2, -1)), _one_form, _zero_form)
def test_resolve_coupled(lam, R, S):
    a, phi = resolve_coupled(lam, form(R), form(S))
    want_a, want_phi = o_resolve_coupled(lam, R, S)
    assert_reads_as(a, want_a)
    assert_reads_as(phi, want_phi)


@given(_background, _one_form, _zero_form)
def test_frame_operators(bg, x, phi):
    W = list(bg.W.entries())
    assert_reads_as(star_d(bg, form(x)), o_star_d(bg, x))
    assert_reads_as(star_d_omega(bg, form(x)),
                    [s + w for s, w in zip(o_star_d(bg, x), o_star_wedge(W, x))])
    assert_reads_as(d_omega_star(bg, form(x)), o_d_omega_star(bg, x))
    assert_reads_as(d_omega(bg, form(phi)), [-v for v in o_bracket_0_1(phi, W)])


_coefficient = st.one_of(st.sampled_from((1, -1, Fraction(1, 2), Fraction(-1, 2))),
                         _entry.filter(bool))


@given(st.lists(st.tuples(_coefficient, st.sampled_from(("x", "L", "wedge")),
                          _one_form, _one_form), min_size=1, max_size=4))
def test_form_sum(terms):
    # plain terms and L_op images summed by the solver's series._sum, and the
    # kernel terms by _kernel_sum: each sum, and the two added, read as the oracle's
    linear, kernel, want = [], [], [[Fraction(0)] * 9 for _ in range(2)]
    for coefficient, kind, x, y in terms:
        if kind == "x":
            linear.append((coefficient, form(x)))
            term, i = x, 0
        elif kind == "L":
            linear.append((coefficient, L_op(form(x))))
            term, i = o_L(x), 0
        else:
            kernel.append((coefficient, form(x), star_wedge, form(y)))
            term, i = o_star_wedge(x, y), 1
        want[i] = [w + coefficient * Fraction(v) for w, v in zip(want[i], term)]
    got = _sum(_FIELD, 1, linear)[0], _kernel_sum(_FIELD, 9, kernel)
    for g, w in zip(got, want):
        assert_reads_as(g, w)
    assert_reads_as(got[0] + got[1], [a + b for a, b in zip(*want)])


def test_a_decimal_form_gets_no_reading():
    field = FloatField(64)
    x = GForm.from_entries(field, [Decimal(v) for v in "1 -2 0 3 0.5 7 0 -1 2".split()])
    for got in (L_op(x), project(x, EigenPart.Plus), invert_cal_L(3, x),
                *resolve_coupled(4, x, GForm.zero(field, 0))):
        assert got._ints is None
        assert all(type(v) is Decimal for v in got.entries())


@pytest.mark.parametrize("uri", [uri for uri, _ in CATALOG])
def test_stored_forms_read_canonically(uri):
    series = expand(load_background(uri, _FIELD), N=12)
    for table in (series._a, series._b, series._phi):
        for f in table.values():
            assert f._ints == _ratios(f.entries())


@pytest.mark.parametrize("uri", [uri for uri, _ in CATALOG])
def test_zero_test_leaves_a_stored_reading_unread(uri):
    # the zero test of a stored form reads its numerators alone; the entries
    # built afterwards give the same verdict
    series = expand(load_background(uri, _FIELD), N=12)
    cases = [(f, False) for table in (series._a, series._b, series._phi)
             for f in table.values()]
    cases += [(_form(_FIELD, [0] * n, 7), True) for n in (9, 3)]
    for f, zero in cases:
        assert f._coeffs is None
        assert f.is_zero() is zero
        assert f._coeffs is None
        assert all(v == 0 for v in f.entries()) is zero
