"""The exact solve step in integers: the closed-form solves and ``*d`` on
rational forms whose denominators widen the common divisor."""

from fractions import Fraction

from hypothesis import given, strategies as st

from nahmpole.algebra import (GForm, L_op, cal_L, e_bracket, gamma_op,
                              invert_cal_L, resolve_coupled)
from nahmpole.geometry import builtin, load_background, star_d
from nahmpole.scalars import RationalField

from conftest import CATALOG

_FIELD = RationalField()

#: Pairwise coprime entry denominators: each new one widens the divisor.
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)

_entry = st.builds(Fraction, st.integers(-30, 30), st.sampled_from(_PRIMES))
_one_form = st.lists(_entry, min_size=9, max_size=9).map(
    lambda v: GForm.from_entries(_FIELD, v))
_zero_form = st.lists(_entry, min_size=3, max_size=3).map(
    lambda v: GForm.from_entries(_FIELD, v))
_int_one_form = st.lists(st.integers(-30, 30), min_size=9, max_size=9).map(
    lambda v: GForm.from_entries(_FIELD, v))

#: The catalog, as listed and at a rational scale or squash, so the
#: structure constants bring denominators of their own.
_background = st.one_of(
    st.sampled_from([uri for uri, _ in CATALOG]).map(
        lambda uri: load_background(uri, _FIELD)),
    st.builds(lambda name, q: builtin(name, q, _FIELD),
              st.sampled_from(["round-s3", "hyperbolic-h3", "berger-s3"]),
              st.fractions(Fraction(1, 9), 9, max_denominator=9)))


def reference_star_d(c, x):
    """``(*dx)[a][m] = -1/2 sum x[a][i] c^i_jk eps_{jkm}``, term by term."""
    def eps(j, k, m):
        return (j - k) * (k - m) * (m - j) // 2
    return [-Fraction(1, 2) * sum(x.coeffs[a][i] * c[i][j][k] * eps(j, k, m)
                                  for i in range(3) for j in range(3)
                                  for k in range(3))
            for a in range(3) for m in range(3)]


@given(st.integers(2, 24), _one_form)
def test_invert_cal_L_round_trips(k, r):
    assert cal_L(k, invert_cal_L(k, r)) == r


@given(st.integers(2, 24), _one_form, _zero_form)
def test_resolve_coupled_solves_both_equations(k, R, S):
    a, phi = resolve_coupled(k + 1, R, S)
    assert a.scale(k + 1) - L_op(a) + e_bracket(phi) == R
    assert phi.scale(k + 1) + gamma_op(a) == S


@given(_background, st.one_of(_one_form, _int_one_form))
def test_star_d_is_the_eps_formula(bg, x):
    # int entries: the residual applies the frame operators to numerators
    got = star_d(bg, x)
    assert list(got.entries()) == reference_star_d(bg.c, x)
    assert all(type(v) is Fraction for v in got.entries())
