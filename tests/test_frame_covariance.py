"""The expansion is covariant under a change of frame, exactly, and each
exact form holds its reading as integers from the moment it is made.

Rescaling the structure constants by ``s`` and rotating frame and gauge
together by ``R`` maps the order-k coefficient ``x`` of a 1-form to
``s^(k+1) R x R^T`` and of ``phi_y`` to ``s^(k+1) R x``, on the log-carrying
tables too, when the free data is mapped the same way (``c_plus`` sits at
order 1, ``c_zero`` and ``c_minus`` at order 2)."""

from decimal import Decimal
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, strategies as st

from nahmpole.algebra import EigenPart, GForm, project
from nahmpole.geometry import FrameBackground, is_einstein, load_background
from nahmpole.scalars import FloatField, RationalField
from nahmpole.series import FreeData, check_residuals, expand, is_log_free, to_json

from conftest import CATALOG, SEED0_FREE_DATA, cayley_rotation, frame_c

_FIELD = RationalField()
_R = cayley_rotation(Fraction(1, 3), Fraction(2, 7), Fraction(-3, 5))
_N = 10

#: The free-data slot, its eigenspace and the order it enters at.
_SLOTS = (("c_plus", EigenPart.Plus, 1), ("c_zero", EigenPart.Zero, 2),
          ("c_minus", EigenPart.Minus, 2))


def _rotate(form: GForm, s) -> GForm:
    """``s R x R^T`` of a 1-form, ``s R x`` of a 0-form, exactly."""
    R = _R
    if form.degree == 0:
        return GForm.zero_form(_FIELD, [
            s * sum(R[a][b] * form.coeffs[b] for b in range(3)) for a in range(3)])
    return GForm.one_form(_FIELD, [
        [s * sum(R[a][b] * form.coeffs[b][j] * R[i][j] for b in range(3) for j in range(3))
         for i in range(3)] for a in range(3)])


#: The seed-0 free data, projected onto the eigenspace of its slot.
_FREE = {key: project(GForm.one_form(_FIELD, [[Fraction(v) for v in row]
                                             for row in SEED0_FREE_DATA[key]]), part)
         for key, part, _ in _SLOTS}


def _moved_free_data(s):
    return FreeData(field=_FIELD, **{key: _rotate(_FREE[key], s ** (k + 1))
                                     for key, _, k in _SLOTS})


@pytest.mark.parametrize("s", [Fraction(3, 2), Fraction(2, 5)], ids=["s=3/2", "s=2/5"])
@pytest.mark.parametrize("uri", [uri for uri, _ in CATALOG],
                         ids=[uri.split(":")[1] for uri, _ in CATALOG])
def test_expansion_is_frame_covariant(uri, s):
    base = load_background(uri, _FIELD)
    moved = FrameBackground.from_structure_constants(
        f"{base.name}-moved", frame_c(base.c, s, _R), _FIELD)
    want = expand(base, FreeData(field=_FIELD, **_FREE), _N)
    got = expand(moved, _moved_free_data(s), _N)
    assert got.addresses() == want.addresses()
    for k, p in want.addresses():
        x, y = want.at(k, p), got.at(k, p)
        for name in ("a", "b", "phi_y"):
            assert getattr(y, name) == _rotate(getattr(x, name), s ** (k + 1)), (k, p, name)
    assert is_log_free(got) == is_einstein(moved)
    assert check_residuals(got) == []


_F128 = FloatField(128)


@pytest.mark.parametrize("s", [Fraction(3, 2), Fraction(2, 5)], ids=["s=3/2", "s=2/5"])
@pytest.mark.parametrize("uri", [uri for uri, _ in CATALOG],
                         ids=[uri.split(":")[1] for uri, _ in CATALOG])
def test_float128_tracks_exact_per_form_on_moved_frames(uri, s):
    # on a moved frame every entry of a form is filled, so the bound is per
    # form: |float - exact| <= 1e-30 * max |exact entry of the form|
    c = frame_c(load_background(uri, _FIELD).c, s, _R)
    free = _moved_free_data(s)
    free128 = FreeData(field=_F128, **{
        key: GForm.from_entries(_F128, [_F128.from_fraction(v)
                                        for v in getattr(free, key).entries()])
        for key, _, _ in _SLOTS})
    exact = expand(FrameBackground.from_structure_constants("moved", c, _FIELD), free, _N)
    got = expand(FrameBackground.from_structure_constants("moved", c, _F128), free128, _N)
    for k, p in sorted(set(exact.addresses()) | set(got.addresses())):
        for name in ("a", "b", "phi_y"):
            want = getattr(exact.at(k, p), name).entries()
            bound = Fraction(1, 10**30) * max(map(abs, want))
            have = getattr(got.at(k, p), name).entries()
            assert all(abs(Fraction(g) - w) <= bound for g, w in zip(have, want)), (k, p, name)


_entry = st.one_of(st.integers(-50, 50),
                   st.builds(Fraction, st.integers(-50, 50), st.integers(1, 40)))


@given(st.one_of(st.lists(_entry, min_size=3, max_size=3),
                 st.lists(_entry, min_size=9, max_size=9)))
def test_read_is_the_integer_view_made_once(entries):
    form = GForm.from_entries(_FIELD, entries)
    d = lcm(*(Fraction(v).denominator for v in entries))
    got = form._ints
    assert got == (tuple(Fraction(v).numerator * (d // Fraction(v).denominator)
                         for v in entries), d)
    form.entries()
    assert form._ints is got


def test_expand_is_pure():
    # the second call meets the background the first one used
    bg = load_background("builtin:berger-s3?squash=2", _FIELD)
    assert to_json(expand(bg, N=8)) == to_json(expand(bg, N=8))


def test_read_of_a_decimal_form_keeps_its_entries():
    form = GForm.from_entries(FloatField(64), [Decimal("1.5"), Decimal(0), Decimal("-2")])
    assert form._ints is None
    assert form.entries() == (Decimal("1.5"), Decimal(0), Decimal("-2"))
