"""The integer derivation of an exact background against the scalar route.

Over exact scalars ``FrameBackground.from_structure_constants`` reads ``c``
once as integer numerators over one denominator and derives ``conn``, ``W``
and ``*F`` on them.  The oracle is the scalar route the float backgrounds
still take: :func:`levi_civita`, :func:`connection_form` and
``_float._star_d`` plus ``1/2 *[W, W]^``, in ``Fraction`` arithmetic.
"""

import itertools
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from nahmpole import _float, cli
from nahmpole.algebra import EigenPart, GForm, _ratios, project, star_wedge
from nahmpole.geometry import (FrameBackground, connection_form, levi_civita,
                               load_background)
from nahmpole.scalars import FloatField, RationalField

from conftest import rand_antisym_c, rand_frame_c

FIELD = RationalField()
RICCI = ("curvature has an antisymmetric Ricci part; the structure "
         "constants do not define a homogeneous Riemannian geometry")


def _scalar_route(c):
    """``(conn, W, *F)`` of ``c`` by the scalar formulas."""
    conn = levi_civita(FIELD, c)
    W, terms = connection_form(FIELD, conn), _float._star_d_terms(FIELD, c)
    starF = (GForm.from_entries(FIELD, _float._star_d(FIELD, terms, W))
             + star_wedge(W, W).scale(Fraction(1, 2)))
    return conn, W, starF


def _scalar_refusal(c):
    """The message the scalar route refuses ``c`` with, or None."""
    for k, i, j in itertools.product(range(3), repeat=3):
        if c[k][i][j] + c[k][j][i]:
            return f"structure constants not antisymmetric at c^{k}_{{{i}{j}}}"
    starF = _scalar_route(c)[2]
    return None if project(starF, EigenPart.Zero).is_zero() else RICCI


def _write(path, c):
    path.write_text(json.dumps({"name": "drawn", "volume": None, "c": [
        [[f"{v.numerator}/{v.denominator}" for v in row] for row in plane] for plane in c]}))
    return str(path)


@st.composite
def _frames(draw):
    """A background: a random frame, or one whose ``c`` carries a drawn
    denominator up to about 1e30, read from a background file."""
    c = rand_frame_c(random.Random(draw(st.integers(0, 10**6))))
    if not draw(st.booleans()):
        return FrameBackground.from_structure_constants("drawn", c)
    s = Fraction(draw(st.integers(1, 10**30)), draw(st.integers(1, 10**30)))
    with tempfile.TemporaryDirectory() as tmp:
        return load_background(_write(Path(tmp) / "bg.json",
                                      [[[s * v for v in row] for row in plane]
                                       for plane in c]))


@given(_frames())
def test_integer_derivation_is_the_scalar_route(bg):
    conn, W, starF = _scalar_route(bg.c)
    assert bg.conn == conn
    assert bg.W == W
    assert bg.starF == starF
    for form in (bg.W, bg.starF):  # each reads canonically
        assert form._ints == _ratios(form.entries())


@given(st.integers(0, 10**6), st.none() | st.tuples(*[st.integers(0, 2)] * 3))
def test_refusals_are_the_scalar_route(seed, broken):
    c = rand_antisym_c(random.Random(seed))
    if broken:
        k, i, j = broken
        c[k][i][j] += 1
    want = _scalar_refusal(c)
    if want is None:
        FrameBackground.from_structure_constants("drawn", c)
    else:
        with pytest.raises(ValueError) as info:
            FrameBackground.from_structure_constants("drawn", c)
        assert str(info.value) == want


def _non_jacobi_c():
    """``c^1_12 = c^2_23 = 1``: antisymmetric, but no Lie algebra's."""
    c = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    for k, i, j in ((0, 0, 1), (1, 1, 2)):
        c[k][i][j], c[k][j][i] = Fraction(1), Fraction(-1)
    return c


@pytest.mark.parametrize("field", (FIELD, FloatField(128)), ids=repr)
def test_antisymmetric_ricci_part_is_refused(field):
    with pytest.raises(ValueError) as info:
        FrameBackground.from_structure_constants("bad", _non_jacobi_c(), field)
    assert str(info.value) == RICCI


def test_cli_refuses_antisymmetric_ricci_part(capsys, tmp_path):
    path = _write(tmp_path / "bad.json", _non_jacobi_c())
    assert cli.main(["expand", "--background", path]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"cannot load background: {RICCI}"]
