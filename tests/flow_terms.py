"""The flow equations stated as kernel calls on the term tables.

:func:`flow_rhs` sums ``POLE_TERMS``, ``FRAME_TERMS`` and ``PAIR_TERMS`` of
:mod:`nahmpole.geometry` at a point, one operator or kernel call per term,
with the forms' own ``+``, ``scale`` and ``divide``.  The package compiles
those tables once to the integer rows that ``oracle.flow_rhs``,
``series.residual_at`` and the integrator read; this statement stays here as
the independent side of the tests that check the rows against it.
"""

from nahmpole.algebra import GForm
from nahmpole.geometry import FRAME_TERMS, PAIR_TERMS, POLE_TERMS


def flow_rhs(bg, y, a, b, phi_y):
    """Right-hand side of the flow in ``(a, b, phi_y)``, three forms over
    ``bg.field``: the pole rows, divided by ``y`` once per equation, then
    ``*F_w``, the frame rows and the pair rows.  Exact over exact scalars; over
    floats each term is built whole, scaled and added, rounding as it goes."""
    v, field = (a, b, phi_y), bg.field
    pole = [GForm.zero(field, x.degree) for x in v]
    for i, op, j, coefficient in POLE_TERMS:
        pole[i] = pole[i] + op(v[j]).scale(coefficient)
    out = [p.divide(y) for p in pole]
    out[1] = out[1] + bg.starF
    for i, op, j, coefficient in FRAME_TERMS:
        out[i] = out[i] + op(bg, v[j]).scale(coefficient)
    for i, op, (j, k), coefficient in PAIR_TERMS:
        out[i] = out[i] + op(v[j], v[k]).scale(coefficient)
    return tuple(out)
