"""The flow equations stated as kernel calls on the term tables.

:func:`flow_rhs` sums ``POLE_TERMS``, ``FRAME_TERMS`` and ``PAIR_TERMS`` of
:mod:`nahmpole.geometry` at a point, one operator or kernel call per term,
through ``FormSum``.  The package compiles those tables once to the integer
rows that ``oracle.flow_rhs``, ``series.residual_at`` and the integrator
read; this statement stays here as the independent side of the tests that
check the rows against it.
"""

from nahmpole.algebra import FormSum
from nahmpole.geometry import FRAME_TERMS, PAIR_TERMS, POLE_TERMS


def flow_rhs(bg, y, a, b, phi_y):
    """Right-hand side of the flow in ``(a, b, phi_y)``, three forms over
    ``bg.field``: the pole rows, divided by ``y`` once per equation, then
    ``*F_w``, the frame rows and the pair rows.  Exact over exact scalars; over
    floats each term rounds as ``FormSum`` rounds it."""
    v, field = (a, b, phi_y), bg.field
    pole = [FormSum(field, x.degree) for x in v]
    for i, op, j, coefficient in POLE_TERMS:
        pole[i].add(coefficient, op(v[j]))
    out = [FormSum(field, x.degree).add(1, p.form().divide(y)) for x, p in zip(v, pole)]
    out[1].add(1, bg.starF)
    for i, op, j, coefficient in FRAME_TERMS:
        out[i].add(coefficient, op(bg, v[j]))
    for i, op, (j, k), coefficient in PAIR_TERMS:
        out[i].add(coefficient, v[j], op, v[k])
    return tuple(total.form() for total in out)
