"""The exact residual's compiled integer rows against the term rows they are
compiled from, and its stored address readings against replaced entries."""

from fractions import Fraction

from hypothesis import given, strategies as st

from nahmpole import series as series_module
from nahmpole.algebra import GForm
from nahmpole.geometry import (_PAIR_4Q, _POLE_COLUMNS, FRAME_TERMS, PAIR_TERMS, POLE_TERMS,
                               _Columns, builtin, load_background)
from nahmpole.scalars import RationalField
from nahmpole.series import PhgSeries, check_residuals, expand, residual_at

from conftest import CATALOG
from test_residual_sums import plain_residual

_FIELD = RationalField()
_BLOCKS = ((0, 9), (9, 18), (18, 21))
_vector = st.lists(st.integers(-60, 60), min_size=21, max_size=21)


def _forms(v):
    """The ``a``, ``b`` and ``phi_y`` forms of a 21-slot vector."""
    return [GForm.from_entries(_FIELD, [Fraction(n) for n in v[lo:hi]]) for lo, hi in _BLOCKS]


def _total(rows, scale):
    """``scale`` times the sum of ``coefficient * form`` over the ``(equation,
    coefficient, form)`` of ``rows``, summed as forms, as 21 Fractions."""
    out = [GForm.zero(_FIELD, 1), GForm.zero(_FIELD, 1), GForm.zero(_FIELD, 0)]
    for i, c, form in rows:
        out[i] = out[i] + form.scale(Fraction(scale * c))
    return [e for form in out for e in form.entries()]


def _pairs(v1, v2, scale):
    """``scale Q(v1, v2)``: each pair row through its kernel."""
    x, y = _forms(v1), _forms(v2)
    return _total([(i, c, op(x[j1], y[j2])) for i, op, (j1, j2), c in PAIR_TERMS], scale)


def _apply(table, v1, v2):
    acc = [0] * 21
    for u, x in enumerate(v1):
        for w, y in enumerate(v2):
            for o, c in table[u].get(w, ()):
                acc[o] += c * x * y
    return acc


@given(_vector, _vector)
def test_pair_tables_are_the_pair_rows_in_both_orders(v1, v2):
    # 4Q is symmetric: twice the pair rows in both orders, four times on the diagonal
    assert _apply(_PAIR_4Q, v1, v2) == [s + t for s, t in zip(_pairs(v1, v2, 2),
                                                              _pairs(v2, v1, 2))]
    assert _apply(_PAIR_4Q, v1, v2) == _apply(_PAIR_4Q, v2, v1)
    assert _apply(_PAIR_4Q, v1, v1) == _pairs(v1, v1, 4)
    assert all(type(c) is int for row in _PAIR_4Q for terms in row.values() for _, c in terms)


#: The catalog and a berger squash whose frame operators carry denominators.
_BACKGROUNDS = [load_background(uri, _FIELD) for uri, _ in CATALOG] + [
    builtin("berger-s3", Fraction(3, 7), _FIELD)]


@given(_vector, st.sampled_from(_BACKGROUNDS))
def test_unit_rows_are_the_pole_and_frame_rows(v, bg):
    x = _forms(v)
    for columns, want in (
            (_POLE_COLUMNS, [(i, c, op(x[j])) for i, op, j, c in POLE_TERMS]),
            (bg._columns, [(i, c, op(bg, x[j])) for i, op, j, c in FRAME_TERMS])):
        got = [Fraction(0)] * 21
        for u, n in enumerate(v):
            rows, den = columns[u]
            assert type(den) is int and all(type(c) is int for _, c in rows)
            for o, c in rows:
                got[o] += Fraction(c * n, den)
        assert got == _total(want, 1)


def test_pole_columns_are_frozen():
    # M1 on each unit slot: L on a, -[e, phi_y] into a, -L on b, -Gamma(a) into phi_y
    want = {
        0: ([(4, 1), (8, 1)], 1), 1: ([(3, -1), (20, -1)], 1), 2: ([(6, -1), (19, 1)], 1),
        3: ([(1, -1), (20, 1)], 1), 4: ([(0, 1), (8, 1)], 1), 5: ([(7, -1), (18, -1)], 1),
        6: ([(2, -1), (19, -1)], 1), 7: ([(5, -1), (18, 1)], 1), 8: ([(0, 1), (4, 1)], 1),
        9: ([(13, -1), (17, -1)], 1), 10: ([(12, 1)], 1), 11: ([(15, 1)], 1),
        12: ([(10, 1)], 1), 13: ([(9, -1), (17, -1)], 1), 14: ([(16, 1)], 1),
        15: ([(11, 1)], 1), 16: ([(14, 1)], 1), 17: ([(9, -1), (13, -1)], 1),
        18: ([(5, -1), (7, 1)], 1), 19: ([(2, 1), (6, -1)], 1), 20: ([(1, -1), (3, 1)], 1),
    }
    for columns in (_POLE_COLUMNS, _Columns(POLE_TERMS)):
        assert {u: columns[u] for u in range(21)} == want


def test_coprime_components_and_a_self_pair():
    # one address holds a, b and phi_y over the coprime denominators 3, 5
    # and 7, and (2, 1) pairs with itself in the cell (5, 2)
    bg = builtin("berger-s3", Fraction(3, 7), _FIELD)
    s = PhgSeries(background=bg, order=5)
    for (k, p), dens in (((1, 0), (3, 5, 7)), ((2, 1), (5, 7, 11)), ((3, 1), (2, 3, 13))):
        a, b, phi = (GForm.from_entries(_FIELD, [Fraction((3 * n + k) % 5 - 2, d)
                                                 for n in range(size)])
                     for size, d in zip((9, 9, 3), dens))
        s._store(k, p, [a, b, phi], a=a, b=b, phi_y=phi)
    for K in range(1, 7):
        for p in range(4):
            assert residual_at(s, K, p) == plain_residual(s, K, p), (K, p)
    assert residual_at(s, 5, 2) != (GForm.zero(_FIELD, 1),) * 2 + (GForm.zero(_FIELD, 0),)


def _all_cells_agree(s):
    return all(residual_at(s, K, p) == plain_residual(s, K, p)
               for K in range(1, s.order + 2) for p in range(s.max_p() + 2))


def test_stored_readings_follow_the_stored_forms():
    s = expand(load_background("builtin:berger-s3?squash=2", _FIELD), N=6)
    assert check_residuals(s) == [] and _all_cells_agree(s)
    at, old = (3, 0), s._b[(3, 0)]
    # an equal value in a distinct form: read again, and nothing changes
    s._b[at] = GForm.from_entries(_FIELD, list(old.entries()))
    assert _all_cells_agree(s) and check_residuals(s) == []
    assert s._readings[at][1] is s._b[at]
    # a different form: the cells that read it see it
    s._b[at] = old + GForm.from_entries(_FIELD, [Fraction(n % 3, 7) for n in range(9)])
    assert _all_cells_agree(s) and (3, 0, "b") in check_residuals(s)
    # deleted, then put back
    del s._b[at]
    assert _all_cells_agree(s) and (3, 0, "b") in check_residuals(s)
    s._b[at] = old
    assert _all_cells_agree(s) and check_residuals(s) == []
    del s._a[(2, 0)]
    assert _all_cells_agree(s) and (2, 0, "a") in check_residuals(s)


def test_empty_cells_are_exact_zeros(monkeypatch):
    # the flat table with no free data is empty: every cell but (1, 0), where
    # *F_w = 0 enters, is three exact zeros, and each cell is one call
    s = expand(load_background("builtin:flat", _FIELD), N=12)
    assert not s.addresses()
    calls = []
    monkeypatch.setattr(series_module, "residual_at",
                        lambda *a: calls.append(a[1:]) or residual_at(*a))
    assert check_residuals(s) == []
    assert len(calls) == 13 * 2
    zeros = (GForm.zero(_FIELD, 1),) * 2 + (GForm.zero(_FIELD, 0),)
    assert all(residual_at(s, K, p) == zeros for K, p in calls)
