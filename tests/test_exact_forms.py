"""The linear structure of a ``GForm`` acts on integer readings.

Over exact scalars ``+``, ``-``, unary ``-``, ``scale``, ``divide`` and
``==`` read each operand's integer numerators over one denominator and
build no ``Fraction``.  The oracle is plain ``Fraction`` arithmetic, entry
by entry.  Every result must hold the oracle's entries and the canonical
reading that a fresh form with those entries holds from construction.  The
operands are made from entries (ints among them) and straight from readings
(:func:`nahmpole.algebra._form`), with zero forms, pairwise coprime
denominators and thousand-digit numerators.  Float forms keep the
slot-by-slot route under their field's context, whatever the thread's, and
hold no reading.
"""

import decimal
import itertools
import json
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from nahmpole import cli
from nahmpole._float import FForm
from nahmpole.algebra import (EigenPart, GForm, L_op, _form, _ratios, invert_cal_L, project,
                              resolve_coupled, star_wedge, vierbein)
from nahmpole.geometry import d_omega_star, load_background, star_d_omega
from nahmpole.scalars import FloatField, RationalField, context
from nahmpole.series import check_residuals, expand, from_json

_FIELD = RationalField()
_F128 = FloatField(128)

_huge = st.builds(lambda sign, n: sign * n, st.sampled_from((1, -1)),
                  st.integers(10**999, 10**1000))
_numerator = st.one_of(st.just(0), st.integers(-40, 40), _huge)
#: Small denominators are 1 and pairwise coprime primes, so a sum's lcm is
#: their product; huge ones are drawn freely.
_denominator = st.one_of(st.sampled_from((1, 2, 3, 5, 7, 11, 13, 97, 101)), _huge.map(abs))
_entry = st.one_of(st.just(0), st.integers(-40, 40), st.builds(Fraction, _numerator, _denominator))
_scalar = st.one_of(st.integers(-40, 40), st.builds(Fraction, _numerator, _denominator))


def _operand(size):
    """``(form, its entries as Fractions)`` of ``size`` slots: a zero form, a
    form from entries, or one made from a reading by ``_form``."""
    zero = st.just((GForm.from_entries(_FIELD, [0] * size), [Fraction(0)] * size))
    entries = st.lists(_entry, min_size=size, max_size=size).map(
        lambda v: (GForm.from_entries(_FIELD, v), [Fraction(x) for x in v]))
    made = st.tuples(st.lists(_numerator, min_size=size, max_size=size),
                     _denominator, st.sampled_from((1, -1))).map(
        lambda t: (_form(_FIELD, t[0], t[2] * t[1]),
                   [Fraction(n, t[2] * t[1]) for n in t[0]]))
    return st.one_of(zero, entries, made)


_pair = st.sampled_from((3, 9)).flatmap(lambda n: st.tuples(_operand(n), _operand(n)))


def assert_reads_as(got, want):
    """``got`` holds the oracle's entries ``want`` as their canonical reading,
    made without building an entry."""
    assert got._coeffs is None
    assert got._ints == GForm.from_entries(_FIELD, want)._ints
    assert list(got.entries()) == want


@given(_pair)
def test_sum_difference_and_negation(pair):
    (x, xs), (y, ys) = pair
    assert_reads_as(x + y, [a + b for a, b in zip(xs, ys)])
    assert_reads_as(x - y, [a - b for a, b in zip(xs, ys)])
    assert_reads_as(-x, [-a for a in xs])


#: Readings over pairwise coprime, shared-factor and equal denominators, each
#: made with either sign of its denominator.
_signed_den = st.builds(lambda d, sign: sign * d,
                        st.sampled_from((1, 2, 6, 7, 10, 11, 97, 10**30 + 57)),
                        st.sampled_from((1, -1)))
_made = st.sampled_from((3, 9)).flatmap(lambda n: st.tuples(*[st.tuples(
    st.lists(_numerator, min_size=n, max_size=n), _signed_den)] * 2))


@given(_made)
@example((([1, 2, 3], -7), ([4, 5, 6], 11)))
@example((([1, 2, 3], 6), ([-1, 1, 0], -10)))
@example((([1, 2, 3], -5), ([1, 2, 3], -5)))
def test_combine_is_fraction_arithmetic_on_readings(made):
    (ns, d), (ms, e) = made
    x, y = _form(_FIELD, ns, d), _form(_FIELD, ms, e)
    xs, ys = [Fraction(n, d) for n in ns], [Fraction(m, e) for m in ms]
    assert_reads_as(x + y, [a + b for a, b in zip(xs, ys)])
    assert_reads_as(x - y, [a - b for a, b in zip(xs, ys)])
    assert_reads_as(y - y, [Fraction(0)] * len(ys))


@given(st.sampled_from((3, 9)).flatmap(_operand), _scalar)
def test_scale_and_divide(operand, s):
    x, xs = operand
    assert_reads_as(x.scale(s), [a * s for a in xs])
    if s:
        assert_reads_as(x.divide(s), [a / s for a in xs])
    else:
        with pytest.raises(ZeroDivisionError):
            x.divide(s)


@given(_pair, st.integers(0, 8))
def test_equality_is_entrywise(pair, slot):
    (x, xs), (y, ys) = pair
    assert (x == y) is (xs == ys)
    assert x == GForm.from_entries(_FIELD, xs)
    # often the same numerators over twice the denominator
    assert (x == GForm.from_entries(_FIELD, [a / 2 for a in xs])) is (not any(xs))
    slot %= len(xs)
    shifted = xs[:slot] + [xs[slot] + 1] + xs[slot + 1:]
    assert x != GForm.from_entries(_FIELD, shifted)
    assert x != GForm.from_entries(_FIELD, xs[:3] if len(xs) == 9 else xs * 3)


def test_degree_mismatch_and_zero_divisor():
    one, zero = GForm.zero(_FIELD, 1), GForm.zero(_FIELD, 0)
    for f, g in ((one, zero), (zero, one)):
        with pytest.raises(ValueError):
            f + g
        with pytest.raises(ValueError):
            f - g
    for form in (one, _form(_FIELD, [1, 2, 3], 5)):
        for q in (0, Fraction(0)):
            with pytest.raises(ZeroDivisionError):
                form.divide(q)


#: Entries an exact form reads at their exact values: finite floats, Decimals
#: of up to 20 digits at exponents -40..40, ints and Fractions.
_inexact = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda n, e: decimal.Decimal(n).scaleb(e), st.integers(-10**20, 10**20),
              st.integers(-40, 40)),
    _entry)


def _eps(i, j, k):
    return (i - j) * (j - k) * (k - i) // 2


@given(st.lists(_inexact, min_size=9, max_size=9), st.lists(_inexact, min_size=9, max_size=9),
       _inexact)
@example([0.1] * 9, [0.2] * 9, 0.1)
@example([decimal.Decimal("0.1")] * 9, [decimal.Decimal("0.2")] * 9, decimal.Decimal("0.1"))
def test_an_exact_form_never_rounds(xv, yv, s):
    # an exact form reads each entry at its exact value, so every exact
    # operator takes its integer route and returns a reading: 0.1 + 0.2 is
    # the sum of the binary fractions the two floats stand for, not the float
    # 0.30000000000000004, and two Decimals add to 3/10
    x, y = GForm.from_entries(_FIELD, xv), GForm.from_entries(_FIELD, yv)
    xs, ys, q = [Fraction(v) for v in xv], [Fraction(v) for v in yv], Fraction(s)
    tr = xs[0] + xs[4] + xs[8]
    assert_reads_as(x + y, [a + b for a, b in zip(xs, ys)])
    assert_reads_as(x.scale(s), [a * q for a in xs])
    assert_reads_as(L_op(x), [(tr if r == c else 0) - xs[3 * c + r]
                              for r in range(3) for c in range(3)])
    assert_reads_as(star_wedge(x, y), [
        sum(_eps(i, j, k) * _eps(a, b, c) * xs[3 * a + i] * ys[3 * b + j]
            for i, j, a, b in itertools.product(range(3), repeat=4))
        for c in range(3) for k in range(3)])
    if q not in (-2, -1, 1):  # the resonant orders
        assert_reads_as(invert_cal_L(s, x), [
            xs[4 * i] / (q - 1) - tr / ((q + 2) * (q - 1)) if i == j
            else (q * xs[3 * i + j] + xs[3 * j + i]) / (q * q - 1)
            for i in range(3) for j in range(3)])


def test_exact_and_float_forms_do_not_mix():
    exact, scalar = GForm.from_entries(_FIELD, [0.5] * 9), GForm.from_entries(_F128, [_F128.one] * 9)
    for x, y in ((exact, scalar), (scalar, exact)):
        with pytest.raises(TypeError):
            x + y
        with pytest.raises(TypeError):
            x - y


_decimal = st.builds(lambda n, d: _F128.from_fraction(Fraction(n, d)),
                     st.integers(-10**40, 10**40), st.integers(1, 10**12))


@given(st.sampled_from((3, 9)).flatmap(
    lambda n: st.tuples(*[st.lists(_decimal, min_size=n, max_size=n)] * 2)),
    st.one_of(st.integers(1, 40), st.fractions(Fraction(1, 9), 9, max_denominator=97)))
def test_float_forms_round_in_their_context(entries, s):
    x, y = (GForm.from_entries(_F128, v) for v in entries)
    ctx, q = _F128.ctx, _F128.from_fraction(s)
    want = {
        "add": [ctx.add(a, b) for a, b in zip(*entries)],
        "sub": [ctx.subtract(a, b) for a, b in zip(*entries)],
        "neg": [ctx.minus(a) for a in entries[0]],
        "scale": [ctx.multiply(a, q) for a in entries[0]],
        "divide": [ctx.divide(a, q) for a in entries[0]],
    }

    def results():
        return {"add": x + y, "sub": x - y, "neg": -x, "scale": x.scale(s),
                "divide": x.divide(s)}

    calm = results()
    saved = decimal.getcontext()
    decimal.setcontext(decimal.Context(prec=3, traps=[decimal.Inexact, decimal.Rounded]))
    try:
        hostile = results()
    finally:
        decimal.setcontext(saved)
    for name, values in want.items():
        tuples = [v.as_tuple() for v in values]
        assert [v.as_tuple() for v in calm[name].entries()] == tuples
        assert [v.as_tuple() for v in hostile[name].entries()] == tuples
    assert (x == y) is (entries[0] == entries[1])


@pytest.mark.parametrize("uri", ["builtin:berger-s3?squash=2", "builtin:round-s3"])
def test_exact_check_residuals_builds_no_fraction(uri, monkeypatch):
    bg = load_background(uri, _FIELD)
    table = expand(bg, N=12)
    built, new = [], Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    assert bg.W._coeffs is None and bg.starF._coeffs is None
    monkeypatch.setattr(Fraction, "__new__", counting)
    assert check_residuals(table) == []
    monkeypatch.undo()
    assert built == []
    assert bg.W._coeffs is None and bg.starF._coeffs is None


def test_exact_zero_forms_are_made_read():
    # GForm.zero over exact scalars is made from its reading and builds no
    # entry until one is read; over floats it keeps its entries
    for degree, size in ((0, 3), (1, 9)):
        zero = GForm.zero(_FIELD, degree)
        assert zero._coeffs is None and zero._ints == ((0,) * size, 1)
        assert list(zero.entries()) == [_FIELD.zero] * size
        assert GForm.zero(_F128, degree)._ints is None


#: The entries of a built form: ints, Fractions, finite floats and Decimals, signed zeros too.
_built = st.one_of(_inexact, st.sampled_from((0.0, -0.0, decimal.Decimal("-0"))))
#: Entries of one type each: ints, Fractions, floats and Decimals, for ``from_entries``.
_typed = st.tuples(*[st.lists(entry, min_size=n, max_size=n) for entry, n in (
    (st.integers(-10**30, 10**30), 9), (st.builds(Fraction, _numerator, _denominator), 3),
    (st.floats(allow_nan=False, allow_infinity=False), 9),
    (st.decimals(allow_nan=False, allow_infinity=False, places=12), 3))])
_FLOATS = (FloatField(64), _F128)


def _json_forms(field, a, b, phi):
    """``(form, its entries)`` of each form ``from_json`` stores (a zero one it drops) of a
    one-entry document with these entries."""
    def text(v):
        q = Fraction(v)
        return f"{q.numerator}/{q.denominator}"
    doc = {"background": "flat", "order": 1, "entries": [
        {"k": 1, "p": 0, "a": [[text(v) for v in a[r:r + 3]] for r in (0, 3, 6)],
         "b": [[text(v) for v in b[r:r + 3]] for r in (0, 3, 6)],
         "phi_y": [text(v) for v in phi]}]}
    series = from_json(json.dumps(doc), field=field)
    return [(table[1, 0], want) for table, want in zip((series._a, series._b, series._phi),
                                                        (a, b, phi)) if (1, 0) in table]


def _builds(field, nine, three, typed, made):
    """One form of each way to build one over ``field``: ``(form, its exact values)``."""
    rows = [nine[r:r + 3] for r in (0, 3, 6)]
    built = [(GForm.one_form(field, rows), nine), (GForm.zero_form(field, three), three),
             (GForm.zero(field, 0), [0] * 3), (GForm.zero(field, 1), [0] * 9),
             (vierbein(field), [1, 0, 0, 0, 1, 0, 0, 0, 1])]
    if field.exact:
        ns, den = made
        built += [(GForm.from_entries(field, v), v) for v in [nine, three, *typed]]
        built.append((_form(field, ns, den), [Fraction(n, den) for n in ns]))
    else:
        values = [[field.from_fraction(Fraction(v)) for v in w] for w in (nine, three)]
        built += [(GForm.from_entries(field, v), v) for v in values]
    built += _json_forms(field, nine, nine[::-1], three)
    return [(form, [Fraction(v) for v in want]) for form, want in built]


def _holds_flat(form):
    """The form keeps its entries as one flat tuple, ``coeffs`` is their row view,
    and ``trace`` sums the diagonal slots under the field's context."""
    e = form.entries()
    assert type(e) is tuple and form._coeffs is e and len(e) == (9 if form.degree else 3)
    assert form.coeffs == (e if form.degree == 0 else (e[:3], e[3:6], e[6:]))
    if form.degree == 1:
        with context(form.field):
            try:
                want = e[0] + e[4] + e[8]
            except (TypeError, OverflowError) as error:  # entries kept as given
                with pytest.raises(type(error)):
                    form.trace()
            else:
                assert form.trace() == want


def _float_outputs(field, built):
    """The float route's results on the built forms of ``Decimal`` entries: the
    projections, the two solves, the frame operators, a kernel, ``+``, ``-`` and
    ``scale``."""
    bg = load_background("builtin:berger-s3?squash=2", field)
    built = [form for form, _ in built
             if all(type(v) is decimal.Decimal for v in form.entries())]
    ones = [form for form in built if form.degree == 1]
    zero = next(form for form in built if form.degree == 0)
    for x, y in zip(ones, ones[1:] + ones[:1]):
        yield from (project(x, part) for part in EigenPart)
        yield from (invert_cal_L(3, x), *resolve_coupled(4, x, zero), star_d_omega(bg, x),
                    d_omega_star(bg, x), star_wedge(x, y), x + y, x - y,
                    x.scale(Fraction(1, 3)))


@given(st.lists(_built, min_size=9, max_size=9), st.lists(_built, min_size=3, max_size=3),
       _typed, st.tuples(st.lists(_numerator, min_size=9, max_size=9),
                         st.sampled_from((1, -1, 7, -12, 10**30))))
@example([0] * 9, [0] * 3, ([0] * 9, [0] * 3, [0.0] * 9, [decimal.Decimal(0)] * 3),
         ([0] * 9, -7))
@example([-0.0] * 9, [decimal.Decimal("-0")] * 3,
         ([-4] * 9, [Fraction(-1, 2)] * 3, [-0.0, 0.5] * 4 + [0.1],
          [decimal.Decimal("-0.00")] * 3),
         ([6, 0, -4, 2, 0, 0, 0, 0, 8], -12))
@example([0.5, 0, 0, 0, 1, 0, 0, 0, 0.1], [0.5, Fraction(1, 3), 2], ([0] * 9, [0] * 3,
         [0.0] * 9, [decimal.Decimal(0)] * 3), ([0] * 9, 1))
def test_every_form_holds_its_reading_from_construction(nine, three, typed, made):
    # every exact form, however it is built, holds the canonical reading of its
    # entries' exact values before any of them is read; a float form holds none;
    # every form, and every float route's result, holds its entries flat; one_form
    # and zero_form enter an int, float or Fraction entry by from_fraction, and keep
    # a Decimal as given
    for field in (_FIELD, *_FLOATS):
        for form, values in ((GForm.one_form(field, [nine[r:r + 3] for r in (0, 3, 6)]), nine),
                             (GForm.zero_form(field, three), three)):
            entered = [v if type(v) is decimal.Decimal else field.from_fraction(v)
                       for v in values]
            assert [(type(v), v) for v in form.entries()] == [(type(v), v) for v in entered]
    for form, want in _builds(_FIELD, nine, three, typed, made):
        assert type(form) is GForm
        ns, d = form._ints  # read first: no entry is read to make it
        assert type(d) is int and d > 0 and all(type(n) is int for n in ns)
        assert gcd(d, *ns) == 1 and (any(ns) or d == 1)
        assert [Fraction(n, d) for n in ns] == want
        assert form._ints == _ratios(form.entries())
        _holds_flat(form)
    for field in _FLOATS:
        built = _builds(field, nine, three, typed, made)
        for form, _ in built:
            assert type(form) is FForm and form._ints is None
            _holds_flat(form)
        for form in _float_outputs(field, built):
            assert type(form) is FForm and form._ints is None
            _holds_flat(form)


def test_exact_free_data_builds_only_its_literals(tmp_path, monkeypatch):
    # loading free data over exact scalars builds the parsed literals' Fractions
    # and no others: the eigenspace checks act on the readings
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    import workloads

    doc = workloads.free_data_doc(0)
    path = tmp_path / "free.json"
    path.write_text(json.dumps(doc))
    built, new = [], Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)
    monkeypatch.setattr(Fraction, "__new__", counting)
    free = cli._load_free_data(str(path), _FIELD)
    monkeypatch.undo()
    literals = [(v,) for key in ("c_plus", "c_zero", "c_minus") for row in doc[key] for v in row]
    assert len(literals) == 27 and built == literals
    assert free.c_plus.entries() == tuple(Fraction(v) for row in doc["c_plus"] for v in row)


@pytest.mark.parametrize("den", [1, 7, -7, 10**40])
def test_an_all_zero_reading_is_the_canonical_zero(den):
    for size in (3, 9):
        zero = _form(_FIELD, [0] * size, den)
        assert zero._ints == ((0,) * size, 1) == GForm.from_entries(_FIELD, [0] * size)._ints
        assert zero == GForm.zero(_FIELD, 0 if size == 3 else 1)


def test_exact_zero_free_data_expand_builds_no_vierbein(monkeypatch):
    # the seed's -1/2 Gamma(c0) reads the closed form of Gamma on the zero
    # c0; a float Gamma still takes the kernel with the vierbein
    from nahmpole import algebra, series

    calls, vierbein = [], algebra.vierbein

    def counting(field=None):
        calls.append(field)
        return vierbein(field)
    for module in (algebra, series):
        monkeypatch.setattr(module, "vierbein", counting)
    for uri in ("builtin:round-s3", "builtin:berger-s3?squash=2", "builtin:h2xr"):
        expand(load_background(uri, _FIELD), N=8)
    assert calls == []
    algebra.gamma_op(GForm.zero(_F128, 1))
    assert calls == [_F128]
