"""The linear structure of a ``GForm`` acts on integer readings.

Over exact scalars ``+``, ``-``, unary ``-``, ``scale``, ``divide`` and
``==`` read each operand's integer numerators over one denominator and
build no ``Fraction``.  The oracle is plain ``Fraction`` arithmetic, entry
by entry.  Every result must hold the oracle's entries and the canonical
reading that :func:`nahmpole.algebra._read` makes of a fresh form with those
entries.  The operands are made from entries (ints among them) and straight
from readings (:func:`nahmpole.algebra._form`), with zero forms, pairwise
coprime denominators and thousand-digit numerators.  Float forms keep the
slot-by-slot route under their field's context, whatever the thread's.
"""

import decimal
import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from nahmpole import cli
from nahmpole.algebra import GForm, L_op, _form, _read, invert_cal_L, star_wedge
from nahmpole.geometry import load_background
from nahmpole.scalars import FloatField, RationalField
from nahmpole.series import check_residuals, expand

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
    assert got._ints == _read(GForm.from_entries(_FIELD, want))
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


def test_exact_zero_forms_are_made_read(monkeypatch):
    # GForm.zero over exact scalars carries its reading from the start, so no
    # all-zero form computes one; over floats it keeps its entries
    from nahmpole import algebra, geometry

    for degree, size in ((0, 3), (1, 9)):
        zero = GForm.zero(_FIELD, degree)
        assert zero._coeffs is None and zero._ints == ((0,) * size, 1)
        assert list(zero.entries()) == [_FIELD.zero] * size
        assert GForm.zero(_F128, degree)._ints is None
    computed, read = [], algebra._read

    def counting(form):
        if form._ints is None:
            computed.append(not any(form.entries()))
        return read(form)
    for module in (algebra, geometry):
        monkeypatch.setattr(module, "_read", counting)
    assert cli.main(["verify", "identities"]) == 0
    assert computed and sum(computed) == 0


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
        assert zero._ints == ((0,) * size, 1) == _read(GForm.from_entries(_FIELD, [0] * size))
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
