"""Scalar fields and the little dense linear algebra kit."""

import decimal
from decimal import Decimal
from fractions import Fraction

import pytest

from nahmpole.scalars import (
    FloatField,
    RationalField,
    context,
)

from dense import nullspace, rref, solve_dense


class TestRationalField:
    def test_constants(self):
        f = RationalField()
        assert f.zero == Fraction(0)
        assert f.one == Fraction(1)
        assert f.exact is True
        assert f.name == "rational"

    def test_format_is_always_p_over_q(self):
        f = RationalField()
        assert f.format(Fraction(7)) == "7/1"
        assert f.format(Fraction(-2, 4)) == "-1/2"
        assert f.format(Fraction(0)) == "0/1"
        # positive denominator even for negative input
        assert f.format(Fraction(3, -9)) == "-1/3"

    def test_parse_round_trip(self):
        f = RationalField()
        for text in ("5/3", "-7/2", "0/1", "12/1"):
            assert f.format(f.parse(text)) == text

    def test_parse_plain_integer(self):
        f = RationalField()
        assert f.parse(" 42 ") == Fraction(42)

    def test_is_zero(self):
        f = RationalField()
        assert f.is_zero(Fraction(0))
        assert not f.is_zero(Fraction(1, 10**40))
        # exact: a scale changes nothing, and none is computed
        assert not f.is_zero(Fraction(1, 10**40), Fraction(10**40))

        def unread():
            raise AssertionError("an exact field read the scale's values")
            yield

        assert f.scale(unread()) is None


class TestFloatField:
    def test_rejects_low_precision(self):
        with pytest.raises(ValueError):
            FloatField(32)

    def test_precision_range_is_bounded(self):
        assert FloatField(65536).bits == 65536
        with pytest.raises(ValueError, match="64 to 65536 bits"):
            FloatField(65537)

    def test_digits_scale_with_bits(self):
        assert FloatField(64).digits < FloatField(256).digits

    def test_parse_fraction_and_decimal(self):
        f = FloatField(128)
        third = f.parse("1/3")
        assert abs(float(third) - 1 / 3) < 1e-15
        assert float(f.parse("0.25")) == 0.25

    def test_int_and_fraction_enter_through_from_fraction(self):
        f = FloatField(96)
        x = f.from_fraction(Fraction(3, 4))
        assert f.from_fraction(2) == 2
        with context(f):
            assert float(x + f.from_fraction(1)) == 1.75
            assert float(x * f.from_fraction(Fraction(4, 3))) == 1.0
            assert float(x - decimal.Decimal("0.25")) == 0.5
            assert float(f.from_fraction(2) / f.from_fraction(4)) == 0.5
        # a Fraction operand is refused, never silently rounded
        with pytest.raises(TypeError):
            x * Fraction(4, 3)
        # an int, float or Fraction is its numerator over its denominator,
        # rounded once: the engine's term coefficients among them
        big = 10**299 + 7  # 300 digits
        for bits in (64, 128, 256):
            g = FloatField(bits)
            for q in (7, 0, -7, big, Fraction(-22, 7), Fraction(big, 3),
                      Fraction(-big, big + 2), Fraction(1, big), 0.1, -2.5,
                      Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 3),
                      Fraction(-1, 9), *range(-13, 14)):
                n, d = Fraction(q).as_integer_ratio()
                got, want = g.from_fraction(q), g.ctx.divide(Decimal(n), Decimal(d))
                assert type(got) is Decimal and got.as_tuple() == want.as_tuple(), q

    def test_raw_float_operand_is_rejected(self):
        # native floats must go through from_fraction/parse, never silently mix
        x = FloatField(64).one
        with pytest.raises(TypeError):
            x + 0.5

    def test_precision_isolation(self):
        lo = FloatField(64)
        hi = FloatField(320)
        a = lo.from_fraction(Fraction(1, 3))
        b = hi.from_fraction(Fraction(1, 3))
        # the wide field keeps many more digits of 1/3
        assert len(hi.format(b)) > len(lo.format(a)) + 40

    def test_tolerance_zero_test(self):
        f = FloatField(128)
        tiny = f.one
        for _ in range(40):
            tiny = tiny / f.from_fraction(10)
        assert f.is_zero(tiny * tiny)
        assert not f.is_zero(f.parse("1e-3"))

    def test_zero_test_is_relative_to_scale(self):
        f = FloatField(64)
        x = f.parse("1e-10")
        assert not f.is_zero(x)
        assert f.is_zero(x, f.parse("1e10"))
        assert not f.is_zero(x, f.parse("1e4"))
        assert f.scale([f.parse("-3"), f.parse("2")]) == 3
        assert f.scale([]) == 0

    def test_format_is_canonical(self):
        # equal values built by different paths print the same literal
        f = FloatField(128)
        third = f.from_fraction(Fraction(1, 3))
        zeros = [f.zero, f.parse("0.000"), f.parse("0E-98"), f.parse("-0"),
                 -f.zero, f.from_fraction(-1) * f.zero, third - third,
                 f.parse("1.5") - f.from_fraction(Fraction(3, 2))]
        assert {f.format(z) for z in zeros} == {"0"}
        ones = [f.one, f.parse("1.000"), f.parse("1.0"), f.from_fraction(1),
                f.parse("0.25") * 4, f.parse("10") / f.from_fraction(10)]
        assert {f.format(v) for v in ones} == {"1"}
        assert f.format(f.parse("2.50")) == f.format(f.from_fraction(Fraction(5, 2)))
        for v in (third, f.parse("-1234.5e-40"), f.from_fraction(1000)):
            assert f.parse(f.format(v)) == v


class TestFloatElements:
    def test_elements_are_plain_decimals(self):
        f = FloatField(64)
        values = (f.zero, f.one, f.tolerance, f.from_fraction(3),
                  f.from_fraction(Fraction(1, 3)), f.parse("0.25"), f.parse("2/7"))
        assert all(type(v) is Decimal for v in values)

    def test_comparisons(self):
        f = FloatField(64)
        assert f.from_fraction(2) > 1
        assert f.from_fraction(2) <= Fraction(5, 2)
        with context(f):
            assert abs(-f.one) == f.one
        # a Decimal compares with a Fraction exactly: the rounded third is not 1/3
        assert f.from_fraction(Fraction(1, 3)) != Fraction(1, 3)

    def test_hash_consistent_with_eq(self):
        f = FloatField(64)
        assert hash(f.from_fraction(3)) == hash(f.from_fraction(3))

    def test_two_precisions_coexist(self):
        # each solve rounds to its own field's digits, whatever the
        # thread's context, and leaves that context as it was
        lo, hi = FloatField(64), FloatField(128)
        before = decimal.getcontext()
        for _ in range(2):
            for f in (lo, hi):
                third = solve_dense(f, [[f.from_fraction(3)]], [f.one])[0]
                assert third == f.from_fraction(Fraction(1, 3))
                assert len(third.as_tuple().digits) == f.digits
        assert decimal.getcontext() is before

    def test_context_of_each_field(self):
        f = FloatField(128)
        before = decimal.getcontext()
        with context(f):
            assert decimal.getcontext().prec == f.digits
        assert decimal.getcontext() is before
        with context(RationalField()):
            assert decimal.getcontext() is before


class TestDenseSolvers:
    def test_solve_known_system(self, field):
        A = [[Fraction(2), Fraction(1), Fraction(0)],
             [Fraction(1), Fraction(3), Fraction(1)],
             [Fraction(0), Fraction(1), Fraction(4)]]
        x = [Fraction(1), Fraction(-2), Fraction(3)]
        rhs = [sum(A[i][j] * x[j] for j in range(3)) for i in range(3)]
        assert solve_dense(field, A, rhs) == x

    def test_singular_raises(self, field):
        A = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        with pytest.raises(ZeroDivisionError):
            solve_dense(field, A, [Fraction(1), Fraction(1)])

    def test_solve_float_field(self):
        f = FloatField(128)
        A = [[f.from_fraction(3), f.from_fraction(1)], [f.from_fraction(1), f.from_fraction(2)]]
        got = solve_dense(f, A, [f.from_fraction(5), f.from_fraction(5)])
        assert abs(float(got[0]) - 1.0) < 1e-20
        assert abs(float(got[1]) - 2.0) < 1e-20

    def test_rref_pivots(self, field):
        M = [[Fraction(0), Fraction(2), Fraction(4)],
             [Fraction(1), Fraction(1), Fraction(1)]]
        rows, pivots = rref(field, M)
        assert pivots == [0, 1]
        assert rows[0][:2] == [Fraction(1), Fraction(0)]
        assert rows[1][:2] == [Fraction(0), Fraction(1)]

    def test_nullspace_membership_and_dim(self, field, rng):
        # rank-2 matrix on 5 columns -> 3-dimensional kernel
        base = [[Fraction(rng.randint(-4, 4)) for _ in range(5)]
                for _ in range(2)]
        M = base + [[base[0][j] + base[1][j] for j in range(5)]]
        basis = nullspace(field, M)
        assert len(basis) == 3
        for vec in basis:
            for row in M:
                assert sum(row[j] * vec[j] for j in range(5)) == 0

    def test_nullspace_of_full_rank_is_empty(self, field):
        M = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]]
        assert nullspace(field, M) == []
