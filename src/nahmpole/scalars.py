"""Scalar coefficient fields shared by the whole package.

Every algebraic routine in this package is generic over a *scalar field*
object that manufactures and classifies its elements.  Two realizations are
provided:

* :class:`RationalField` -- exact arbitrary-precision rationals backed by
  :class:`fractions.Fraction`.  Zero tests are exact, so structural claims
  (parity, log-freeness, residuals) are decided with no tolerance at all.
* :class:`FloatField` -- arbitrary-precision floating point backed by
  :mod:`decimal` with a private context, configurable in bits.  Elements are
  wrapped in :class:`BigFloat` so ordinary arithmetic operators route through
  the owning context instead of the process-global decimal context.

Elements of both fields support ``+ - * /``, ``abs`` and comparisons, which is
all the generic linear algebra at the bottom of this module needs.
"""

from __future__ import annotations

import decimal
from fractions import Fraction

__all__ = [
    "RationalField", "FloatField", "BigFloat", "exact_zero", "solve_dense",
    "rref", "nullspace",
]


class RationalField:
    """Exact rational scalars (the default mode everywhere)."""

    name = "rational"
    exact = True

    def __init__(self) -> None:
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def from_fraction(self, q) -> Fraction:
        return Fraction(q)

    def parse(self, text: str) -> Fraction:
        """Parse ``"p/q"`` (or a plain integer / decimal literal); anything
        else, a zero denominator included, raises ``ValueError``."""
        try:
            return Fraction(text.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None

    def format(self, x) -> str:
        """Canonical ``"p/q"`` form, lowest terms, positive denominator."""
        x = Fraction(x)
        return f"{x.numerator}/{x.denominator}"

    def to_float(self, x) -> float:
        return float(x)

    def to_fraction(self, x) -> Fraction:
        return Fraction(x)

    def scale(self, values) -> None:
        """Exact zero tests need no scale, so ``values`` are not read."""
        return None

    def is_zero(self, x, scale=None) -> bool:
        return x == 0

    def __repr__(self) -> str:
        return "RationalField()"


class BigFloat:
    """A decimal value bound to the context of the :class:`FloatField` that
    made it.

    The point of the wrapper is isolation: two float fields of different
    precision can coexist because arithmetic never touches the thread-global
    decimal context.  int and Fraction operands are coerced on the fly, so
    generic code may freely mix exact integer constants into float-mode
    formulas.
    """

    __slots__ = ("val", "ctx")

    def __init__(self, val: decimal.Decimal, ctx: decimal.Context):
        self.val = val
        self.ctx = ctx

    def _coerce(self, other):
        if isinstance(other, BigFloat):
            return other.val
        if isinstance(other, int):
            return decimal.Decimal(other)
        if isinstance(other, Fraction):
            return self.ctx.divide(
                decimal.Decimal(other.numerator), decimal.Decimal(other.denominator)
            )
        if isinstance(other, decimal.Decimal):
            return other
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return BigFloat(self.ctx.add(self.val, v), self.ctx)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return BigFloat(self.ctx.subtract(self.val, v), self.ctx)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return BigFloat(self.ctx.subtract(v, self.val), self.ctx)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return BigFloat(self.ctx.multiply(self.val, v), self.ctx)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return BigFloat(self.ctx.divide(self.val, v), self.ctx)

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return BigFloat(self.ctx.divide(v, self.val), self.ctx)

    def __neg__(self):
        return BigFloat(self.ctx.minus(self.val), self.ctx)

    def __abs__(self):
        return BigFloat(self.ctx.abs(self.val), self.ctx)

    def _cmp_val(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            raise TypeError(f"cannot compare BigFloat with {type(other).__name__}")
        return v

    def __eq__(self, other):
        try:
            return self.val == self._cmp_val(other)
        except TypeError:
            return NotImplemented

    def __lt__(self, other):
        return self.val < self._cmp_val(other)

    def __le__(self, other):
        return self.val <= self._cmp_val(other)

    def __gt__(self, other):
        return self.val > self._cmp_val(other)

    def __ge__(self, other):
        return self.val >= self._cmp_val(other)

    def __float__(self):
        return float(self.val)

    def __repr__(self):
        return f"BigFloat({self.val})"

    def __hash__(self):
        return hash(self.val)


class FloatField:
    """Arbitrary-precision floating point scalars.

    :param bits: working precision in bits (>= 64).  Internally converted to
        decimal digits; the zero-test tolerance is tied to the precision so
        that accumulated round-off in an order-8 expansion never looks like a
        genuine coefficient.
    """

    name = "float"
    exact = False

    def __init__(self, bits: int = 128):
        if bits < 64:
            raise ValueError(f"float scalar mode needs >= 64 bits, got {bits}")
        self.bits = int(bits)
        # 1 bit ~ log10(2) decimal digits, plus guard digits
        self.digits = int(self.bits * 0.30103) + 3
        self.ctx = decimal.Context(prec=self.digits, Emin=-10_000_000, Emax=10_000_000)
        self.zero = BigFloat(decimal.Decimal(0), self.ctx)
        self.one = BigFloat(decimal.Decimal(1), self.ctx)
        self.tolerance = BigFloat(
            decimal.Decimal(1).scaleb(-(3 * self.digits // 4), self.ctx), self.ctx
        )

    def from_int(self, n: int) -> BigFloat:
        return BigFloat(self.ctx.plus(decimal.Decimal(n)), self.ctx)

    def from_fraction(self, q) -> BigFloat:
        q = Fraction(q)
        return BigFloat(
            self.ctx.divide(decimal.Decimal(q.numerator), decimal.Decimal(q.denominator)),
            self.ctx,
        )

    def parse(self, text: str) -> BigFloat:
        """Parse a finite decimal literal or ``"p/q"``; anything else raises
        ``ValueError``, as :meth:`RationalField.parse` does."""
        text = text.strip()
        if "/" in text:
            return self.from_fraction(RationalField().parse(text))
        try:
            value = self.ctx.plus(decimal.Decimal(text))
            if value.is_finite():
                return BigFloat(value, self.ctx)
        except (decimal.InvalidOperation, decimal.Overflow):
            pass
        raise ValueError(f"not a finite decimal literal: {text!r}")

    def format(self, x: BigFloat) -> str:
        """Canonical decimal literal: equal values give equal strings (no
        trailing zeros, and every zero, ``-0`` included, is ``"0"``)."""
        return "0" if x.val.is_zero() else str(x.val.normalize(self.ctx))

    def to_float(self, x: BigFloat) -> float:
        return float(x)

    def to_fraction(self, x: BigFloat) -> Fraction:
        return Fraction(x.val)

    def scale(self, values) -> BigFloat:
        """The largest ``|v|`` of ``values`` (zero if none): the scale of
        :meth:`is_zero` for a value built from them."""
        return max(map(abs, values), default=self.zero)

    def is_zero(self, x: BigFloat, scale=None) -> bool:
        """``|x| <= tolerance * scale``, with scale 1 when none is given."""
        return abs(x) <= (self.tolerance if scale is None else self.tolerance * scale)

    def __repr__(self) -> str:
        return f"FloatField(bits={self.bits})"


def exact_zero(x) -> bool:
    """Whether ``x`` is an exact zero int, float, Fraction or BigFloat; any
    other value, numpy arrays and scalars included, counts as nonzero."""
    t = type(x)
    if t is Fraction or t is int or t is float:
        return not x
    return t is BigFloat and x.val.is_zero()


# ---------------------------------------------------------------------------
# Dense linear algebra over a generic field.
#
# Systems in this package are tiny (<= 25 unknowns: coupled eigenspace solves,
# vanishing-lemma style property checks, harmonic polynomial bases), so plain
# Gaussian elimination with magnitude pivoting is both exact and instant.
# ---------------------------------------------------------------------------


def _pivot_row(field, rows, col, start):
    """Row index of the largest-magnitude usable pivot, or None."""
    best, best_mag = None, None
    for r in range(start, len(rows)):
        mag = abs(rows[r][col])
        if field.is_zero(rows[r][col]):
            continue
        if best is None or mag > best_mag:
            best, best_mag = r, mag
    return best


def solve_dense(field, matrix, rhs):
    """Solve ``matrix @ x = rhs`` for square ``matrix``.

    Raises ``ZeroDivisionError`` if elimination meets a vanishing pivot
    (singular system), which callers surface as a resonance-style failure.
    """
    n = len(matrix)
    rows = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        piv = _pivot_row(field, rows, col, col)
        if piv is None:
            raise ZeroDivisionError(f"singular system (no pivot in column {col})")
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = field.one / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        for r in range(n):
            if r == col:
                continue
            factor = rows[r][col]
            if field.is_zero(factor):
                continue
            rows[r] = [rv - factor * cv for rv, cv in zip(rows[r], rows[col])]
    return [rows[i][n] for i in range(n)]


def rref(field, matrix):
    """Reduced row echelon form.

    :return: ``(rows, pivot_cols)`` where ``rows`` is the reduced matrix and
        ``pivot_cols`` lists the pivot column of each nonzero row.
    """
    rows = [list(r) for r in matrix]
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    rank = 0
    for col in range(n):
        if rank >= m:
            break
        piv = _pivot_row(field, rows, col, rank)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = field.one / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(m):
            if r == rank:
                continue
            factor = rows[r][col]
            if field.is_zero(factor):
                continue
            rows[r] = [rv - factor * cv for rv, cv in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
    return rows, pivots


def nullspace(field, matrix):
    """Basis of the right kernel of ``matrix`` (list of column vectors)."""
    if not matrix:
        return []
    n = len(matrix[0])
    rows, pivots = rref(field, matrix)
    free_cols = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free_cols:
        vec = [field.zero] * n
        vec[fc] = field.one
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis
