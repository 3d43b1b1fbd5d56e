"""Scalar coefficient fields shared by the whole package.

Every algebraic routine in this package is generic over a *scalar field*
object that manufactures and classifies its elements.  Two realizations are
provided:

* :class:`RationalField` -- exact arbitrary-precision rationals backed by
  :class:`fractions.Fraction`.  Zero tests are exact, so structural claims
  (parity, log-freeness, residuals) are decided with no tolerance at all.
* :class:`FloatField` -- arbitrary-precision floating point, configurable in
  bits.  Its elements are plain :class:`decimal.Decimal` values and the
  field owns the :class:`decimal.Context` they are computed in.

``Decimal`` arithmetic rounds to the thread's current context, so each
routine that computes on float elements enters its field's context once per
call (:func:`context`, a ``decimal.localcontext``) and leaves the thread's
own context as it found it.  Fields of different precision therefore
coexist in one process.  An ``int`` or ``Fraction`` constant reaches a float
element only through :meth:`FloatField.from_fraction`: a ``Decimal`` refuses
a ``Fraction`` or a native ``float`` operand with ``TypeError``.  Rational
scalars, and the native floats of the flow integrator's form views, enter no
context.

Elements of both fields support ``+ - * /``, ``abs`` and comparisons, which is
all the generic linear algebra at the bottom of this module needs.  An
element is false exactly when it is zero (a ``Decimal`` ``-0`` included),
which is how the sparse kernels skip zeros.
"""

from __future__ import annotations

import contextlib
import decimal
import re
from decimal import Decimal
from fractions import Fraction

__all__ = [
    "RationalField", "FloatField", "context", "solve_dense", "rref",
    "nullspace",
]


#: The largest decimal exponent a rational literal may carry: Python's
#: default limit on the digits of an ``int`` printed as a string.
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"e([-+]?\d+)$", re.IGNORECASE)
#: The float precision range in bits.  The top keeps a ``decimal`` context
#: within memory: 65536 bits at order 4 on berger-s3 runs in seconds.
_MIN_BITS, _MAX_BITS = 64, 1 << 16


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
        return q if type(q) is Fraction else Fraction(q)

    def parse(self, text: str) -> Fraction:
        """Parse ``"p/q"`` (or a plain integer / decimal literal); anything
        else, a zero denominator or a decimal exponent beyond
        ``_MAX_EXPONENT`` included, raises ``ValueError``.  The exponent is
        judged on the literal, before its power of ten is built."""
        text = text.strip()
        exponent = _EXPONENT.search(text)
        if exponent and abs(int(exponent[1])) > _MAX_EXPONENT:
            raise ValueError(f"decimal exponent of {text!r} is beyond +-{_MAX_EXPONENT}")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None

    def format(self, x) -> str:
        """Canonical ``"p/q"`` form, lowest terms, positive denominator: a zero
        is ``"0/1"``, a ``Fraction`` or ``int`` prints its own numerator and
        denominator, and any other value goes through ``Fraction(x)`` first."""
        if type(x) is not Fraction and type(x) is not int:
            x = Fraction(x)
        return f"{x.numerator}/{x.denominator}" if x else "0/1"

    def to_fraction(self, x) -> Fraction:
        return Fraction(x)

    def scale(self, values) -> None:
        """Exact zero tests need no scale, so ``values`` are not read."""
        return None

    def is_zero(self, x, scale=None) -> bool:
        return x == 0

    def __repr__(self) -> str:
        return "RationalField()"


def _magnitude(x):
    """``|x|`` without rounding: ``copy_abs`` of a ``Decimal``, ``abs`` of
    the plain ints that float formulas meet (an integer divisor)."""
    return abs(x) if type(x) is int else x.copy_abs()


class FloatField:
    """Arbitrary-precision floating point scalars: ``Decimal`` elements
    computed under the field's context ``ctx``.

    :param bits: working precision in bits, 64 to 65536.  Internally converted to
        decimal digits; the zero-test tolerance is tied to the precision so
        that accumulated round-off in an order-8 expansion never looks like a
        genuine coefficient.
    """

    name = "float"
    exact = False

    def __init__(self, bits: int = 128):
        if not _MIN_BITS <= bits <= _MAX_BITS:
            raise ValueError(f"float scalar mode needs {_MIN_BITS} to {_MAX_BITS} bits, "
                             f"got {bits}")
        self.bits = int(bits)
        # 1 bit ~ log10(2) decimal digits, plus guard digits
        self.digits = int(self.bits * 0.30103) + 3
        self.ctx = decimal.Context(prec=self.digits, Emin=-10_000_000, Emax=10_000_000)
        self.zero = Decimal(0)
        self.one = Decimal(1)
        self.tolerance = Decimal(1).scaleb(-(3 * self.digits // 4), self.ctx)

    def from_int(self, n: int) -> Decimal:
        return self.ctx.plus(Decimal(n))

    def from_fraction(self, q) -> Decimal:
        q = Fraction(q)
        return self.ctx.divide(Decimal(q.numerator), Decimal(q.denominator))

    def parse(self, text: str) -> Decimal:
        """Parse a finite decimal literal or ``"p/q"``; anything else raises
        ``ValueError``, as :meth:`RationalField.parse` does."""
        text = text.strip()
        if "/" in text:
            return self.from_fraction(RationalField().parse(text))
        try:
            value = self.ctx.plus(Decimal(text))
            if value.is_finite():
                return value
        except (decimal.InvalidOperation, decimal.Overflow):
            pass
        raise ValueError(f"not a finite decimal literal: {text!r}")

    def format(self, x: Decimal) -> str:
        """Canonical decimal literal: equal values give equal strings (no
        trailing zeros, and every zero, ``-0`` included, is ``"0"``)."""
        return "0" if x.is_zero() else str(x.normalize(self.ctx))

    def to_fraction(self, x: Decimal) -> Fraction:
        return Fraction(x)

    def scale(self, values) -> Decimal:
        """The largest ``|v|`` of ``values`` (zero if none): the scale of
        :meth:`is_zero` for a value built from them."""
        return max(map(_magnitude, values), default=self.zero)

    def is_zero(self, x: Decimal, scale=None) -> bool:
        """``|x| <= tolerance * scale``, with scale 1 when none is given."""
        return _magnitude(x) <= (self.tolerance if scale is None
                                 else self.ctx.multiply(self.tolerance, scale))

    def __repr__(self) -> str:
        return f"FloatField(bits={self.bits})"


_NO_CONTEXT = contextlib.nullcontext()


def context(field):
    """The context manager a computation over ``field`` runs under:
    ``decimal.localcontext(field.ctx)`` for a :class:`FloatField`, and one
    that does nothing for any field without a ``ctx`` (rationals, the
    native floats of the form views of a flow state)."""
    ctx = getattr(field, "ctx", None)
    return _NO_CONTEXT if ctx is None else decimal.localcontext(ctx)


# ---------------------------------------------------------------------------
# Dense linear algebra over a generic field.
#
# No code path of the package calls these: they are the exact solver of the
# test oracles, whose systems are tiny (<= 25 unknowns), so plain Gaussian
# elimination with magnitude pivoting is both exact and instant.
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
    """Solve ``matrix @ x = rhs`` for square ``matrix``: :func:`rref` of
    the augmented matrix.

    Raises ``ZeroDivisionError`` if elimination meets a vanishing pivot
    (singular system), which callers surface as a resonance-style failure.
    """
    n = len(matrix)
    rows, pivots = rref(field, [list(row) + [rhs[i]] for i, row in enumerate(matrix)])
    missing = [c for c in range(n) if c not in pivots]
    if missing:
        raise ZeroDivisionError(f"singular system (no pivot in column {missing[0]})")
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
    with context(field):
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
    with context(field):
        for fc in free_cols:
            vec = [field.zero] * n
            vec[fc] = field.one
            for r, pc in enumerate(pivots):
                vec[pc] = -rows[r][fc]
            basis.append(vec)
    return basis
