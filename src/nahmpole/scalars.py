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

``Decimal`` operators round to the thread's current context, so float
arithmetic never uses the thread's own.  The per-term loops of a float solve
step (``_products``, ``_star_d`` and the slot sums of ``_kernel_sum`` and
``_sum``, in :mod:`nahmpole._float`) round through a field's ``ops``, the
methods of its context, which round as the operators do under it; any other
float routine enters the context once per call (:func:`context`), and the
zero tests round nothing (``copy_abs`` and ``copy_negate``).  Fields
of different precision therefore coexist in one process.  An ``int`` or
``Fraction`` constant reaches a float element only through
:meth:`FloatField.from_fraction`, or :meth:`FloatField.constant` for a term
coefficient of the engine's tables, converted once per field: a ``Decimal``
refuses a ``Fraction`` or a native ``float`` operand with ``TypeError``.
Rational scalars take the plain operators, which are their ``ops``.

Elements of both fields support ``+ - * /``, ``abs`` and comparisons.  An
element is false exactly when it is zero (a ``Decimal`` ``-0`` included),
which is how the sparse kernels skip zeros.
"""

from __future__ import annotations

import contextlib
import decimal
import operator
import re
from decimal import Decimal
from fractions import Fraction

__all__ = ["RationalField", "FloatField", "context"]


#: The largest decimal exponent a rational literal may carry: Python's
#: default limit on the digits of an ``int`` printed as a string.
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"e([-+]?\d+)$", re.IGNORECASE)
#: The float precision range in bits.  The top keeps a ``decimal`` context
#: within memory: 65536 bits at order 4 on berger-s3 runs in seconds.
_MIN_BITS, _MAX_BITS = 64, 1 << 16
#: How many term coefficients a float field keeps converted.
_CONSTANTS = 64


class RationalField:
    """Exact rational scalars (the default mode everywhere)."""

    name = "rational"
    exact = True
    ops = (operator.mul, operator.add, operator.sub)  # (mul, add, sub), rounding nothing

    def __init__(self) -> None:
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def from_fraction(self, q) -> Fraction:
        return q if type(q) is Fraction else Fraction(q)

    constant = from_fraction

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
        self.ops = (self.ctx.multiply, self.ctx.add, self.ctx.subtract)  # round as the operators
        self._constants = {}

    def from_int(self, n: int) -> Decimal:
        return self.ctx.plus(Decimal(n))

    def from_fraction(self, q) -> Decimal:
        q = Fraction(q)
        return self.ctx.divide(Decimal(q.numerator), Decimal(q.denominator))

    def constant(self, q) -> Decimal:
        """:meth:`from_fraction` of a term coefficient of the engine's tables
        (an int or ``Fraction``), kept for the next call; the first
        ``_CONSTANTS`` coefficients are kept, so the table stays bounded."""
        value = self._constants.get(q)
        if value is None:
            value = self.from_fraction(q)
            if len(self._constants) < _CONSTANTS:
                self._constants[q] = value
        return value

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
        """The largest ``|v|`` of the ``Decimal`` ``values`` (zero if none),
        the scale of :meth:`is_zero` for a value built from them: one ``max``
        pass over their ``copy_abs``, which rounds nothing, where ``abs()``
        rounds in the thread's context."""
        return max(map(Decimal.copy_abs, values), default=self.zero)

    def within(self, values, bound) -> bool:
        """Whether every one of the ``Decimal`` ``values`` lies within a
        :meth:`bound`, ``|v| <= bound``: :meth:`is_zero` of each against one
        bound, stopping at the first that is not."""
        return all(v.copy_abs() <= bound for v in values)

    def bound(self, scale=None) -> Decimal:
        """``tolerance * scale``, with scale 1 when none is given: a value is
        zero when its magnitude is at most this."""
        return self.tolerance if scale is None else self.ctx.multiply(self.tolerance, scale)

    def is_zero(self, x: Decimal, scale=None) -> bool:
        """``|x| <= tolerance * scale``, with scale 1 when none is given."""
        bound = self.bound(scale)
        return bound.copy_negate() <= x <= bound

    def __repr__(self) -> str:
        return f"FloatField(bits={self.bits})"


_NO_CONTEXT = contextlib.nullcontext()


def context(field):
    """The context manager a computation over ``field`` runs under:
    ``decimal.localcontext(field.ctx)`` for a :class:`FloatField`, and one
    that does nothing for any field without a ``ctx`` (rationals)."""
    ctx = getattr(field, "ctx", None)
    return _NO_CONTEXT if ctx is None else decimal.localcontext(ctx)
