"""Exact algebra of su(2)-valued invariant forms.

Conventions (fixed once, used by every module):

* Lie bracket ``[t_a, t_b] = eps_{abc} t_c`` on the su(2) basis.
* Orthonormal coframe ``e_1, e_2, e_3`` with right-handed Hodge star,
  ``*e_1 = e_2 ^ e_3`` cyclically and ``*(e_1 ^ e_2 ^ e_3) = 1``.
* Trace pairing ``Tr(t_a t_b) = -1/2 delta_{ab}``.

A frame-constant g-valued form of degree 1 is the 3x3 coefficient matrix
``c[a][i]`` of ``sum_a,i c[a][i] t_a (x) e_i``, stored flat, row by row
(``c[a][i]`` at slot ``3a + i``); degree 0 is the 3-vector ``c[a]`` of
``sum_a c[a] t_a``.  The vierbein form ``e`` is then the identity matrix.

The operator ``L(a) = *[e, a]`` has eigenvalues ``(2, 1, -1)`` on the
eigenspaces ``V-`` (multiples of ``e``), ``V0`` (antisymmetric coefficient
matrices) and ``V+`` (symmetric traceless); the contraction
``Gamma(a) = *[a, *e]`` identifies ``V0`` with 0-forms.

A sign fact this module relies on throughout: the bracket-wedge of two
g-valued **1-forms** is symmetric, ``[x, y]^ = [y, x]^`` (so ``x^y + y^x =
[x,y]^`` and ``a^a = (1/2)[a,a]^``), while the 0-form/1-form bracket is
antisymmetric.  All graded products below are written against that grading.

The three bilinear kernels (``star_wedge``, ``bracket_0_1``,
``star_bracket_star``) are tables read off the Levi-Civita symbol once, at
import, and summed by one stateless function, :func:`_kernel_sum`, in
sparse loops that skip zeros only: on integer numerators by
:func:`_integer_sum`, over the lcm of the terms' denominators.

The two solves of the expansion are closed forms that act entrywise, with no
spectral projection built: :func:`invert_cal_L` inverts ``k + L``, and
:func:`resolve_coupled` solves the whole a/phi_y step, ``(lam - L) a +
[e, phi] = R`` with ``lam phi + Gamma(a) = S``, for any degree-1 ``R``.

Exact kernels pass integer readings to each other: every exact form holds its
integer numerators over one denominator from construction (:func:`_ratios` of
its entries, each at its exact value, or :func:`_form`'s reduced result), whose
``Fraction`` entries are built only when read.  Over exact scalars every
operator takes that integer route; over floats, each dispatches once, on the
field, to its body in :mod:`nahmpole._float`.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd, lcm, perm

import numpy as np

from .scalars import RationalField

__all__ = [
    "EigenPart", "GForm", "ResonantOrder", "SingularLambda", "vierbein",
    "L_op", "gamma_op", "project",
    "star_wedge", "bracket_0_1", "star_bracket_star", "e_bracket", "cal_L",
    "invert_cal_L", "resolve_coupled", "SigmaModule", "LeadingOrders",
    "FreeDims", "leading_order_structure",
]

# Nonzero entries of the Levi-Civita symbol as (i, j, k, sign).
_EPS = (
    (0, 1, 2, 1),
    (1, 2, 0, 1),
    (2, 0, 1, 1),
    (0, 2, 1, -1),
    (2, 1, 0, -1),
    (1, 0, 2, -1),
)


class ResonantOrder(Exception):
    """``k + L`` is not invertible at this integer order.

    Carries the order ``k`` and the eigenspaces on which the scalar divisor
    ``k + eigenvalue`` vanishes.
    """

    def __init__(self, k: int, parts):
        self.k = k
        self.parts = tuple(parts)
        names = ", ".join(p.name for p in self.parts)
        super().__init__(f"resonant order k={k} (singular on {names})")


class SingularLambda(Exception):
    """The coupled (V0, 0-form) solve degenerates at lambda in {2, -1}."""

    def __init__(self, lam):
        self.lam = lam
        super().__init__(f"coupled solve is singular at lambda={lam}")


class EigenPart(enum.IntEnum):
    """Eigenspace selector; the integer order fixes serialization order."""

    Minus = 0
    Zero = 1
    Plus = 2

    def eigenvalue(self, sigma: int = 1) -> int:
        return {EigenPart.Minus: sigma + 1, EigenPart.Zero: 1, EigenPart.Plus: -sigma}[self]


#: The members, bound once: an enum member lookup is slow on Python 3.11.
_PARTS = _MINUS, _ZERO, _PLUS = tuple(EigenPart)


class GForm:
    """Frame-constant g-valued form of degree 0 or 1 over a scalar field.  A form
    never changes.  It keeps its entries as one flat tuple ``_coeffs`` in
    :meth:`entries` order (``c[a][i]`` at slot ``3a + i``); ``coeffs``, the rows, is a
    view built on read.  An exact one holds its canonical integer reading from
    construction, :func:`_ratios` of its entries, or is made from one by :func:`_form`
    and builds its ``Fraction`` entries when they are first read: ``+``, ``-``,
    ``scale``, ``divide`` and ``==`` act on the readings, so an exact form never rounds,
    whatever the types of its entries.  A form over float scalars is made a
    :class:`nahmpole._float.FForm`, which holds no reading."""

    __slots__ = ("field", "degree", "_coeffs", "_ints")

    def __new__(cls, field, degree: int, coeffs):
        return object.__new__(cls if field.exact else _float.FForm)

    def __getnewargs__(self):  # a copied or unpickled form is made by __new__ too
        return self.field, self.degree, None

    def __init__(self, field, degree: int, coeffs):
        self._hold(field, tuple(coeffs) if degree == 0 else tuple(v for r in coeffs for v in r))

    def _hold(self, field, entries: tuple):
        """Keep the 3 or 9 ``entries`` and their reading."""
        self.field, self.degree, self._coeffs = field, 0 if len(entries) == 3 else 1, entries
        self._ints = _ratios(entries)

    @property
    def coeffs(self):
        v = self.entries()
        return v if self.degree == 0 else (v[:3], v[3:6], v[6:])

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(field, degree: int) -> "GForm":
        if degree not in (0, 1):
            raise ValueError(f"degree must be 0 or 1, got {degree}")
        size = 9 if degree else 3
        return (_form(field, (0,) * size, 1) if field.exact
                else GForm.from_entries(field, [field.zero] * size))

    @staticmethod
    def one_form(field, rows) -> "GForm":
        rows = tuple(tuple(_scalar(field, v) for v in row) for row in rows)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("degree-1 coefficients must be a 3x3 matrix")
        return GForm(field, 1, rows)

    @staticmethod
    def zero_form(field, vec) -> "GForm":
        vec = tuple(_scalar(field, v) for v in vec)
        if len(vec) != 3:
            raise ValueError("degree-0 coefficients must be a 3-vector")
        return GForm(field, 0, vec)

    @staticmethod
    def from_entries(field, v) -> "GForm":
        """The form whose :meth:`entries` are ``v`` (3 or 9)."""
        form = GForm.__new__(GForm, field, 0, None)
        form._hold(field, tuple(v))
        return form

    # -- linear structure ---------------------------------------------------

    def _combine(self, other: "GForm", op) -> "GForm":
        """``op`` (``add`` or ``sub``) of two forms of one degree: of their readings'
        numerators, each brought to the lcm of the two denominators, in one list and one
        :func:`_form` (a float operand raises ``TypeError``)."""
        if other.degree != self.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        if not other.field.exact:
            raise TypeError("an exact form meets a scalar one")
        (n, d), (m, e) = self._ints, other._ints
        den = lcm(d, e)
        f, g = den // d, den // e
        return _form(self.field, [op(x * f, y * g) for x, y in zip(n, m)], den)

    def __add__(self, other: "GForm") -> "GForm":
        return self._combine(other, operator.add)

    def __sub__(self, other: "GForm") -> "GForm":
        return self._combine(other, operator.sub)

    def __neg__(self) -> "GForm":
        return self.scale(-1)

    def _times(self, s, op) -> "GForm":
        """``op`` (``mul`` or ``truediv``) of each entry and the scalar ``s``:
        of the reading and ``s``'s exact integer ratio, reduced once."""
        (n, d), (num, den) = self._ints, s.as_integer_ratio()
        num, den = (den, num) if op is operator.truediv else (num, den)
        if not den:
            raise ZeroDivisionError("GForm divided by zero")
        return _form(self.field, [x * num for x in n], d * den)

    def scale(self, s) -> "GForm":
        return self._times(s, operator.mul)

    def divide(self, s) -> "GForm":
        return self._times(s, operator.truediv)

    # -- queries ------------------------------------------------------------

    def entries(self):
        if self._coeffs is None:
            ns, d = self._ints
            self._coeffs = tuple(Fraction(n, d) if n else self.field.zero for n in ns)
        return self._coeffs

    def is_zero(self, scale=None) -> bool:
        """Whether every entry is zero by the field's rule against ``scale``,
        which exact scalars do not read: no nonzero numerator."""
        return not any(self._ints[0])

    def trace(self):
        if self.degree != 1:
            raise ValueError("trace needs a degree-1 form")
        e = self.entries()
        return e[0] + e[4] + e[8]

    def to_floats(self):
        v = [float(x) for x in self.entries()]
        return v if self.degree == 0 else [v[:3], v[3:6], v[6:]]

    def __eq__(self, other):
        """Two exact forms compare their canonical readings (a float form, its slots)."""
        if not isinstance(other, GForm):
            return NotImplemented
        return self.degree == other.degree and self._ints == other._ints

    def __repr__(self):
        return f"GForm(degree={self.degree}, coeffs={self.coeffs!r})"


def vierbein(field=None) -> GForm:
    """The vierbein form ``e``: identity coefficient matrix."""
    field = field or RationalField()
    return GForm.from_entries(field, [field.zero if n % 4 else field.one for n in range(9)])


# ---------------------------------------------------------------------------
# Graded products from structure constants and the frame star.
# ---------------------------------------------------------------------------


def _table(terms):
    """Per x entry, the ``(y entry, out entry, sign)`` of a bilinear map's
    ``(x entry, y entry, out entry, sign)`` terms."""
    rows = [[] for _ in range(9)]
    for i, *term in terms:
        rows[i].append(term)
    return rows


def _ratios(values):
    """The canonical reading of the exact values of ints, ``Fraction``s, floats or
    ``Decimal``s: integer numerators over a positive common denominator with no factor
    common to them all, ``(0, ..., 0) / 1`` when every value is zero."""
    ratios = [v.as_integer_ratio() if v else (0, 1) for v in values]
    d = lcm(*[q for _, q in ratios])
    return tuple(n and n * (d // q) for n, q in ratios), d


def _scalar(field, v):
    """``v`` as an element of ``field``: an int, float or ``Fraction`` through
    ``field.from_fraction``, any other value (an element already) as given."""
    return field.from_fraction(v) if isinstance(v, (int, float, Fraction)) else v


def _exactly(form):
    """A form's entries at their exact values as ``(numerators, denominator)``: an exact
    form's reading, a float form's ratios of its decimals, which are not kept on it."""
    return form._ints if form.field.exact else _ratios(form.entries())


def _form(field, totals, den) -> GForm:
    """The exact form ``totals / den`` (3 or 9 slots), made from its reading:
    reduced by one gcd to the canonical one :func:`_ratios` gives, or the zero
    reading ``(0, ..., 0) / 1`` when every total is zero."""
    form = object.__new__(GForm)  # an exact form: GForm.__new__'s dispatch is not needed
    form.field, form.degree, form._coeffs = field, 0 if len(totals) == 3 else 1, None
    if not any(totals):
        form._ints = (0,) * len(totals), 1
        return form
    g = gcd(den, *totals) if den > 0 else -gcd(den, *totals)
    form._ints = (tuple(totals), den) if g == 1 else (tuple([t // g for t in totals]), den // g)
    return form


def star_wedge(x: GForm, y: GForm) -> GForm:
    """``*[x, y]^`` for two degree-1 forms; symmetric in its arguments."""
    if x.degree != 1 or y.degree != 1:
        raise ValueError("star_wedge needs two degree-1 forms")
    return _kernel_sum(x.field, 9, [(1, x, star_wedge, y)])


def bracket_0_1(phi: GForm, x: GForm) -> GForm:
    """``[phi, x]`` of a 0-form with a 1-form (antisymmetric pairing)."""
    if phi.degree != 0 or x.degree != 1:
        raise ValueError("bracket_0_1 needs a 0-form then a 1-form")
    return _kernel_sum(phi.field, 9, [(1, phi, bracket_0_1, x)])


def star_bracket_star(x: GForm, y: GForm) -> GForm:
    """``*[x, *y]`` of two degree-1 forms (a 0-form; antisymmetric)."""
    if x.degree != 1 or y.degree != 1:
        raise ValueError("star_bracket_star needs two degree-1 forms")
    return _kernel_sum(x.field, 3, [(1, x, star_bracket_star, y)])


#: The table of each bilinear kernel, entry ``3a + i`` standing for ``x[a][i]``.
_TABLES = {
    # out[c][k] = sum eps_{ijk} eps_{abc} x[a][i] y[b][j]
    star_wedge: _table((3 * a + i, 3 * b + j, 3 * c + k, s * t)
                       for i, j, k, s in _EPS for a, b, c, t in _EPS),
    # out[c][i] = sum eps_{abc} phi[a] x[b][i]
    bracket_0_1: _table((a, 3 * b + i, 3 * c + i, s)
                        for a, b, c, s in _EPS for i in range(3)),
    # out[c] = sum eps_{abc} x[a][i] y[b][i]
    star_bracket_star: _table((3 * a + i, 3 * b + i, c, s)
                              for a, b, c, s in _EPS for i in range(3)),
}


def _integer_sum(field, size: int, terms) -> GForm:
    """The exact form ``sum c x`` (``c op(x, y)``; ``op`` None if linear) of
    the read terms ``(c, xs, d, op, ys, e)``, ``x = xs / d`` and ``y = ys / e``,
    summed in integers over the lcm of the terms' denominators, taken once."""
    den, totals = lcm(*[c.denominator * d * e for c, _, d, _, _, e in terms]), [0] * size
    for c, xs, d, op, ys, e in terms:
        f = c.numerator * (den // (c.denominator * d * e))
        if op is None:
            totals = [t + f * x for t, x in zip(totals, xs)]
            continue
        table = _TABLES[op]
        for i, n in enumerate(xs):
            if n:
                n *= f
                for j, o, s in table[i]:
                    if m := ys[j]:
                        totals[o] += n * m if s > 0 else -n * m
    return _form(field, totals, den)


def _kernel_sum(field, size: int, terms) -> GForm:
    """The form ``sum c op(x, y)`` (3 or 9 slots) of the kernel terms ``(c, x,
    op, y)``: the operands' readings summed by :func:`_integer_sum` (over
    floats, ``_float._kernel_sum``).  An exact operand beside a scalar one is
    refused with ``TypeError``, on either field."""
    if not (field.exact and all(x.field.exact and y.field.exact for _, x, _, y in terms)):
        if field.exact:
            raise TypeError("a kernel term pairs an exact operand with a scalar one")
        return _float._kernel_sum(field, size, terms)
    return _integer_sum(field, size, [(c, *x._ints, op, *y._ints) for c, x, op, y in terms])


def e_bracket(phi: GForm) -> GForm:
    """``[e, phi]`` for a 0-form ``phi`` (a V0-valued 1-form): ``[e, phi]_ij =
    -[e, phi]_ji = phi_m`` over the cyclic ``(i, j, m)``, on the integer
    reading of exact entries; other scalars take ``-[phi, e]`` by the kernel."""
    if not phi.field.exact:
        return _kernel_sum(phi.field, 9, [(-1, phi, bracket_0_1, vierbein(phi.field))])
    s, D = phi._ints
    return _form(phi.field, [0, s[2], -s[1], -s[2], 0, s[0], s[1], -s[0], 0], D)


def L_op(a: GForm) -> GForm:
    """``L(a) = *[e, a]`` on degree-1 forms: ``tr(a) I - a^T`` on the integer reading
    of exact entries; other scalars take :func:`star_wedge` with the vierbein."""
    if a.degree != 1:
        raise ValueError("L_op needs a degree-1 form")
    if not a.field.exact:
        return star_wedge(vierbein(a.field), a)
    n, D = a._ints
    tr = n[0] + n[4] + n[8]
    return _form(a.field, [tr - n[3 * s + r] if r == s else -n[3 * s + r]
                           for r in range(3) for s in range(3)], D)


def gamma_op(a: GForm) -> GForm:
    """``Gamma(a) = *[a, *e]``, a 0-form: ``Gamma(a)_m = a_ij - a_ji`` over the
    cyclic ``(i, j, m)``, on the integer reading of exact entries; other
    scalars take :func:`star_bracket_star` with the vierbein."""
    if a.degree != 1:
        raise ValueError("gamma_op needs a degree-1 form")
    if not a.field.exact:
        return star_bracket_star(a, vierbein(a.field))
    n, D = a._ints
    return _form(a.field, [n[5] - n[7], n[6] - n[2], n[1] - n[3]], D)


def project(a: GForm, part: EigenPart) -> GForm:
    """Spectral projection of a degree-1 form onto ``V-``, ``V0`` or ``V+``.

    The eigenspaces of ``L(a) = tr(a) I - a^T`` are the trace line, the
    antisymmetric and the symmetric traceless coefficient matrices, so

        ``V-: tr(a)/3 I``,  ``V0: (a - a^T)/2``,  ``V+: (a + a^T)/2 - tr(a)/3 I``.

    On ``Fraction`` or int entries ``a = n / D`` these act on the integer
    numerators over the one divisor ``3D``, ``2D`` or ``6D`` (``V+``:
    ``3(n_ij + n_ji) - 2 tr(n) delta_ij``), one gcd per form; other
    scalars take the formulas above.  :class:`SigmaModule` builds the same
    projectors by Lagrange interpolation in ``L`` as an independent route.
    """
    if a.degree != 1:
        raise ValueError("project needs a degree-1 form")
    if not a.field.exact:
        return _float.project(a, part)
    n, D = a._ints
    tr, nt = n[0] + n[4] + n[8], n[0::3] + n[1::3] + n[2::3]  # nt: n^T
    if part is _MINUS:
        totals, den = [tr, 0, 0, 0, tr, 0, 0, 0, tr], 3 * D
    elif part is _ZERO:
        totals, den = list(map(operator.sub, n, nt)), 2 * D
    else:
        totals, den = [3 * (x + y) for x, y in zip(n, nt)], 6 * D
        for i in (0, 4, 8):
            totals[i] -= 2 * tr
    return _form(a.field, totals, den)


def cal_L(k, a: GForm) -> GForm:
    """``k a + L(a)`` (the linear operator of the b-coefficient equations)."""
    return a.scale(k) + L_op(a)


def invert_cal_L(k: int, rhs: GForm) -> GForm:
    """Unique preimage of ``rhs`` under ``k + L``.

    On the eigenspaces this is division by ``k + eigenvalue``, so the
    divisors are ``k+2, k+1, k-1`` and the singular orders are
    ``k in {-2, -1, 1}``.  Summed over the three projections, the inverse
    acts entrywise::

        x_ij = (k r_ij + r_ji) / (k^2 - 1)              (i != j)
        x_ii = r_ii / (k - 1) - tr(r) / ((k + 2)(k - 1))

    Over exact scalars, with ``k = l / q`` (``k.as_integer_ratio()``) and
    ``rhs = n / D``, each numerator, homogeneous in ``(l, q)``, times ``q``,
    lies over the one divisor ``D (l+2q)(l^2-q^2)``, one gcd per form.

    :raises ResonantOrder: when ``k`` hits a singular order, carrying the
        offending eigenspace(s).
    """
    if k in (-2, -1, 1):  # k + eigenvalue vanishes on some part
        raise ResonantOrder(k, [part for part in EigenPart if k + part.eigenvalue(1) == 0])
    if not rhs.field.exact:
        return _float.invert_cal_L(k, rhs)
    (n, D), (l, q) = rhs._ints, k.as_integer_ratio()
    tr = n[0] + n[4] + n[8]
    return _form(rhs.field, [
        (n[4 * i] * (l + 2 * q) - q * tr) * (l + q) * q if i == j
        else (l * n[3 * i + j] + q * n[3 * j + i]) * (l + 2 * q) * q
        for i in range(3) for j in range(3)], D * (l + 2 * q) * (l * l - q * q))


def resolve_coupled(lam, R: GForm, S: GForm):
    """Closed-form solve of the a/phi_y step at ``lambda = lam``.

    Unknowns ``(a, phi)``, a degree-1 and a degree-0 form, with::

        (lam - L) a + [e, phi] = R,      lam phi + Gamma(a) = S.

    ``L`` and ``Gamma`` leave ``V+`` and ``V-`` uncoupled, so ``a`` is
    ``R`` over ``lam + 1`` there and over ``lam - 2`` on ``V-``; on ``V0``
    the system couples to ``phi`` with determinant ``d = (lam - 2)(lam + 1)``.
    With ``t = tr(R)/3``, ``Theta = (R - R^T)/2``, ``[e, S]_ij = eps_ijm S_m``
    and ``Gamma(Theta)_m = eps_mij Theta_ij``::

        a_ii  = (R_ii - t) / (lam + 1) + t / (lam - 2)
        a_ij  = (R_ij + R_ji) / (2 (lam + 1)) + (lam Theta_ij - [e, S]_ij) / d
        phi   = ((lam - 1) S - Gamma(Theta)) / d

    Over exact scalars, with ``lam = l / q`` (``lam.as_integer_ratio()``),
    ``R = n / D`` and ``S = s / D_S``, each numerator, homogeneous in ``(l,
    q)``, times ``q``, lies over ``6 D D_S (l + q)(l - 2q)``, one gcd per form.

    :param lam: scalar outside {2, -1}; over exact scalars any rational.
    :param R: degree-1 form.
    :param S: degree-0 form.
    :raises SingularLambda: at ``lam in {2, -1}``.
    """
    if R.degree != 1 or S.degree != 0:
        raise ValueError("resolve_coupled needs (degree-1, degree-0) data")
    field = R.field
    if not field.exact:
        return _float.resolve_coupled(lam, R, S)
    (l, q), (n, D), (s, DS) = lam.as_integer_ratio(), R._ints, S._ints
    if not (l + q) * (l - 2 * q):
        raise SingularLambda(lam)
    tr, a, phi = n[0] + n[4] + n[8], [0] * 9, [0] * 3
    for i, j, m, _ in _EPS[:3]:  # the cyclic triples, as below
        a[4 * i] = 2 * q * DS * ((3 * n[4 * i] - tr) * (l - 2 * q) + tr * (l + q))
        curl = n[3 * i + j] - n[3 * j + i]
        sym = 3 * q * DS * (l - 2 * q) * (n[3 * i + j] + n[3 * j + i])
        anti = 3 * q * (l * DS * curl - 2 * q * D * s[m])
        a[3 * i + j], a[3 * j + i] = sym + anti, sym - anti
        phi[m] = 6 * q * ((l - q) * D * s[m] - q * DS * curl)
    den = 6 * D * DS * (l + q) * (l - 2 * q)
    return _form(field, a, den), _form(field, phi, den)


# ---------------------------------------------------------------------------
# Abstract spin-sigma module: harmonic polynomials of degree sigma tensor R^3.
# ---------------------------------------------------------------------------


def _monomials(sigma: int):
    return [
        (i, j, sigma - i - j)
        for i in range(sigma + 1)
        for j in range(sigma + 1 - i)
    ]


def _harmonic_basis(sigma: int):
    """Closed-form basis of the degree-sigma harmonic polynomials, as columns
    over :func:`_monomials`, and the rows that hold their coordinates.

    Each monomial ``x^i y^j z^k`` with ``k <= 1`` heads the column
    ``sum_n (-1)^n z^(2n+k) / (2n+k)! Lap_xy^n(x^i y^j)``, where
    ``Lap_xy^n = sum_{a+b=n} C(n, a) d_x^(2a) d_y^(2b)``: ``d_z^2`` of each
    term cancels ``Lap_xy`` of the one before, so it is harmonic, and its
    part of z-degree at most one is that monomial alone.  The coordinates of
    a harmonic polynomial are therefore its coefficients on those monomials.
    """
    monos = _monomials(sigma)
    rows = [r for r, m in enumerate(monos) if m[2] <= 1]
    H = np.zeros((len(monos), len(rows)), dtype=object)
    for col, r in enumerate(rows):
        i, j, k = monos[r]
        for a in range(i // 2 + 1):
            for b in range(j // 2 + 1):
                n = a + b
                H[monos.index((i - 2 * a, j - 2 * b, k + 2 * n)), col] = Fraction(
                    (-1) ** n * comb(n, a) * perm(i, 2 * a) * perm(j, 2 * b),
                    factorial(k + 2 * n))
    return H, rows


class SigmaModule:
    """Spin-sigma tensor spin-1 module with the spectral projectors of ``L``.

    Realized concretely on ``Harm_sigma (x) R^3`` where ``Harm_sigma`` is the
    space of degree-sigma harmonic polynomials in three variables, in the
    closed-form basis of :func:`_harmonic_basis` (the monomial basis
    ``(z, y, x)`` at ``sigma = 1``).  The rotation generators
    ``T_a = sum_ij eps_{aij} x_j d_i`` change the power of z by at most one,
    so they act on its coordinates by integer matrices, with
    ``[T_a, T_b] = eps_{abc} T_c``, and

        ``L = sum_a T_a (x) S_a``,   ``(S_a)_{kj} = -eps_{akj}``,

    which has eigenvalues ``(sigma+1, 1, -sigma)`` on total spin
    ``(sigma-1, sigma, sigma+1)`` of dimensions ``(2s-1, 2s+1, 2s+3)``.
    ``T``, ``S`` and ``L`` are exact integer numpy object arrays; each
    projector is the integer Lagrange product in ``L``, divided once.
    """

    def __init__(self, sigma: int):
        if sigma < 1:
            raise ValueError(f"sigma must be >= 1, got {sigma}")
        self.sigma = sigma
        self.field = RationalField()
        H, rows = _harmonic_basis(sigma)
        self.dim_harm = len(rows)
        self.dim = 3 * self.dim_harm

        monos = _monomials(sigma)
        self.T = []
        for a in range(3):
            M = np.zeros((len(monos),) * 2, dtype=object)  # T_a on monomials
            for col, expo in enumerate(monos):
                for a0, i, j, s in _EPS:
                    if a0 == a and expo[i]:
                        new = list(expo)
                        new[i], new[j] = new[i] - 1, new[j] + 1
                        M[monos.index(tuple(new)), col] += s * expo[i]
            image = M @ H
            if any(v.denominator != 1 for v in image[rows].flat):
                raise AssertionError("non-integer generator entry")
            T = image[rows] // 1
            if (H @ T != image).any():
                raise AssertionError("operator does not preserve the harmonic space")
            self.T.append(T)

        self.S = [np.zeros((3, 3), dtype=object) for _ in range(3)]
        for a, j, k, s in _EPS:
            self.S[a][j, k] = -s
        self.L = sum(np.kron(T, S) for T, S in zip(self.T, self.S))
        self.projectors = {part: self._lagrange(part) for part in EigenPart}

    def _lagrange(self, part: EigenPart):
        """``prod_{mu != lam} (L - mu) / (lam - mu)`` over the other two parts."""
        lam = part.eigenvalue(self.sigma)
        one = np.identity(self.dim, dtype=object)
        mu, nu = (other.eigenvalue(self.sigma) for other in EigenPart if other is not part)
        return (self.L - mu * one) @ (self.L - nu * one) * Fraction(1, (lam - mu) * (lam - nu))

    # -- public API ---------------------------------------------------------

    def apply_L(self, vec):
        return list(self.L @ np.array(vec, dtype=object))

    def project_vector(self, vec, part: EigenPart):
        return list(self.projectors[part] @ np.array(vec, dtype=object))

    def part_dims(self):
        """Eigenspace dimensions read off as projector traces."""
        dims = {}
        for part, P in self.projectors.items():
            tr = Fraction(P.trace())
            if tr.denominator != 1:
                raise AssertionError(f"non-integer projector trace {tr}")
            dims[part] = int(tr)
        return dims

    def casimir(self):
        """``sum_a T_a^2`` on the harmonic space (expected ``-s(s+1) Id``)."""
        return sum(T @ T for T in self.T)


@dataclass(frozen=True)
class FreeDims:
    """Free-parameter dimensions per eigenspace (serialization order V-, V0, V+)."""

    minus: int
    zero: int
    plus: int

    def as_tuple(self):
        return (self.minus, self.zero, self.plus)


@dataclass(frozen=True)
class LeadingOrders:
    a_order: int
    b_order: int
    phi_order: int
    free_dims: FreeDims


def leading_order_structure(sigma: int) -> LeadingOrders:
    """Leading exponents and free-data dimensions of the spin-sigma sector.

    The dimensions are read off the abstract module's projector traces (and
    therefore carry the ``2s-1, 2s+1, 2s+3`` pattern as a computation, not an
    assumption); the leading orders are ``a, phi_y ~ y^(sigma+1)`` and
    ``b ~ y^sigma``.
    """
    dims = SigmaModule(sigma).part_dims()
    return LeadingOrders(
        a_order=sigma + 1,
        b_order=sigma,
        phi_order=sigma + 1,
        free_dims=FreeDims(
            minus=dims[EigenPart.Minus],
            zero=dims[EigenPart.Zero],
            plus=dims[EigenPart.Plus],
        ),
    )


from . import _float  # noqa: E402  (the float route builds on the names above)
