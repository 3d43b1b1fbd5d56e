"""The float route: every body of :mod:`nahmpole.algebra`, :mod:`nahmpole.geometry` and
:mod:`nahmpole.series` that computes on float scalars, so those hold the exact engine alone.
Their operators check the field kind once and call their namesakes here (``frame``
derives a float background, ``_rounded`` is ``residual_at``'s float verdict); a float
form is a :class:`FForm`, whose entries are flat: each body reads and writes slot lists
in ``entries()`` order and makes its result by :func:`_fform`.  Each body enters its
field's context once per call (:func:`~nahmpole.scalars.context`) and rounds by the
``Decimal`` operators under it, its helpers (``_products``, ``_star_d``) under that one
context; a coefficient enters the field by ``from_fraction``.  Each body is op for op the
one the float pins were taken on, not its exact twin rounded: berger 3/7's float frame is
not its exact frame rounded once.
"""

from __future__ import annotations

import itertools
import operator
from decimal import Decimal
from fractions import Fraction

from .algebra import (_EPS, _MINUS, _PLUS, _TABLES, _ZERO, EigenPart, GForm, SingularLambda,
                      _scalar, star_bracket_star, star_wedge)
from .scalars import context


class FForm(GForm):
    """A form over float scalars, its entries held flat and no integer reading:
    ``GForm``'s slot-wise methods."""

    __slots__ = ()

    def _hold(self, field, entries: tuple):
        self.field, self.degree, self._coeffs = field, 0 if len(entries) == 3 else 1, entries
        self._ints = None

    def _slotwise(self, op, *others: GForm) -> GForm:
        """``op`` of the matching slots of this form and ``others`` (of its
        degree), under the field's context: the route of float scalars."""
        with context(self.field):
            return _fform(self.field, map(op, self._coeffs, *(o.entries() for o in others)))

    def _combine(self, other: GForm, op) -> GForm:
        if other.degree != self.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        return self._slotwise(op, other)

    def __neg__(self) -> GForm:
        return self._slotwise(operator.neg)

    def _times(self, s, op) -> GForm:
        """Slot by slot, an int, float or ``Fraction`` ``s`` as a field element."""
        s = _scalar(self.field, s)
        return self._slotwise(lambda x: op(x, s))

    def is_zero(self, scale=None) -> bool:
        """Against ``tolerance * scale``, computed once per form."""
        return self.field.within(self.entries(), self.field.bound(scale))

    def trace(self):
        with context(self.field):
            return super().trace()

    def __eq__(self, other):
        if not isinstance(other, GForm):
            return NotImplemented
        return self.degree == other.degree and self._coeffs == other.entries()


def _fform(field, slots) -> FForm:
    """The float form whose entries are ``slots`` (3 or 9, an iterable), kept as they are."""
    form = object.__new__(FForm)
    form._hold(field, tuple(slots))
    return form


def _products(slots, sign, x: GForm, op, y: GForm):
    """``slots`` plus ``sign * op(x, y)`` (``sign`` +-1, ``op`` a kernel), in
    place, under the caller's context: each product of nonzero entries added to
    or subtracted from its slot in turn, in the kernel table's order; an exact
    operand beside a scalar one is refused."""
    if x.field.exact or y.field.exact:
        raise TypeError("a kernel term pairs an exact operand with a scalar one")
    table, ys = _TABLES[op], y.entries()
    for i, xi in enumerate(x.entries()):
        if xi:
            for j, o, s in table[i]:
                if yj := ys[j]:
                    slots[o] = slots[o] + xi * yj if s == sign else slots[o] - xi * yj
    return slots


def _kernel_sum(field, size: int, terms) -> GForm:
    """A +-1 term's products added into one slot list (:func:`_products`); any other
    term built as a form, times ``c``, and added slot by slot."""
    slots = None
    with context(field):
        for c, x, op, y in terms:
            if c == 1 or c == -1:
                slots = _products(slots or [field.zero] * size, c, x, op, y)
            else:
                c = field.from_fraction(c)
                term = [v * c for v in op(x, y).entries()]
                slots = term if slots is None else list(map(operator.add, slots, term))
    return _fform(field, slots or [field.zero] * size)


def project(a: GForm, part: EigenPart) -> GForm:
    e, zero = a.entries(), a.field.zero
    with context(a.field):
        third = (e[0] + e[4] + e[8]) / 3
        if part is _MINUS:
            slots = [third if n % 4 == 0 else zero for n in range(9)]
        elif part is _ZERO:
            slots = [(e[3 * i + j] - e[3 * j + i]) / 2 for i in range(3) for j in range(3)]
        else:
            slots = [e[4 * i] - third if i == j else (e[3 * i + j] + e[3 * j + i]) / 2
                     for i in range(3) for j in range(3)]
    return _fform(a.field, slots)


def invert_cal_L(k: int, rhs: GForm) -> GForm:
    r = rhs.entries()
    with context(rhs.field):
        less, square = k - 1, k * k - 1  # the divisors, formed once
        trace = (r[0] + r[4] + r[8]) / ((k + 2) * less)
        return _fform(rhs.field, [
            r[4 * i] / less - trace if i == j else (k * r[3 * i + j] + r[3 * j + i]) / square
            for i in range(3) for j in range(3)])


def resolve_coupled(lam, R: GForm, S: GForm):
    field = R.field
    lam_s = field.from_fraction(lam) if isinstance(lam, Fraction) else lam
    with context(field):
        plus, minus = lam_s + 1, lam_s - 2  # the divisors on V+ and V-
        d = plus * minus
        if field.is_zero(d):
            raise SingularLambda(lam)
        r, s, twice, less = R.entries(), S.entries(), 2 * plus, lam_s - 1  # formed once
        t = (r[0] + r[4] + r[8]) / 3
        a = [(r[n] - t) / plus + t / minus if n % 4 == 0 else None for n in range(9)]
        phi = [None] * 3
        for i, j, m, _ in _EPS[:3]:  # the cyclic triples, eps_ijm = 1
            rij, rji = r[3 * i + j], r[3 * j + i]
            sym = (rij + rji) / twice
            curl = rij - rji  # 2 Theta_ij = Gamma(Theta)_m
            anti = (lam_s * curl / 2 - s[m]) / d
            a[3 * i + j], a[3 * j + i] = sym + anti, sym - anti
            phi[m] = (less * s[m] - curl) / d
        return _fform(field, a), _fform(field, phi)


def _tensor3(f):
    """The 3x3x3 tuple ``t[k][i][j] = f(k, i, j)``."""
    return tuple(tuple(tuple(f(k, i, j) for j in range(3)) for i in range(3))
                 for k in range(3))


def levi_civita(field, c):
    """Levi-Civita frame coefficients of structure constants ``c``.

    Koszul formula in an orthonormal frame:
    ``G^k_ij = 1/2 (c^k_ij - c^i_jk + c^j_ki)`` with ``nabla_{e_i} e_j =
    G^k_ij e_k``.  The result is the unique metric-compatible torsion-free
    frame connection (both residuals checkable below).
    """
    half = field.from_fraction(Fraction(1, 2))
    with context(field):
        return _tensor3(lambda k, i, j: (c[k][i][j] - c[i][j][k] + c[j][k][i]) * half)


def torsion_residual(field, c, conn):
    """``G^k_ij - G^k_ji - c^k_ij`` (identically zero for Levi-Civita)."""
    with context(field):
        return _tensor3(lambda k, i, j: conn[k][i][j] - conn[k][j][i] - c[k][i][j])


def connection_form(field, conn) -> GForm:
    """su(2) connection form ``W`` of the so(3) frame coefficients.

    ``W[c][i] = -1/2 sum_{k,j} eps_{ckj} G^k_ij`` under the identification of
    antisymmetric matrices with su(2) used everywhere in this package.
    """
    out = [field.zero] * 9
    half = {s: field.from_fraction(Fraction(s, 2)) for s in (1, -1)}
    with context(field):
        for cc, k, j, s in _EPS:
            for i in range(3):
                out[3 * cc + i] = out[3 * cc + i] - conn[k][i][j] * half[s]
    return GForm.from_entries(field, out)


def _star_d_terms(field, c):
    """The terms ``(i, m, c^i_jk, +-1/2)`` of :func:`_star_d`, one per nonzero
    ``c^i_jk`` and ``eps_{jkm} = +-1``."""
    half = {s: field.from_fraction(Fraction(s, 2)) for s in (1, -1)}
    return tuple((i, m, c[i][j][k], half[s]) for j, k, m, s in _EPS for i in range(3)
                 if c[i][j][k])


def _star_d(field, terms, x: GForm):
    """``*(d x)`` of a frame-constant degree-1 form, as a slot list in
    :meth:`GForm.entries` order, by the scalar formula
    ``(*dx)[a][m] = -1/2 sum x[a][i] c^i_jk eps_{jkm}`` over ``terms``, the
    :func:`_star_d_terms` of ``c`` (a float background keeps them as its frame),
    under the caller's context.  Zeros of ``x`` are skipped, as ``terms`` skip
    those of ``c``.
    """
    xs, out = x.entries(), [field.zero] * 9
    for i, m, cijk, half in terms:
        for a in range(3):
            if xs[3 * a + i]:
                out[3 * a + m] = out[3 * a + m] - xs[3 * a + i] * cijk * half
    return out


def star_d(bg, x: GForm) -> GForm:
    """``*(d x)``: :func:`_star_d` of the background's terms."""
    with context(bg.field):
        return _fform(bg.field, _star_d(bg.field, bg._frame, x))


def frame(field, c):
    """``(conn, W, *F, *d terms, the scale of zero tests on *F)`` of float ``c``."""
    bound = field.bound(field.scale(v for plane in c for row in plane for v in row))
    with context(field):
        for k, i, j in itertools.product(range(3), repeat=3):
            if (c[k][i][j] + c[k][j][i]).copy_abs() > bound:
                raise ValueError("structure constants not antisymmetric "
                                 f"at c^{k}_{{{i}{j}}}")
        conn = levi_civita(field, c)
        if not field.within((v for plane in torsion_residual(field, c, conn)
                             for row in plane for v in row), bound):
            raise AssertionError("Koszul output has torsion")
        W, terms = connection_form(field, conn), _star_d_terms(field, c)
        starF = _fform(field, _star_d(field, terms, W)) + star_wedge(W, W).scale(Fraction(1, 2))
        # the terms of *F are c W, W W, and |c| <= 2 max|W|
        return conn, W, starF, terms, field.scale(w * w for w in W.entries())


def einstein_undecided(bg) -> bool:
    """Whether the field's precision cannot decide
    :func:`~nahmpole.geometry.is_einstein`: ``(*F_omega)^+`` is zero against
    the terms of ``*F`` but not against ``*F`` itself, a visible part of the
    curvature below the round-off of the terms that make it.  Never over
    exact scalars."""
    if bg.field.exact:
        return False
    plus = project(bg.starF, _PLUS)
    return plus.is_zero(bg._scale) and not plus.is_zero(bg.field.scale(bg.starF.entries()))


def star_d_omega(bg, x: GForm) -> GForm:
    """The products of ``*[W, x]^`` added into the slot list of :func:`_star_d` itself."""
    with context(bg.field):
        return _fform(bg.field, _products(_star_d(bg.field, bg._frame, x), 1, bg.W, star_wedge, x))


def d_omega_star(bg, x: GForm) -> GForm:
    """The products of ``*[W, *x]`` taken from the trace term's slot list."""
    xs, out = x.entries(), [bg.field.zero] * 3
    with context(bg.field):
        for i, k in itertools.product(range(3), repeat=2):
            if ckik := bg.c[k][i][k]:  # a trace term: the frame may be non-unimodular
                for a in range(3):
                    if xs[3 * a + i]:
                        out[a] = out[a] + xs[3 * a + i] * ckik
        return _fform(bg.field, _products(out, -1, bg.W, star_bracket_star, x))


def _sum(field, degree: int, terms, images, bg):
    """The images' then the terms' slot lists (a term's times ``c``) added slot by slot."""
    parts = [op(bg, x).entries() for op, x in images if x]
    with context(field):
        parts += [x.entries() if c == 1 else [-v for v in x.entries()] if c == -1
                  else list(map(operator.mul, x.entries(),
                                itertools.repeat(field.from_fraction(c))))
                  for c, x in terms if x]
        total = parts[0] if parts else [field.zero] * (9 if degree else 3)
        for part in parts[1:]:
            total = list(map(operator.add, total, part))
    return _fform(field, total), parts


def _rounded(field, acc, terms, pairs, den):
    """The float residual of ``series.residual_at``'s ``terms`` and ``pairs``,
    whose totals ``acc`` are over ``4 den``: each total rounded once, or an
    exact zero where ``|total| <= tolerance * scale``, decided in integers.
    An equation's scale is the largest per-slot sum of ``|term|`` in it (a
    linear term can cancel to round-off: ``K b + L(b)`` on V+, a curl), so
    the verdict does not hang on the summation order of the solver (Higham
    2002, ch. 3)."""
    from .geometry import _BLOCKS, _PAIR_4Q  # read at call time: geometry imports this module
    mag = [0] * 21
    for n, u, x, d, rows in terms:
        x = abs(x) * 4 * (den // d)
        mag[u] += abs(n) * x
        for o, c in rows:
            mag[o] += abs(c) * x
    for xs, dx, ys, dy, weight in pairs:
        f = weight * (den // (dx * dy))
        for u, x in xs:
            row, x = _PAIR_4Q[u], f * abs(x)
            for w, y in ys:
                for o, c in row.get(w, ()):
                    mag[o] += abs(c * y) * x
    tn, td = field.tolerance.as_integer_ratio()
    D, out = Decimal(4 * den), []
    with context(field):
        for r in _BLOCKS:
            bound = tn * max(mag[r.start:r.stop]) // td  # over 4 den, floored
            out.append(_fform(field, [Decimal(t) / D if abs(t) > bound else field.zero
                                      for t in acc[r.start:r.stop]]))
    return tuple(out)
