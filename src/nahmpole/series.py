"""Order-by-order polyhomogeneous expansion engine.

Solves the flow equations in the boundary-expansion ansatz

    A = omega + sum a_{k,p} y^k (log y)^p,
    Phi = e/y + sum b_{k,p} y^k (log y)^p,
    Phi_y = sum (phi_y)_{k,p} y^k (log y)^p,

over a fixed :class:`~nahmpole.geometry.FrameBackground`.  Matching powers of
``y`` and ``log y`` turns the flow of ``v = (a, b, phi_y)``, ``v' = M1 v/y +
*F_w + M0 v + Q(v, v)`` as stated by the term tables of
:mod:`nahmpole.geometry`, into the coefficient equations (sums over k1+k2 =
K-1, p1+p2 = p; absent entries are zero; ``*F_w`` enters the b equation)

    K v_{K,p} + (p+1) v_{K,p+1} = M1 v_{K,p} + M0 v_{K-1,p}
        + d_{K1,p0} *F_w + sum Q(v_{k1,p1}, v_{k2,p2})

The engine seeds k <= 2 (where the free data c+, c0, c- enters through the
kernels at k=1 and the resonance at lambda=2), then advances order by order:
``b_k`` by inverting ``k + L`` and ``(a_{k+1}, (phi_y)_{k+1})`` by the
eigenspace division / coupled 2x2 solve.  Everything is exact over the
rational scalar field, where each step states its terms once and sums them
in integers.  The master self-test is :func:`residual_at`, which
reads those tables but no solver code: as the integer rows compiled once in
:mod:`nahmpole.geometry`, which the integrator reads too, summed over one
denominator on both fields, a float entry read as the exact ratios of its
decimals and each float total rounded once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain

from . import _float
from .algebra import (
    _PARTS, EigenPart, GForm, _exactly, _form, _integer_sum, _kernel_sum, _read, bracket_0_1,
    gamma_op, invert_cal_L, project, resolve_coupled, star_bracket_star, star_wedge, vierbein,
)
from .geometry import (_BLOCKS, _PAIR_4Q, _POLE_COLUMNS, FrameBackground, _frame_terms,
                       d_omega, d_omega_star, is_einstein, star_d_omega)
from .scalars import RationalField

__all__ = [
    "PhgCoeff", "PhgSeries", "FreeData", "QuadSource", "seed_leading",
    "quadratic_source", "advance_order", "expand", "is_log_free",
    "assert_parity", "residual_at", "check_residuals", "evaluate", "to_json",
    "from_json",
]

_HALF = Fraction(1, 2)
_THIRD = Fraction(1, 3)


@dataclass(frozen=True)
class PhgCoeff:
    """The coefficient triple of one ``y^k (log y)^p`` term."""

    a: GForm
    b: GForm
    phi_y: GForm


class PhgSeries:
    """Sparse polyhomogeneous series: map ``(k, p) -> PhgCoeff``.

    Coefficients that are exactly zero are never stored, so structural
    statements (parity, log-freeness) are visible as absence.  ``order`` is
    the last fully computed order ``N``; the solver also leaves the
    determined ``a``/``phi_y`` entries at ``N+1`` in place.

    Instances are immutable once returned by :func:`expand`; the solver
    mutates them only during construction.
    """

    def __init__(self, background=None, field=None, order=0,
                 background_name=None):
        if background is None and field is None:
            raise ValueError("need a background or an explicit scalar field")
        self.background = background
        self.field = field or background.field
        self.order = order
        self.background_name = background_name if background_name is not None else (
            background.name if background is not None else "?")
        self._a, self._b, self._phi = {}, {}, {}
        self._readings = {}  # (k, p) -> (a, b, phi_y, its 21-slot reading): _reading
        self._depths = None  # the stored depths per order while check_residuals runs
        self._zeros = (GForm.zero(self.field, 1),) * 2 + (GForm.zero(self.field, 0),)

    # -- storage ---------------------------------------------------------

    def _store(self, k, p, terms, a=None, b=None, phi_y=None):
        """Store the given forms at (k, p), dropping zero ones.

        ``terms`` set the scale of the field's zero test: a solve step's
        terms and the entries they read, as forms or slot lists, or a parsed
        entry's own forms.  So over float scalars, small genuine values stay
        and round-off goes: a form is zero when its entries lie within
        ``tolerance * scale``.  Exact scalars read no scale, nor its terms.
        """
        scale = self.field.scale(
            chain.from_iterable(t.entries() if isinstance(t, GForm) else t for t in terms))
        for table, form in ((self._a, a), (self._b, b), (self._phi, phi_y)):
            if form is None:
                continue
            if form.is_zero(scale):
                table.pop((k, p), None)
            else:
                table[(k, p)] = form

    def get_a(self, k, p) -> GForm:  # a GForm is always true
        return self._a.get((k, p)) or self._zeros[0]

    def get_b(self, k, p) -> GForm:
        return self._b.get((k, p)) or self._zeros[1]

    def get_phi(self, k, p) -> GForm:
        return self._phi.get((k, p)) or self._zeros[2]

    def at(self, k, p) -> PhgCoeff:
        return PhgCoeff(self.get_a(k, p), self.get_b(k, p), self.get_phi(k, p))

    def addresses(self):
        """Sorted (k, p) addresses holding at least one nonzero coefficient."""
        return sorted(set(self._a) | set(self._b) | set(self._phi))

    def max_p(self) -> int:
        return max((p for _, p in self.addresses()), default=0)

    def __repr__(self):
        return (f"PhgSeries({self.background_name!r}, order={self.order}, "
                f"entries={len(self.addresses())})")


class FreeData:
    """The undetermined expansion constants.

    :param c_plus: V+ part of ``b_1`` (the order-1 kernel of ``1 + L``).
    :param c_zero: V0 part of ``a_2``; forces ``(phi_y)_2 = -1/2 Gamma c0``.
    :param c_minus: V- part of ``a_2`` (the lambda = 2 resonance kernel).

    These are all the kernels: beyond k = 2 the divisors k+2, k+1, k-1 and
    lambda = k+1 of the solve steps stay nonzero.

    Missing fields default to zero.  Each field passed must lie in its
    declared eigenspace; that is checked eagerly.
    """

    def __init__(self, field=None, c_plus=None, c_zero=None, c_minus=None):
        if field is None:
            field = next((f.field for f in (c_plus, c_zero, c_minus) if f is not None), None)
        if field is None:
            raise ValueError("need a scalar field or at least one form")
        self.field = field
        for form, part, label in ((c_plus, EigenPart.Plus, "c_plus"),
                                  (c_zero, EigenPart.Zero, "c_zero"),
                                  (c_minus, EigenPart.Minus, "c_minus")):
            if form is None:
                form = GForm.zero(field, 1)
            elif not (form - project(form, part)).is_zero(
                    None if field.exact else field.scale(form.entries())):
                raise ValueError(f"{label} is not in its declared eigenspace")
            setattr(self, label, form)

    @staticmethod
    def zero(field) -> "FreeData":
        return FreeData(field=field)

    def __repr__(self):
        return (f"FreeData(c_plus={self.c_plus!r}, c_zero={self.c_zero!r}, "
                f"c_minus={self.c_minus!r})")


@dataclass(frozen=True)
class QuadSource:
    """Quadratic convolution sources of one solve step (None: no pairs)."""

    Qa: GForm
    Qb: GForm
    Qphi: GForm


def seed_leading(bg: FrameBackground, free: FreeData = None) -> PhgSeries:
    """Seed the expansion through k = 2.

    Order 1 and the lambda = 2 resonance at order 2 are where every kernel of
    the linearized problem sits, so these coefficients mix curvature data with
    the free constants:

    * ``b_{1,1} = (*F_w)^+`` -- the obstruction term; stored exactly when
      :func:`~nahmpole.geometry.is_einstein` is false, and the root of every
      log term.
    * ``b_1 = c+ + 1/2 (*F_w)^0 + 1/3 (*F_w)^-``.
    * ``a_{2,1} = 1/3 (*d_w b_{1,1})^+ + 1/3 (*d_w b_{1,1})^0`` and
      ``(phi_y)_{2,1} = 1/3 d_w^* b_{1,1}``.
    * ``a_2 = -1/9 (*d_w b_{1,1})^+ + 1/3 (*d_w b_1)^+ + c0 + c-
      - 1/3 (*d_w b_{1,1})^0 + (*d_w b_1)^0`` and ``(phi_y)_2 = -1/2 Gamma c0``
      (the c0 / phi_y pairing is the lambda = 2 kernel).

    All other k <= 2 coefficients vanish.  The k = 1 and k = 2 coefficient
    equations hold exactly for these seeds; the residual suite re-checks that
    rather than trusting the formulas.  Stores are judged as in
    :func:`advance_order`, and ``b_1``, ``b_{1,1}`` are read back from the table.
    """
    field = bg.field
    if free is None:
        free = FreeData.zero(field)
    series = PhgSeries(background=bg, order=2)
    minus, zero, plus = (partial(project, part=part) for part in _PARTS)
    starF = bg.starF
    if not is_einstein(bg):  # the obstruction, by the Einstein verdict's rule
        series._b[(1, 1)] = plus(starF)
    series._store(1, 0, [starF, free.c_plus], b=_sum(  # float adds in the order given
        field, 1, [(1, free.c_plus), (_HALF, zero(starF)), (_THIRD, minus(starF))])[0])
    b11, b1 = series.get_b(1, 1), series.get_b(1, 0)

    sdb11, dsb11 = star_d_omega(bg, b11), d_omega_star(bg, b11)
    sdb11_plus, sdb11_zero = plus(sdb11), zero(sdb11)
    series._store(2, 1, [sdb11, dsb11, b11],
                  a=_sum(field, 1, [(_THIRD, sdb11_plus + sdb11_zero)])[0],
                  phi_y=_sum(field, 0, [(_THIRD, dsb11)])[0])

    sdb1 = star_d_omega(bg, b1)
    a2 = _sum(field, 1, [(Fraction(-1, 9), sdb11_plus), (_THIRD, plus(sdb1)),
                         (1, free.c_zero), (1, free.c_minus),
                         (-_THIRD, sdb11_zero), (1, zero(sdb1))])[0]
    series._store(2, 0, [sdb11, sdb1, b11, b1, free.c_zero, free.c_minus], a=a2,
                  phi_y=_sum(field, 0, [(-_HALF, gamma_op(free.c_zero))])[0])
    return series


def _sum(field, degree: int, terms, images=(), bg=None):
    """The sum of the frame ``images`` ``(op, x)`` (``op(bg, x)``) and the
    ``terms`` ``(coefficient, x)``, an ``x`` of None adding nothing, and the
    slot lists of a float sum's parts (a store's scale).  Over exact scalars
    it is summed in integers, an image stated as its terms (summing these
    linear terms through :func:`~nahmpole.algebra._kernel_sum` as well slowed
    an exact ``expand`` about 5% on a 2-core Xeon); over floats by
    ``_float._sum``."""
    if not field.exact:
        return _float._sum(field, degree, terms, images, bg)
    read = [term for op, x in images if x for term in _frame_terms(bg, op, x)]
    read += [(c, *(x._ints or _read(x)), None, None, 1) for c, x in terms if x]
    return _integer_sum(field, 9 if degree else 3, read), []


def quadratic_source(series: PhgSeries, k: int, p: int) -> QuadSource:
    """Convolution sources for the order-k solve step.

    ``Qa``/``Qphi`` feed the order k+1 equations (their pairs sum to k);
    ``Qb`` feeds the order-k b equation (pairs sum to k-1).  Only stored
    entries contribute, found by probing the tables at each ``(k1, p1)``
    below order k in order; absent coefficients are zero and add no term, and
    a source no pair reaches is None.  Each source is one
    :func:`~nahmpole.algebra._kernel_sum` of its terms: over exact scalars
    summed once in integers, to a reading the solve step reads.
    The ``a^a`` and ``b^b`` sums of ``Qb`` are symmetric, so each unordered
    pair is taken once: ``1/2 (x^y + y^x) = x^y`` off the diagonal, and the
    diagonal pair, added last, keeps its coefficient +-1/2.
    """
    A, B, PHI = series._a, series._b, series._phi
    Qa, Qb, Qphi = [], [], []
    for k1 in range(1, k):  # no entry is stored at order 0
        for p1 in range(p + 1):
            at1, at2 = (k1, p1), (k - 1 - k1, p - p1)
            a1, phi1 = A.get(at1), PHI.get(at1)
            if (a1 or phi1) and (b := B.get((k - k1, p - p1))):  # a GForm is true
                if a1:
                    Qa.append((1, a1, star_wedge, b))
                    Qphi.append((-1, a1, star_bracket_star, b))
                if phi1:
                    Qa.append((1, phi1, bracket_0_1, b))
            if a1 and (phi2 := PHI.get(at2)):
                Qb.append((-1, phi2, bracket_0_1, a1))  # [a, phi_y] = -[phi_y, a]
            if at1 < at2:  # 1/2 a^a - 1/2 b^b
                if a1 and (a2 := A.get(at2)):
                    Qb.append((1, a1, star_wedge, a2))
                if (b1 := B.get(at1)) and (b2 := B.get(at2)):
                    Qb.append((-1, b1, star_wedge, b2))
    if k % 2 and p % 2 == 0:
        at = ((k - 1) // 2, p // 2)  # the diagonal pair, at1 == at2
        for table, sign in ((A, 1), (B, -1)):
            if at in table:
                Qb.append((sign * _HALF, table[at], star_wedge, table[at]))
    return QuadSource(*(_kernel_sum(series.field, size, terms) if terms else None
                        for size, terms in zip((9, 9, 3), (Qa, Qb, Qphi))))


def _top_depth(series: PhgSeries, k: int) -> int:
    """Highest log depth order k can reach (-1 for none): the depths its
    linear terms read at order k-1, and the sums ``p1 + p2`` of the stored
    pairs its quadratic sources convolve (``k1 + k2`` in {k-1, k})."""
    depth = {}
    for kk, p in chain(series._a, series._b, series._phi):
        depth[kk] = max(depth.get(kk, -1), p)
    return max([depth.get(k - 1, -1)] + [
        p1 + depth[n - k1] for k1, p1 in depth.items() for n in (k - 1, k)
        if n - k1 in depth])


def advance_order(series: PhgSeries, k: int) -> None:
    """Compute ``b_k`` and ``(a, phi_y)_{k+1}`` at every log depth.

    Works down from the highest depth order k can reach (:func:`_top_depth`),
    since the ``(p+1)``-ladder couples each depth to the one above.  For
    each p:

    * ``b_{k,p}`` solves ``(k + L) b = *d_w a_{k-1,p} + d_w (phi_y)_{k-1,p}
      - (p+1) b_{k,p+1} + Qb`` by the entrywise closed form of
      :func:`invert_cal_L`;
    * with ``R = *d_w b_{k,p} - (p+1) a_{k+1,p+1} + Qa`` and
      ``S = d_w^* b_{k,p} - (p+1) (phi_y)_{k+1,p+1} + Qphi``,
      ``(a, phi_y)_{k+1,p}`` is one :func:`resolve_coupled` call at
      lambda = k+1: ``R`` over k+2 on V+ and k-1 on V-, and the coupled
      V0 / 0-form block.

    Each right-hand side is one :func:`_sum` of the frame images, the
    ``-(p+1)`` ladder term and the source: one integer reading over exact
    scalars, which the solves read.

    A term enters only where its table entries are present; a step with no
    terms is skipped.  Zero results are not stored.
    """
    if k < 2:
        raise ValueError("advance_order starts at k = 2; lower orders are seeded")
    bg, field = series.background, series.field
    A, B, PHI = series._a, series._b, series._phi
    for p in range(_top_depth(series, k), -1, -1):
        q = quadratic_source(series, k, p)
        a, phi, b = A.get((k - 1, p)), PHI.get((k - 1, p)), B.get((k, p + 1))
        if a or phi or b or q.Qb:  # the entries read join the scale: a curl can be round-off
            rhs_b, terms = _sum(field, 1, [(-(p + 1), b), (1, q.Qb)],
                                [(star_d_omega, a), (d_omega, phi)], bg)
            series._store(k, p, terms + [*filter(None, (a, phi))], b=invert_cal_L(k, rhs_b))

        b, a, phi = B.get((k, p)), A.get((k + 1, p + 1)), PHI.get((k + 1, p + 1))
        if b or a or phi or q.Qa or q.Qphi:
            R, r_terms = _sum(field, 1, [(-(p + 1), a), (1, q.Qa)], [(star_d_omega, b)], bg)
            S, s_terms = _sum(field, 0, [(-(p + 1), phi), (1, q.Qphi)], [(d_omega_star, b)], bg)
            a_next, phi_next = resolve_coupled(k + 1, R, S)
            series._store(k + 1, p, r_terms + s_terms + ([b] if b else []),
                          a=a_next, phi_y=phi_next)


def expand(bg: FrameBackground, free: FreeData = None, N: int = 2) -> PhgSeries:
    """Seed and advance the expansion through order ``N`` (N >= 2).

    A pure function of its inputs: all arithmetic is exact in the
    background's scalar field and the order walk is sequential, so identical
    inputs give identical series.  On exact scalars the kernels pass integer
    readings to each other; ``Fraction`` entries are built for stored forms.
    """
    if N < 2:
        raise ValueError("expansion order must be at least 2")
    series = seed_leading(bg, free)
    for k in range(2, N + 1):
        advance_order(series, k)
    series.order = N
    return series


def is_log_free(series: PhgSeries) -> bool:
    """True iff no stored coefficient sits at log depth p >= 1."""
    return all(p == 0 for _, p in series.addresses())


def assert_parity(series: PhgSeries):
    """List parity violations: stored ``a``/``phi_y`` at odd k or ``b`` at
    even k, as ``(component, k, p)`` tuples.  Empty means parity-clean.
    """
    return [(name, k, p)
            for name, table, wrong in (("a", series._a, 1), ("b", series._b, 0),
                                       ("phi_y", series._phi, 1))
            for k, p in sorted(table) if k % 2 == wrong]


def _reading(series: PhgSeries, at):
    """The entry at ``at`` as the nonzero ``(slot, numerator)`` of its 21 slots
    ``(a | b | phi_y)`` over one denominator (:func:`~nahmpole.algebra._exactly`), kept on the
    series as long as its three stored forms are the same objects."""
    a, b, phi = series._a.get(at), series._b.get(at), series._phi.get(at)
    kept = series._readings.get(at)
    if kept is None or kept[0] is not a or kept[1] is not b or kept[2] is not phi:
        parts = [(block, _exactly(f)) for block, f in zip(_BLOCKS, (a, b, phi)) if f]
        den = math.lcm(*(d for _, (_, d) in parts))
        kept = series._readings[at] = a, b, phi, ([(block[u], n * (den // d)) for block, (
            ns, d) in parts for u, n in enumerate(ns) if n], den)
    return kept[3]


def _stored_depths(series: PhgSeries):
    """The stored depths of each order, ``{k: [p, ...]}`` ascending, from one pass
    over the three tables' keys; :func:`check_residuals` keeps them on the series
    while it runs, and :func:`residual_at` reads the tables as they stand else."""
    depths = {}
    for k, p in sorted(set(chain(series._a, series._b, series._phi))):
        depths.setdefault(k, []).append(p)
    return depths


def residual_at(series: PhgSeries, K: int, p: int):
    """Residuals (LHS - RHS) of the three coefficient equations at (K, p).

    The flow's term tables (:mod:`nahmpole.geometry`) read at ``y^(K-1)
    (log y)^p``: ``K v_{K,p} + (p+1) v_{K,p+1}`` less the pole rows on
    ``v_{K,p}``, the frame rows on ``v_{K-1,p}``, ``*F_w`` at (1, 0) and the
    pair rows on each pair of stored addresses summing to (K-1, p).  It
    shares no code with the solver, so a sign or index error in either shows
    up here.  Absent entries contribute no term.

    On both fields the three equations are 21 integer totals ``(a | b |
    phi_y)`` over one denominator, a float entry read as the exact ratios of
    its decimals.  An address is present when one of the three tables holds
    it.  Each stored address is read once into 21 slots, kept on the series
    and checked against its three forms by identity, so a replaced or deleted
    entry is read afresh.  The rows are the term tables compiled once in
    :mod:`nahmpole.geometry`, which the integrator reads too: the pole
    columns, the background's frame columns (a float background's images
    read exactly) and the symmetric pair table ``4Q``, through which each
    unordered pair ``at1 <= at2`` enters once, found by the stored depths of
    each order (:func:`_stored_depths`).  A cell whose totals all vanish, or
    that no term reaches, builds no form: it is the series' three shared zero
    readings.  Else over exact scalars the totals are returned as readings (no
    ``Fraction``); over floats each is rounded once, or is an exact zero
    against its equation's scale (``_float._rounded``).
    """
    field, bg, terms = series.field, series.background, []
    if bg is None:
        raise ValueError("series has no background attached")
    A, B, PHI = series._a, series._b, series._phi
    for n, at, columns in ((K, (K, p), _POLE_COLUMNS), (p + 1, (K, p + 1), None),
                           (0, (K - 1, p), bg._columns)):
        if at in A or at in B or at in PHI:  # n v - rows(v), slot by slot
            xs, d = _reading(series, at)
            for u, x in xs:
                out, e = ((), 1) if columns is None else columns[u]
                terms.append((n * e, u, x, d * e, out))
    if (K, p) == (1, 0):  # -*F_w
        ns, d = _exactly(bg.starF)
        terms += [(-1, _BLOCKS[1][o], m, d, ()) for o, m in enumerate(ns) if m]
    # over 4 den: Q(v1, v2) + Q(v2, v1) is twice 4Q off the diagonal, Q(v, v) once on it
    depths = series._depths or _stored_depths(series)
    pairs = [(*_reading(series, at1), *_reading(series, at2), 1 if at1 == at2 else 2)
             for k1 in range(1, (K + 1) // 2)  # at1 <= at2, in (k1, p1) order
             if k1 in depths and (k2 := K - 1 - k1) in depths
             for p1 in depths[k1] if p1 <= (p if k1 < k2 else p // 2) and p - p1 in depths[k2]
             for at1, at2 in [((k1, p1), (k2, p - p1))]]
    if not (terms or pairs):
        return series._zeros
    acc, den = [0] * 21, math.lcm(*(t[3] for t in terms), *(t[1] * t[3] for t in pairs))
    for n, u, x, d, rows in terms:
        x *= 4 * (den // d)
        acc[u] += n * x
        for o, c in rows:
            acc[o] -= c * x
    for xs, dx, ys, dy, weight in pairs:
        f = weight * (den // (dx * dy))
        for u, x in xs:
            row, x = _PAIR_4Q[u], f * x
            for w, y in ys:
                for o, c in row.get(w, ()):
                    acc[o] -= c * x * y
    if not any(acc):  # a verified cell
        return series._zeros
    if not field.exact:
        return _float._rounded(field, acc, terms, pairs, den)
    return tuple(_form(field, acc[r.start:r.stop], 4 * den) for r in _BLOCKS)


def check_residuals(series: PhgSeries, through: int = None):
    """Evaluate every coefficient equation the stored table must satisfy.

    Checks all three equations for K = 1..order and the a/phi_y equations at
    K = order+1 (whose coefficients the last solve step determined), at every
    log depth up to one past the stored maximum.  Returns the list of
    ``(K, p, name)`` addresses with nonzero residual -- empty means the
    series is an exact solution of the coefficient system.  A residual is
    zero when its reading's numerators are: over float scalars
    :func:`residual_at` returns a total negligible next to its terms as an
    exact zero.  It makes one :func:`residual_at` call per
    ``(K, p)``, on either field one route, and these share the 21-slot
    reading kept for each stored address; a verified cell builds no form.

    ``through`` stops the check at a lower order; it must lie in
    ``1..order``, since no later coefficient was computed.
    """
    N = through if through is not None else series.order
    if not 1 <= N <= series.order:
        raise ValueError(f"through={N} is outside the computed orders 1..{series.order}")
    pmax, zeros = series.max_p() + 1, series._zeros
    series._depths = _stored_depths(series)
    try:
        return [(K, p, name) for K in range(1, N + 2) for p in range(pmax, -1, -1)
                if (cell := residual_at(series, K, p)) is not zeros  # else a verified cell
                for R, name in zip(cell, ("a", "b", "phi_y"))
                if (name != "b" or K <= N) and any(_read(R)[0])]
    finally:
        series._depths = None


def evaluate(series: PhgSeries, y, N: int = None):
    """Numerically evaluate the truncated expansion at ``0 < y < 1``.

    Returns float matrices ``(A, Phi, Phi_y)`` with the background parts
    included: ``A = W + sum a``, ``Phi = e/y + sum b``.
    """
    import numpy as np

    if series.background is None:
        raise ValueError("series has no background attached")
    y = float(y)
    if not 0.0 < y < 1.0:
        raise ValueError(f"evaluation point must satisfy 0 < y < 1, got {y}")
    if N is None:
        N = series.order
    if N > series.order:
        raise ValueError(f"truncation {N} exceeds computed order {series.order}")
    ly = math.log(y)
    A = np.array(series.background.W.to_floats(), dtype=float)
    Phi = np.array(vierbein(series.field).to_floats(), dtype=float) / y
    Phi_y = np.zeros(3)
    for total, table in ((A, series._a), (Phi, series._b), (Phi_y, series._phi)):
        for (k, p), form in table.items():
            if k <= N:
                total += np.array(form.to_floats()) * y**k * ly**p
    return A, Phi, Phi_y


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------

#: An entry in ``json.dumps(indent=2)``'s layout: k, p and a quoted ``{}`` per scalar.
_ROW = '[\n          "{}",\n          "{}",\n          "{}"\n        ]'
_ENTRY = ('{{\n      "k": {},\n      "p": {},\n'
          f'      "a": [\n        {_ROW},\n        {_ROW},\n        {_ROW}\n      ],\n'
          f'      "b": [\n        {_ROW},\n        {_ROW},\n        {_ROW}\n      ],\n'
          '      "phi_y": [\n        "{}",\n        "{}",\n        "{}"\n      ]\n    }}')


def _printed(field, form: GForm):
    """The field's ``format`` of each entry; an unbuilt exact reading prints each
    slot off its integers, one gcd per nonzero numerator, a zero as ``0/1``."""
    if form._coeffs is not None:
        return map(field.format, form.entries())
    ns, d = form._ints
    return (f"{n // (g := math.gcd(n, d))}/{d // g}" if n else "0/1" for n in ns)


def to_json(series: PhgSeries) -> str:
    """Canonical JSON for a series: entries sorted by (k, p), scalars as
    strings (rationals ``p/q`` in lowest terms, floats as decimal literals).
    Identical series give identical bytes.  The text is written directly, in
    ``json.dumps(doc, indent=2)``'s layout; each scalar is the field's
    ``format``, which needs no escaping and prints a rational entry from its
    own numerator and denominator, so entries must be in lowest terms, or
    off an unbuilt reading's integers (:func:`_printed`)."""
    field = series.field
    tables = tuple(zip((series._a, series._b, series._phi), series._zeros))
    entries = [_ENTRY.format(k, p, *chain(*(_printed(field, table.get((k, p), zero))
                                            for table, zero in tables)))
               for k, p in series.addresses()]
    return (f'{{\n  "background": {json.dumps(series.background_name)},\n'
            f'  "order": {series.order},\n  "entries": '
            + ("[\n    " + ",\n    ".join(entries) + "\n  ]" if entries else "[]") + "\n}\n")


def from_json(text: str, background: FrameBackground = None,
              field=None) -> PhgSeries:
    """Rebuild a series from :func:`to_json` output.

    A background may be attached for residual checks / evaluation; its name
    must then match the serialized header, and its field be exact just when
    ``field`` is, and of the same precision.
    """
    doc = json.loads(text)
    if background is not None and field is None:
        field = background.field
    field = field or RationalField()
    name = doc["background"]
    if background is not None and background.name != name:
        raise ValueError(
            f"series was computed on {name!r}, not {background.name!r}")
    if background is not None and background.field.exact != field.exact:
        raise ValueError(f"a {field.name} series cannot be read on a "
                         f"{background.field.name} background")
    if background is not None and getattr(background.field, "bits", 0) != getattr(
            field, "bits", 0):
        raise ValueError(f"a {field.bits}-bit float series cannot be read on a "
                         f"{background.field.bits}-bit float background")
    series = PhgSeries(background=background, field=field,
                       order=int(doc["order"]), background_name=name)
    for entry in doc["entries"]:
        k, p = int(entry["k"]), int(entry["p"])
        a, b = (GForm.one_form(field, [[field.parse(v) for v in row] for row in entry[key]])
                for key in ("a", "b"))
        phi = GForm.zero_form(field, [field.parse(v) for v in entry["phi_y"]])
        series._store(k, p, (a, b, phi), a=a, b=b, phi_y=phi)
    return series
