"""Order-by-order polyhomogeneous expansion engine.

Solves the flow equations in the boundary-expansion ansatz

    A = omega + sum a_{k,p} y^k (log y)^p,
    Phi = e/y + sum b_{k,p} y^k (log y)^p,
    Phi_y = sum (phi_y)_{k,p} y^k (log y)^p,

over a fixed :class:`~nahmpole.geometry.FrameBackground`.  Matching powers of
``y`` and ``log y`` turns the three flow equations into the coefficient
equations (all sums over k1+k2 = K-1, p1+p2 = p; absent entries are zero)

    K a_{K,p} + (p+1) a_{K,p+1} - L(a_{K,p}) + [e, (phi_y)_{K,p}]
        = *d_w b_{K-1,p} + sum (*[a,b] + [phi_y, b])
    K b_{K,p} + L(b_{K,p}) + (p+1) b_{K,p+1}
        = d_{K1,p0} *F_w + *d_w a_{K-1,p} + d_w (phi_y)_{K-1,p}
          + sum (1/2 *[a,a] - 1/2 *[b,b] + [a, phi_y])
    K (phi_y)_{K,p} + (p+1)(phi_y)_{K,p+1} + Gamma(a_{K,p})
        = d_w^* b_{K-1,p} - sum *[a, *b]

The engine seeds k <= 2 (where the free data c+, c0, c- enters through the
kernels at k=1 and the resonance at lambda=2), then advances order by order:
``b_k`` by inverting ``k + L`` and ``(a_{k+1}, (phi_y)_{k+1})`` by the
eigenspace division / coupled 2x2 solve.  Everything is exact over the
rational scalar field; the independently assembled residuals of the three
equations above are the master self-test.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .algebra import (
    EigenPart,
    GForm,
    accumulate,
    bracket_0_1,
    e_bracket,
    gamma_op,
    invert_cal_L,
    L_op,
    project,
    resolve_coupled,
    star_bracket_star,
    star_wedge,
    vierbein,
)
from .geometry import FrameBackground, d_omega, d_omega_star, star_d_omega
from .scalars import RationalField, exact_zero

__all__ = [
    "PhgCoeff",
    "PhgSeries",
    "FreeData",
    "QuadSource",
    "seed_leading",
    "quadratic_source",
    "advance_order",
    "expand",
    "is_log_free",
    "assert_parity",
    "residual_at",
    "check_residuals",
    "evaluate",
    "to_json",
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
        self.background_name = background_name or (
            background.name if background is not None else "?")
        self._a = {}
        self._b = {}
        self._phi = {}

    # -- storage ---------------------------------------------------------

    def _store(self, k, p, terms, a=None, b=None, phi_y=None):
        """Store the given forms at (k, p), dropping zero ones.

        ``terms`` set the scale of the field's zero test: a solve step's
        terms and the entries they read, or a parsed entry's own forms.  So
        over float scalars, small genuine values stay and round-off goes.
        """
        scale = self.field.scale(v for t in terms for v in t.entries())
        for table, form in ((self._a, a), (self._b, b), (self._phi, phi_y)):
            if form is None:
                continue
            if form.is_zero(scale):
                table.pop((k, p), None)
            else:
                table[(k, p)] = form

    def get_a(self, k, p) -> GForm:
        got = self._a.get((k, p))
        return got if got is not None else GForm.zero(self.field, 1)

    def get_b(self, k, p) -> GForm:
        got = self._b.get((k, p))
        return got if got is not None else GForm.zero(self.field, 1)

    def get_phi(self, k, p) -> GForm:
        got = self._phi.get((k, p))
        return got if got is not None else GForm.zero(self.field, 0)

    def at(self, k, p) -> PhgCoeff:
        return PhgCoeff(self.get_a(k, p), self.get_b(k, p), self.get_phi(k, p))

    def addresses(self):
        """Sorted (k, p) addresses holding at least one nonzero coefficient."""
        return sorted(set(self._a) | set(self._b) | set(self._phi))

    def max_p(self) -> int:
        addrs = self.addresses()
        return max((p for _, p in addrs), default=0)

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

    Missing fields default to zero.  Each field must lie in its declared
    eigenspace; that is checked eagerly.
    """

    def __init__(self, field=None, c_plus=None, c_zero=None, c_minus=None):
        if field is None:
            for form in (c_plus, c_zero, c_minus):
                if form is not None:
                    field = form.field
                    break
        if field is None:
            raise ValueError("need a scalar field or at least one form")
        self.field = field
        self.c_plus = c_plus if c_plus is not None else GForm.zero(field, 1)
        self.c_zero = c_zero if c_zero is not None else GForm.zero(field, 1)
        self.c_minus = c_minus if c_minus is not None else GForm.zero(field, 1)
        for form, part, label in (
            (self.c_plus, EigenPart.Plus, "c_plus"),
            (self.c_zero, EigenPart.Zero, "c_zero"),
            (self.c_minus, EigenPart.Minus, "c_minus"),
        ):
            if not (form - project(form, part)).is_zero(field.scale(form.entries())):
                raise ValueError(f"{label} is not in its declared eigenspace")

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

    * ``b_{1,1} = (*F_w)^+`` -- the obstruction term; nonzero exactly when the
      background is not Einstein, and the root of every log term.
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

    starF = bg.starF
    series._store(1, 1, [starF], b=project(starF, EigenPart.Plus))
    series._store(1, 0, [starF, free.c_plus],
                  b=(free.c_plus + project(starF, EigenPart.Zero).scale(_HALF)
                     + project(starF, EigenPart.Minus).scale(_THIRD)))
    b11, b1 = series.get_b(1, 1), series.get_b(1, 0)

    sdb11 = star_d_omega(bg, b11)
    sdb11_plus = project(sdb11, EigenPart.Plus)
    sdb11_zero = project(sdb11, EigenPart.Zero)
    dsb11 = d_omega_star(bg, b11)
    series._store(2, 1, [sdb11, dsb11, b11],
                  a=(sdb11_plus + sdb11_zero).scale(_THIRD),
                  phi_y=dsb11.scale(_THIRD))

    sdb1 = star_d_omega(bg, b1)
    a2 = (sdb11_plus.scale(Fraction(-1, 9))
          + project(sdb1, EigenPart.Plus).scale(_THIRD)
          + free.c_zero + free.c_minus
          + sdb11_zero.scale(Fraction(-1, 3))
          + project(sdb1, EigenPart.Zero))
    series._store(2, 0, [sdb11, sdb1, b11, b1, free.c_zero, free.c_minus], a=a2,
                  phi_y=gamma_op(free.c_zero).scale(Fraction(-1, 2)))
    return series


def quadratic_source(series: PhgSeries, k: int, p: int) -> QuadSource:
    """Convolution sources for the order-k solve step.

    ``Qa``/``Qphi`` feed the order k+1 equations (their pairs sum to k);
    ``Qb`` feeds the order-k b equation (pairs sum to k-1).  Only stored
    entries contribute; absent coefficients are zero (stored entries never
    are, so a table miss is the zero test), and a source no pair reaches is
    None.  Each source is accumulated straight into one slot list.  The
    ``a^a`` and ``b^b`` sums of ``Qb`` are symmetric, so each unordered pair
    is taken once: ``1/2 (x^y + y^x) = x^y`` off the diagonal, and only the
    diagonal pair is halved.
    """
    A, B, PHI = series._a, series._b, series._phi
    field = series.field
    slots = {}  # source name -> slot list, made by the first pair it takes

    def into(name, n=9):
        return slots.setdefault(name, [field.zero] * n)

    for k1 in range(1, k):
        for p1 in range(p + 1):
            b2 = B.get((k - k1, p - p1))
            if b2 is None:
                continue
            a1, phi1 = A.get((k1, p1)), PHI.get((k1, p1))
            if a1 is not None:
                accumulate(star_wedge, a1, b2, into("Qa"))
                accumulate(star_bracket_star, a1, b2, into("Qphi", 3), -1)
            if phi1 is not None:
                accumulate(bracket_0_1, phi1, b2, into("Qa"))

    symmetric = ((A, 1), (B, -1))  # 1/2 a^a - 1/2 b^b
    for k1 in range(1, k - 1):
        for p1 in range(p + 1):
            at1, at2 = (k1, p1), (k - 1 - k1, p - p1)
            a1, phi2 = A.get(at1), PHI.get(at2)
            if a1 is not None and phi2 is not None:
                # [a, phi_y] = -[phi_y, a]
                accumulate(bracket_0_1, phi2, a1, into("Qb"), -1)
            if at1 <= at2:
                for table, sign in symmetric:
                    if at1 in table and at2 in table:
                        accumulate(star_wedge, table[at1], table[at2],
                                   into("Qb" if at1 < at2 else "diag"), sign)
    if "diag" in slots:
        slots["Qb"] = [q + d * _HALF for q, d in zip(into("Qb"), slots["diag"])]
    return QuadSource(*(slots.get(name) and GForm.from_entries(field, slots[name])
                        for name in ("Qa", "Qb", "Qphi")))


def _top_depth(series: PhgSeries, k: int) -> int:
    """Highest log depth order k can reach (-1 for none): the depths its
    linear terms read at order k-1, and the sums ``p1 + p2`` of the stored
    pairs its quadratic sources convolve (``k1 + k2`` in {k-1, k})."""
    depth = {}
    for kk, p in series.addresses():
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
      - (p+1) b_{k,p+1} + Qb``;
    * with ``R = *d_w b_{k,p} - (p+1) a_{k+1,p+1} + Qa`` and
      ``S = d_w^* b_{k,p} - (p+1) (phi_y)_{k+1,p+1} + Qphi``, the V+/V- parts
      of ``a_{k+1,p}`` are ``R`` over k+2 and k-1, while the V0 part couples
      to ``phi_y`` through the 2x2 solve at lambda = k+1.

    A term enters only where its table entries are present; a step with no
    terms is skipped.  Zero results are not stored.
    """
    if k < 2:
        raise ValueError("advance_order starts at k = 2; lower orders are seeded")
    bg = series.background
    field = series.field
    A, B, PHI = series._a, series._b, series._phi
    zero1 = GForm.zero(field, 1)
    for p in range(_top_depth(series, k), -1, -1):
        q = quadratic_source(series, k, p)
        pp1 = field.from_int(p + 1)
        # GForms are truthy: ``x and f(x)`` is None just when x is absent
        a, phi, b = A.get((k - 1, p)), PHI.get((k - 1, p)), B.get((k, p + 1))
        rhs_b = [*filter(None, (a and star_d_omega(bg, a), phi and d_omega(bg, phi),
                                b and b.scale(-pp1), q.Qb))]
        if rhs_b:  # the entries read join the scale: a curl can be round-off
            series._store(k, p, rhs_b + [*filter(None, (a, phi))],
                          b=invert_cal_L(k, sum(rhs_b, zero1)))

        b, a, phi = B.get((k, p)), A.get((k + 1, p + 1)), PHI.get((k + 1, p + 1))
        R = [*filter(None, (b and star_d_omega(bg, b), a and a.scale(-pp1), q.Qa))]
        S = [*filter(None, (b and d_omega_star(bg, b), phi and phi.scale(-pp1),
                            q.Qphi))]
        if not (R or S):
            continue
        R_sum = sum(R, zero1)
        S_sum = sum(S, GForm.zero(field, 0))
        a_plus = project(R_sum, EigenPart.Plus).divide(field.from_int(k + 2))
        a_minus = project(R_sum, EigenPart.Minus).divide(field.from_int(k - 1))
        a_zero, phi_next = resolve_coupled(
            k + 1, project(R_sum, EigenPart.Zero), S_sum)
        series._store(k + 1, p, R + S + ([b] if b else []),
                      a=a_plus + a_minus + a_zero, phi_y=phi_next)


def expand(bg: FrameBackground, free: FreeData = None, N: int = 2) -> PhgSeries:
    """Seed and advance the expansion through order ``N`` (N >= 2).

    A pure function of its inputs: all arithmetic is exact in the
    background's scalar field and the order walk is sequential, so identical
    inputs give identical series.
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
    bad = []
    for (k, p) in sorted(series._a):
        if k % 2 == 1:
            bad.append(("a", k, p))
    for (k, p) in sorted(series._b):
        if k % 2 == 0:
            bad.append(("b", k, p))
    for (k, p) in sorted(series._phi):
        if k % 2 == 1:
            bad.append(("phi_y", k, p))
    return bad


def _residual_terms(series: PhgSeries, K: int, p: int):
    """The terms (LHS - RHS) of the three coefficient equations at (K, p),
    as ``(equation, term, read, frame)``.  ``read`` is the stored form a
    linear term is computed from, None for the other terms: a linear term can
    cancel to round-off (``K b + L(b)`` on V+, a curl), so over floats it
    joins the scale the residual is judged by.  ``frame`` is True for the
    frame operators, whose products multiply ``read`` by entries of ``c`` or
    ``W``."""
    bg = series.background
    field = series.field
    if bg is None:
        raise ValueError("series has no background attached")
    A, B, PHI = series._a, series._b, series._phi
    pp1 = field.from_int(p + 1)
    kf = field.from_int(K)

    aK, bK, phiK = (t.get((K, p)) for t in (A, B, PHI))
    aU, bU, phiU = (t.get((K, p + 1)) for t in (A, B, PHI))
    aD, bD, phiD = (t.get((K - 1, p)) for t in (A, B, PHI))
    # GForms are truthy: a term ``x and f(x)`` is None just when x is absent
    for i, term, read, frame in (
            (0, aK and aK.scale(kf) - L_op(aK), aK, False),
            (0, aU and aU.scale(pp1), aU, False),
            (0, phiK and e_bracket(phiK), phiK, False),
            (0, bD and -star_d_omega(bg, bD), bD, True),
            (1, bK and bK.scale(kf) + L_op(bK), bK, False),
            (1, bU and bU.scale(pp1), bU, False),
            (1, aD and -star_d_omega(bg, aD), aD, True),
            (1, phiD and -d_omega(bg, phiD), phiD, True),
            (1, -bg.starF if (K, p) == (1, 0) else None, None, False),
            (2, phiK and phiK.scale(kf), phiK, False),
            (2, phiU and phiU.scale(pp1), phiU, False),
            (2, aK and gamma_op(aK), aK, False),
            (2, bD and -d_omega_star(bg, bD), bD, True)):
        if term is not None:
            yield i, term, read, frame

    for k1 in range(1, K - 1):
        k2 = (K - 1) - k1
        for p1 in range(p + 1):
            a1, b1, phi1 = (t.get((k1, p1)) for t in (A, B, PHI))
            a2, b2, phi2 = (t.get((k2, p - p1)) for t in (A, B, PHI))
            if a1 is not None and b2 is not None:
                yield 0, -star_wedge(a1, b2), None, False
                yield 2, star_bracket_star(a1, b2), None, False
            if phi1 is not None and b2 is not None:
                yield 0, -bracket_0_1(phi1, b2), None, False
            if a1 is not None and a2 is not None:
                yield 1, -star_wedge(a1, a2).scale(_HALF), None, False
            if b1 is not None and b2 is not None:
                yield 1, star_wedge(b1, b2).scale(_HALF), None, False
            if phi2 is not None and a1 is not None:
                yield 1, bracket_0_1(phi2, a1), None, False


def residual_at(series: PhgSeries, K: int, p: int):
    """Residuals (LHS - RHS) of the three coefficient equations at (K, p).

    Assembled directly from the stored table with its own convolution loops
    -- no shared code with the solver path -- so that a sign or index error
    in either shows up as a nonzero residual.  Absent entries are zero and
    contribute no term.  An entry that is zero against the largest term that
    entered it (the field's rule, as in :meth:`PhgSeries._store`) is
    returned as an exact zero.  The largest terms include the products
    inside the frame operators, ``|x|`` times the largest ``|c|`` or ``|W|``
    entry for each form ``x`` they read, so that the verdict does not hang
    on their summation order.  A rational field reads no scale, so none of
    these magnitudes is computed there.
    """
    field, bg = series.field, series.background
    R = [GForm.zero(field, degree) for degree in (1, 1, 0)]
    seen, framed = [[], [], []], [[], [], []]
    for i, term, read, frame in _residual_terms(series, K, p):
        R[i] = R[i] + term
        seen[i] += [term, read] if read else [term]
        if frame:
            framed[i].append(read)
    frame_scale = field.scale(chain(bg.W.entries(),
                                    (v for plane in bg.c for row in plane for v in row)))

    def magnitudes(i):
        yield from (v for t in seen[i] for v in t.entries())
        if framed[i]:
            yield frame_scale * field.scale(v for x in framed[i] for v in x.entries())

    return tuple(GForm.from_entries(field, [field.zero if field.is_zero(v, scale)
                                            else v for v in r.entries()])
                 for r, scale in zip(R, map(field.scale, map(magnitudes, range(3)))))


def check_residuals(series: PhgSeries, through: int = None):
    """Evaluate every coefficient equation the stored table must satisfy.

    Checks all three equations for K = 1..order and the a/phi_y equations at
    K = order+1 (whose coefficients the last solve step determined), at every
    log depth up to one past the stored maximum.  Returns the list of
    ``(K, p, name)`` addresses with nonzero residual -- empty means the
    series is an exact solution of the coefficient system.  Over float
    scalars a residual is zero when :func:`residual_at` returns it as exact
    zeros, i.e. when it is negligible next to the terms that entered it.
    """
    N = through if through is not None else series.order
    pmax = series.max_p() + 1
    bad = []
    for K in range(1, N + 2):
        for p in range(pmax, -1, -1):
            for R, name in zip(residual_at(series, K, p), ("a", "b", "phi_y")):
                if (name != "b" or K <= N) and not all(map(exact_zero, R.entries())):
                    bad.append((K, p, name))
    return bad


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
    for (k, p), form in series._a.items():
        if k <= N:
            A += np.array(form.to_floats()) * y**k * ly**p
    for (k, p), form in series._b.items():
        if k <= N:
            Phi += np.array(form.to_floats()) * y**k * ly**p
    for (k, p), form in series._phi.items():
        if k <= N:
            Phi_y += np.array(form.to_floats()) * y**k * ly**p
    return A, Phi, Phi_y


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------

def _format_form(field, form: GForm):
    if form.degree == 0:
        return [field.format(v) for v in form.coeffs]
    return [[field.format(v) for v in row] for row in form.coeffs]


def to_json(series: PhgSeries) -> str:
    """Canonical JSON for a series: entries sorted by (k, p), scalars as
    strings (rationals ``p/q`` in lowest terms, floats as decimal literals).
    Identical series give identical bytes.
    """
    field = series.field
    entries = []
    for (k, p) in series.addresses():
        entries.append({
            "k": k,
            "p": p,
            "a": _format_form(field, series.get_a(k, p)),
            "b": _format_form(field, series.get_b(k, p)),
            "phi_y": _format_form(field, series.get_phi(k, p)),
        })
    doc = {
        "background": series.background_name,
        "order": series.order,
        "entries": entries,
    }
    return json.dumps(doc, indent=2) + "\n"


def from_json(text: str, background: FrameBackground = None,
              field=None) -> PhgSeries:
    """Rebuild a series from :func:`to_json` output.

    A background may be attached for residual checks / evaluation; its name
    must then match the serialized header.
    """
    doc = json.loads(text)
    if background is not None and field is None:
        field = background.field
    field = field or RationalField()
    name = doc["background"]
    if background is not None and background.name != name:
        raise ValueError(
            f"series was computed on {name!r}, not {background.name!r}")
    series = PhgSeries(background=background, field=field,
                       order=int(doc["order"]), background_name=name)
    for entry in doc["entries"]:
        k, p = int(entry["k"]), int(entry["p"])
        a = GForm.one_form(field, [[field.parse(v) for v in row]
                                   for row in entry["a"]])
        b = GForm.one_form(field, [[field.parse(v) for v in row]
                                   for row in entry["b"]])
        phi = GForm.zero_form(field, [field.parse(v) for v in entry["phi_y"]])
        series._store(k, p, (a, b, phi), a=a, b=b, phi_y=phi)
    return series
